"""Regenerate ``perfbench/golden.json``: the output digests every
benchmark pass is checked against.

For each of the ``INPUT_SEEDS`` input seeds it runs one pass of
``fig4-serial``, ``online`` and ``cluster`` and records the sweep-row digest, each online
session's journal digest and each cluster rung's journal digest.
``fig4-j2`` is checked against the serial rows. A pass that breaks its
own invariants aborts the run instead of being recorded.

Usage (from the repository root; about 15 s per seed on a 2-core
x86 host)::

    PYTHONPATH=src python3 perfbench/make_golden.py

Only regenerate when a change deliberately alters rows or journals,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import GOLDEN_SECTION, INPUT_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    golden: dict = {}
    for name in ("fig4-serial", "online", "cluster"):
        workload = WORKLOADS[name]
        section = golden.setdefault(GOLDEN_SECTION[name], {})
        for seed in range(INPUT_SEEDS):
            record = workload.run_pass(workload.setup(seed))
            if record.problems:
                print(f"{name} seed {seed}: {record.problems}", file=sys.stderr)
                return 1
            section[str(seed)] = record.digests
            print(f"{name} seed {seed} done", file=sys.stderr)
    with open(ROOT / "perfbench" / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

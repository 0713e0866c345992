"""End-to-end benchmark of the placement pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-serial --seed 0 --seconds 20 --trace 0

Workloads: ``fig4-serial``, ``fig4-j2``, ``online``, ``cluster`` (see
``perfbench/README.md``). ``--trace 0`` starts ``CHILDREN`` fresh
interpreters one after another, each with its own input seed derived
from ``--seed``, and reports every end-to-end metric of
``BENCHMARK.json``. ``--trace 1`` starts one interpreter that measures
untraced and then traced passes, and reports every per-layer metric.
Every pass is checked against the committed golden digests in
``perfbench/golden.json`` and the workload's invariants.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the run's provenance. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import CLUSTER_RUNGS, INPUT_SEEDS  # noqa: E402

BENCH_DIR = ROOT / "perfbench"
#: Scratch output of runs (spans, results); ignored by git.
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters per untraced run; ``setup_s`` and
#: ``peak_rss_mib`` are their medians.
CHILDREN = 3
#: Every run must finish within this many seconds.
RUN_LIMIT_S = 170.0


def input_seed(seed: int, child: int) -> int:
    """Input seed of one child: consecutive children of one run take
    consecutive golden input seeds, so every input has a digest."""
    return (seed * CHILDREN + child) % INPUT_SEEDS


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def slowdown(p: dict) -> float:
    """Host slowdown sampled during a pass (1.0 where not sampled)."""
    return p["detail"].get("slowdown", 1.0)


def best_steps_ms(passes: list[dict], corrected: bool = True) -> list[float]:
    """Each latency step's fastest time over one child's passes, which
    repeat identical work; slowdown-corrected unless ``corrected`` is
    false."""
    return [
        min(step)
        for step in zip(
            *(
                [x / (slowdown(p) if corrected else 1.0) for x in p["latencies_ms"]]
                for p in passes
            )
        )
    ]


def e2e_metrics(children: list[dict], spawned: list[float]) -> dict[str, float]:
    """End-to-end metrics of an untraced run from its children.

    Pass times and step latencies are divided by the host slowdown
    sampled during their pass. Throughput is the median over every
    pass of the run; the latency percentiles are taken over every
    child's per-step minima together."""
    steps = [x for c in children for x in best_steps_ms(c["untraced"])]
    return {
        "setup_s": statistics.median(
            (c["ready_monotonic"] - t) / c["setup_slowdown"]
            for c, t in zip(children, spawned)
        ),
        "peak_rss_mib": statistics.median(c["maxrss_mib"] for c in children),
        "throughput_per_s": statistics.median(
            p["items"] * slowdown(p) / p["wall_s"]
            for c in children
            for p in c["untraced"]
        ),
        "latency_p50_ms": percentile(steps, 0.50),
        "latency_p99_ms": percentile(steps, 0.99),
    }


def uncorrected_figures(
    children: list[dict], spawned: list[float]
) -> dict[str, float]:
    """The untraced run's figures before the slowdown correction, kept
    beside the corrected metrics so the two can be compared."""
    passes = [p for c in children for p in c["untraced"]]
    steps = [
        x for c in children for x in best_steps_ms(c["untraced"], False)
    ]
    return {
        "setup_s": statistics.median(
            c["ready_monotonic"] - t for c, t in zip(children, spawned)
        ),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "throughput_per_s": statistics.median(
            p["items"] / p["wall_s"] for p in passes
        ),
        "latency_p50_ms": percentile(steps, 0.50),
        "latency_p99_ms": percentile(steps, 0.99),
        "slowdown": statistics.median(slowdown(p) for p in passes),
    }


def layer_summary(child: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians over traced passes,
    plus figures the untraced half measured."""
    layers = child["layers"]
    out = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    untraced = [p["wall_s"] for p in child["untraced"]]
    traced = [p["wall_s"] for p in child["traced"]]
    out["tracing_overhead_ratio"] = statistics.median(traced) / (
        statistics.median(untraced)
    )
    for label, _, _ in CLUSTER_RUNGS:
        values = [
            p["detail"][label]["ms_per_arrival"]
            for p in child["untraced"]
            if label in p["detail"]
        ]
        out[f"cluster.ms_per_arrival_{label}"] = (
            statistics.median(values) if values else 0
        )
    out["parallel.worker_peak_rss_mib"] = child["children_maxrss_mib"]
    return out


def source_digest() -> str:
    """sha256 over the program's sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one child to completion; returns (its JSON, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {args} overran the run limit") from None
    finally:
        # Reap anything the child left behind in its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), spawned


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)

    common = ["--workload", args.workload]
    if args.trace:
        seed0 = input_seed(args.seed, 0)
        child, _ = spawn_child(
            common + ["--input-seed", str(seed0), "--seconds",
                      str(args.seconds), "--trace", "1", "--spool",
                      str(WORK_DIR)],
            deadline,
        )
        children = [child]
        seeds = [seed0]
        uncorrected = None
        metrics = layer_summary(child)
        wanted = bench["per_layer"]
    else:
        children, spawned, seeds = [], [], []
        for k in range(CHILDREN):
            seeds.append(input_seed(args.seed, k))
            child, t = spawn_child(
                common + ["--input-seed", str(seeds[-1]), "--seconds",
                          str(args.seconds / CHILDREN)],
                deadline,
            )
            children.append(child)
            spawned.append(t)
        metrics = e2e_metrics(children, spawned)
        uncorrected = uncorrected_figures(children, spawned)
        wanted = bench["end_to_end"]

    passes = [p for c in children for p in c["untraced"] + c["traced"]]
    problems = [p for c in children for p in c["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    # The latest traced run's overhead, reported only while the program
    # sources are the ones it was measured on.
    sources = source_digest()
    overhead_file = WORK_DIR / f"overhead-{args.workload}.json"
    if args.trace:
        overhead_file.write_text(
            json.dumps(
                {
                    "tracing_overhead_ratio": metrics["tracing_overhead_ratio"],
                    "source_sha256": sources,
                }
            )
        )
    overhead = None
    if overhead_file.exists():
        measured = json.loads(overhead_file.read_text())
        if measured.get("source_sha256") == sources:
            overhead = measured["tracing_overhead_ratio"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": seeds,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": children[0]["numpy"],
        "git_commit": git_commit(),
        "source_sha256": sources,
        "tracing_overhead_ratio": overhead,
        "uncorrected": uncorrected,
        "wall_s": time.monotonic() - started,
    }
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    (WORK_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

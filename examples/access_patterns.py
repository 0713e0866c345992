#!/usr/bin/env python
"""Classify objects as regular/irregular from their sampled accesses.

The paper's final future-work sketch (Section V): Folding "leads us
to identify regions of code with regular and irregular access
patterns. This analysis would help placing irregularly accessed
variables into the memory with shorter latency." This example runs
the classifier over GTC-P's trace — the particle push is a textbook
mix of streamed particle arrays and randomly gathered grids — and
prints the per-object verdicts and placement hints.

Run:  python examples/access_patterns.py [app-name]
"""

import sys

from repro import HybridMemoryFramework, get_app
from repro.analysis.patterns import classify_access_patterns
from repro.reporting.tables import AsciiTable


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gtc-p"
    app = get_app(name)
    fw = HybridMemoryFramework(app)
    trace = fw.profile().trace.to_tracefile()

    verdicts = classify_access_patterns(trace)
    table = AsciiTable(
        ["object", "samples", "pattern", "coherence", "stride spread",
         "placement hint"]
    )
    for verdict in sorted(
        verdicts.values(), key=lambda v: v.samples, reverse=True
    ):
        table.add_row(
            verdict.key.label,
            verdict.samples,
            verdict.pattern.value,
            verdict.direction_coherence,
            verdict.stride_dispersion,
            verdict.placement_hint,
        )
    print(f"== access-pattern classification: {app.title} ==")
    print(table.render())

    irregular = [
        v for v in verdicts.values() if v.pattern.value == "irregular"
    ]
    print(
        f"\n{len(irregular)} of {len(verdicts)} sampled objects are "
        "irregular — on a latency-tiered machine these are the ones the "
        "latency-weighted strategies would prioritise."
    )


if __name__ == "__main__":
    main()

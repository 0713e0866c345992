"""Figure 5: performance evolution of SNAP's main iteration (Folding).

The paper folds SNAP's trace into three stacked plots — the function
executing, the addresses referenced, and the achieved MIPS — and shows
that under the framework's placement the MIPS rate drops whenever
``outer_src_calc`` runs (its register spills live on the *stack*, in
DDR), while under ``numactl -p 1`` the dip disappears (the stack is in
MCDRAM). This benchmark regenerates the folded timeline for both
placements.
"""

from __future__ import annotations

import pytest

from repro.analysis.folding import fold_trace
from repro.apps import get_app
from repro.pipeline.framework import HybridMemoryFramework
from repro.pipeline.phase_model import phase_mips
from repro.placement.policies import run_framework, run_numactl_preferred
from repro.reporting.ascii_plot import timeline_chart
from repro.reporting.tables import AsciiTable
from repro.units import MIB


def _run():
    app = get_app("snap")
    fw = HybridMemoryFramework(app)
    profiling = fw.profile()

    report = fw.advise(256 * MIB, "misses-0%")
    framework = run_framework(
        app, fw.machine, profiling, report, budget_real=256 * MIB
    )
    numactl = run_numactl_preferred(app, fw.machine, profiling)

    def fractions(outcome, stack_fast):
        replay = outcome.replay
        fr = {
            o.name: replay.promoted_fraction(o.name, "memkind-hbw")
            for o in app.objects
            if not o.static
        }
        if stack_fast:
            fr.update(
                {o.name: 1.0 for o in app.objects if o.static}
            )
        return fr

    mips_framework = phase_mips(
        app, fw.machine, profiling, fractions(framework, False),
        stack_fast=False,
    )
    mips_numactl = phase_mips(
        app, fw.machine, profiling, fractions(numactl, True),
        stack_fast=True,
    )

    # Fold one window of the main iteration (paper: ~16.5 s spanning
    # ~4 iterations of outer_src_calc/octsweep).
    t0 = app.calibration.ddr_time * app.init_fraction
    iter_span = (app.calibration.ddr_time - t0) / app.n_iterations
    timeline = fold_trace(
        profiling.trace.to_tracefile(),
        n_bins=80,
        t_start=t0,
        t_end=t0 + 4 * iter_span,
        mips_by_function=mips_framework,
    )
    return app, timeline, mips_framework, mips_numactl


def test_fig5_snap_folding(benchmark):
    app, timeline, mips_framework, mips_numactl = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    table = AsciiTable(["t (s)", "function", "samples", "addr span", "MIPS"])
    for b in timeline.bins[::8]:
        span = (
            f"{min(b.addresses):#x}..{max(b.addresses):#x}"
            if b.addresses
            else "-"
        )
        table.add_row(
            round(b.midpoint, 1), b.function, len(b.addresses), span, b.mips
        )
    print("\n== Figure 5: SNAP folded timeline (framework placement) ==")
    print(table.render())
    cmp = AsciiTable(["function", "framework MIPS", "numactl MIPS"])
    for fn in timeline.functions:
        cmp.add_row(fn, mips_framework[fn], mips_numactl[fn])
    print(cmp.render())

    spans = [
        (b.t0, b.t1, b.function) for b in timeline.bins
    ]
    values = [(b.midpoint, b.mips) for b in timeline.bins]
    print()
    print(
        timeline_chart(
            spans, values,
            title="SNAP main iteration: executing code (top) and MIPS "
            "(bottom) under the framework placement",
        )
    )

    # The timeline alternates between the two routines.
    assert set(timeline.functions) == {"outer_src_calc", "octsweep"}

    # Addresses are referenced in every occupied bin (middle plot).
    assert sum(len(b.addresses) for b in timeline.bins) > 100

    # Framework placement: MIPS drops when outer_src_calc executes.
    assert mips_framework["outer_src_calc"] < 0.75 * mips_framework["octsweep"]

    # numactl: the dip disappears (stack served from MCDRAM).
    ratio_numactl = (
        mips_numactl["outer_src_calc"] / mips_numactl["octsweep"]
    )
    ratio_framework = (
        mips_framework["outer_src_calc"] / mips_framework["octsweep"]
    )
    assert ratio_numactl > ratio_framework * 1.15

    # MIPS axis in the paper's 0..1600 ballpark.
    for value in (*mips_framework.values(), *mips_numactl.values()):
        assert 100 < value < 2000

"""Per-layer instrumentation of the program, applied from outside.

:func:`install` wraps each layer's public entry point with a span of
the recorder (and counters read from its arguments or result);
:func:`layer_metrics` turns one traced pass into the per-layer metrics
listed in ``BENCHMARK.json``. Nothing under ``src/`` is modified: the
wrappers replace class attributes and module globals for the duration
of the traced passes and :meth:`Recorder.restore` puts them back.
"""

from __future__ import annotations

from perfbench.spans import PassTrace, Recorder, Span, busy_ns, union_ns

#: Benchmark-level spans that group a unit of work; they are not a
#: layer, so they do not count as covered time.
GROUP_SPANS = ("sweep.cell", "online.decision", "cluster.rung")

#: Busy-time metric -> span name.
BUSY = {
    "apps.profile_s": "apps.profile",
    "trace.record_s": "trace.record",
    "pebs.sample_s": "pebs.sample",
    "analysis.analyze_s": "analysis.analyze",
    "analysis.incr_init_s": "analysis.incr_init",
    "analysis.incr_advance_s": "analysis.incr_advance",
    "analysis.incr_result_s": "analysis.incr_result",
    "advisor.advise_s": "advisor.advise",
    "placement.replay_s": "placement.replay",
    "machine.cost_s": "machine.cost",
    "cluster.schedule_s": "cluster.schedule",
    "cluster.advise_s": "cluster.advise",
    "cluster.traffic_s": "cluster.traffic",
    "online.apply_s": "online.apply",
    "online.score_s": "online.score",
}

#: Call-count metric -> span name.
CALLS = {
    "apps.profile_calls": "apps.profile",
    "advisor.advise_calls": "advisor.advise",
    "placement.replay_calls": "placement.replay",
    "machine.cost_calls": "machine.cost",
    "cluster.schedule_calls": "cluster.schedule",
    "cluster.advise_calls": "cluster.advise",
}

#: Counter metrics bumped by the wrappers (or the workloads).
COUNTERS = (
    "trace.samples",
    "pebs.misses_in",
    "pebs.samples_out",
    "analysis.samples_attributed",
    "analysis.samples_unresolved",
    "analysis.samples_stack",
    "advisor.entries_promoted",
    "interpose.calls_intercepted",
    "interpose.calls_matched",
    "interpose.calls_promoted",
    "interpose.hbw_fallbacks",
    "cluster.hole_scans",
    "online.migrations",
)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry point; undo with ``rec.restore()``."""
    import repro.online.daemon as online_daemon
    import repro.parallel.sweep as sweep
    from repro.advisor.advisor import HmemAdvisor
    from repro.analysis.paramedir import Paramedir
    from repro.analysis.vectorattr import IncrementalAttributor
    from repro.apps.base import SimApplication
    from repro.cluster import simulator
    from repro.cluster.node import ExtentAllocator
    from repro.machine.performance import ExecutionModel
    from repro.online.migration import HysteresisFilter
    from repro.pebs.sampler import PebsSampler
    from repro.pipeline.framework import HybridMemoryFramework
    from repro.trace.tracer import Tracer

    def method(cls, attr, name, after=None, leaf=False):
        rec.patch(
            cls, attr, rec.wrap(cls.__dict__[attr], name, after=after, leaf=leaf)
        )

    def function(module, attr, name, group=False):
        rec.patch(module, attr, rec.wrap(getattr(module, attr), name, group))

    def on_samples(n, args):
        rec.count("trace.samples", n)

    def on_pebs(result, args):
        rec.count("pebs.misses_in", len(args[1]))
        rec.count("pebs.samples_out", len(result[0]))

    def on_profiles(profiles, args):
        attributed = sum(p.sampled_misses for p in profiles.profiles)
        rec.count("analysis.samples_attributed", attributed)
        rec.count("analysis.samples_unresolved", profiles.unresolved_samples)
        rec.count("analysis.samples_stack", profiles.stack_samples)

    def on_report(report, args):
        rec.count("advisor.entries_promoted", len(report.entries))

    def on_replay(replay, args):
        stats = getattr(replay.hook, "stats", None)
        if stats is None:
            return
        for field in (
            "calls_intercepted", "calls_matched", "calls_promoted",
            "hbw_fallbacks",
        ):
            rec.count(f"interpose.{field}", getattr(stats, field))

    method(SimApplication, "run_profiling", "apps.profile")
    method(Tracer, "record_misses", "trace.record", on_samples)
    method(PebsSampler, "sample_chunk_arrays", "pebs.sample", on_pebs)
    method(Paramedir, "analyze", "analysis.analyze", on_profiles)
    method(IncrementalAttributor, "__init__", "analysis.incr_init")
    method(IncrementalAttributor, "advance_time", "analysis.incr_advance")
    method(IncrementalAttributor, "advance_all", "analysis.incr_advance")
    method(IncrementalAttributor, "result", "analysis.incr_result")
    method(HmemAdvisor, "advise", "advisor.advise", on_report)
    method(SimApplication, "replay_with_hook", "placement.replay", on_replay)
    method(ExecutionModel, "cost", "machine.cost", leaf=True)
    method(HybridMemoryFramework, "placement_sites", "cluster.advise")
    method(HysteresisFilter, "update", "online.apply")
    function(online_daemon, "diff_placements", "online.apply")
    function(simulator, "traffic_for_sites", "cluster.traffic")
    function(sweep, "run_cell", "sweep.cell", group=True)

    largest_free = ExtentAllocator.__dict__["largest_free"].fget

    def counted_largest_free(allocator):
        rec.count("cluster.hole_scans")
        return largest_free(allocator)

    rec.patch(ExtentAllocator, "largest_free", property(counted_largest_free))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    own: PassTrace, workers: PassTrace, record
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer is idle).

    ``own`` is what the measured process recorded, ``workers`` what
    its pool workers spooled; ``bench.self_s`` is the pass's wall time
    in the measured process that no layer covers.
    """
    both = PassTrace()
    both.add(own)
    both.add(workers)
    spans, counters, leaves = both.spans, both.counters, both.leaves
    out: dict[str, float] = {}
    for metric, name in BUSY.items():
        out[metric] = (
            leaves[name][1] if name in leaves else busy_ns(spans, name)
        ) / 1e9
    for metric, name in CALLS.items():
        out[metric] = (
            leaves[name][0]
            if name in leaves
            else sum(1 for s in spans if s.name == name)
        )
    for metric in COUNTERS:
        out[metric] = counters.get(metric, 0)
    samples = (
        out["analysis.samples_attributed"]
        + out["analysis.samples_unresolved"]
        + out["analysis.samples_stack"]
    )
    out["analysis.attributed_ratio"] = _ratio(
        out["analysis.samples_attributed"], samples
    )
    out["interpose.match_ratio"] = _ratio(
        out["interpose.calls_matched"], out["interpose.calls_intercepted"]
    )

    rungs = {
        label: d for label, d in record.detail.items() if isinstance(d, dict)
        and "events" in d
    }
    events = sum(d["events"] for d in rungs.values())
    admits = sum(d["admits"] for d in rungs.values())
    out["cluster.events"] = events
    out["cluster.host_us_per_event"] = _ratio(
        sum(d["wall_s"] for d in rungs.values()) * 1e6, events
    )
    out["cluster.admit_ratio"] = _ratio(admits, out["cluster.schedule_calls"])

    counters_sweep = record.detail.get("counters")
    if counters_sweep is not None:
        profile_runs = counters_sweep.get("profile", 0)
        busy = sum(record.detail["stage_s"].values())
        out["parallel.profile_runs"] = profile_runs
        out["parallel.profile_reuse_ratio"] = _ratio(
            record.detail["apps"], profile_runs
        )
        out["parallel.worker_busy_s"] = busy
        out["parallel.worker_idle_s"] = max(
            0.0, record.detail["jobs"] * record.wall_s - busy
        )
        out["parallel.retries"] = counters_sweep.get("retry", 0)
        out["parallel.framework_evicted"] = counters_sweep.get(
            "framework_evicted", 0
        )
    else:
        for metric in (
            "parallel.profile_runs", "parallel.profile_reuse_ratio",
            "parallel.worker_busy_s", "parallel.worker_idle_s",
            "parallel.retries", "parallel.framework_evicted",
        ):
            out[metric] = 0

    covered = union_ns(
        [(s.start_ns, s.end_ns) for s in outermost_layer_spans(own.spans)]
    )
    covered += own.leaf_toplevel_ns
    out["bench.self_s"] = max(0.0, record.wall_s - covered / 1e9)
    return out


def outermost_layer_spans(spans: list[Span]) -> list[Span]:
    """Layer spans whose ancestors are all group spans."""
    by_id = {s.id: s for s in spans}
    result = []
    for span in spans:
        if span.name in GROUP_SPANS:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name in GROUP_SPANS:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            result.append(span)
    return result

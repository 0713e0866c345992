"""Benchmark harness: scenarios, report round-trip, regression gate."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import SCENARIOS, make_attribution_trace, make_stream
from repro.bench.harness import BenchRecord, BenchReport, compare_baseline
from repro.errors import ConfigError, ReproError


def _record(stage="cache_setassoc", scenario="hotcold", mode="quick",
            throughput=1_000_000.0, **kw):
    return BenchRecord(
        stage=stage, scenario=scenario, mode=mode, n=100_000,
        seconds=100_000 / throughput, throughput=throughput, **kw
    )


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_in_seed(self, name):
        a = make_stream(name, 2000, seed=3)
        b = make_stream(name, 2000, seed=3)
        c = make_stream(name, 2000, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.dtype == np.uint64 and a.shape == (2000,)

    def test_hotcold_is_hot(self):
        """The premise of the gated workload: most traffic in a small
        region."""
        addrs = make_stream("hotcold", 20_000, seed=0)
        hot = np.count_nonzero(addrs < 256 * 1024)
        assert hot > 0.9 * addrs.size

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            make_stream("nope", 10)

    def test_negative_length(self):
        with pytest.raises(ConfigError, match="negative"):
            make_stream("uniform", -1)

    def test_empty_stream(self):
        for name in SCENARIOS:
            assert make_stream(name, 0).size == 0


class TestAttributionScenario:
    def test_deterministic_in_seed(self):
        a = make_attribution_trace(3000, seed=3)
        b = make_attribution_trace(3000, seed=3)
        c = make_attribution_trace(3000, seed=4)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.to_jsonl() != c.to_jsonl()

    def test_workload_mix(self):
        """The scenario must actually stress attribution: many
        allocation sites, address reuse, statics, a stack region and
        unresolved traffic."""
        trace = make_attribution_trace(5000, seed=0)
        assert len(trace.events) == 5000
        assert len(trace.alloc_events) > 10
        assert len(trace.free_events) > 0
        assert len(trace.sample_events) > 4000
        assert len(trace.statics) == 4
        assert "stack_region" in trace.metadata
        sites = {e.callstack for e in trace.alloc_events}
        assert len(sites) > 16
        lats = [e.latency_cycles for e in trace.sample_events]
        assert any(x is None for x in lats) and any(
            x is not None for x in lats
        )

    def test_trace_is_attributable(self):
        """Replaying the workload must not trip the overlap/unknown-free
        guards — it is a *valid* allocation history by construction."""
        from repro.analysis.attribution import attribute_samples

        result = attribute_samples(make_attribution_trace(4000, seed=1))
        assert result.total_samples > 0
        assert result.unresolved_samples > 0  # wild + stale traffic
        assert result.stack_samples > 0
        assert len(result.misses) > 10


class TestReportRoundTrip:
    def test_json_round_trip(self, tmp_path):
        report = BenchReport(mode="quick", seed=7)
        report.record(_record(speedup=5.5, reference_seconds=0.55))
        report.record(_record(stage="pebs_sampler", scenario="uniform"))
        path = tmp_path / "bench.json"
        report.save(path)
        loaded = BenchReport.load(path)
        assert loaded.mode == "quick" and loaded.seed == 7
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in report.records
        ]
        # metrics carried the per-stage timings through
        assert loaded.metrics.count("bench:cache_setassoc") == 1
        assert loaded.metrics.wall_seconds("bench:pebs_sampler") > 0

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read baseline"):
            BenchReport.load(bad)
        with pytest.raises(ReproError, match="cannot read baseline"):
            BenchReport.load(tmp_path / "missing.json")

    def test_schema_field_present(self, tmp_path):
        report = BenchReport()
        path = tmp_path / "bench.json"
        report.save(path)
        assert json.loads(path.read_text())["schema"] == "repro-bench/1"


class TestRegressionGate:
    def _reports(self, base_tp, cur_tp):
        baseline = BenchReport()
        baseline.records.append(_record(throughput=base_tp))
        current = BenchReport()
        current.records.append(_record(throughput=cur_tp))
        return current, baseline

    def test_within_threshold_passes(self):
        current, baseline = self._reports(1_000_000, 800_000)
        assert compare_baseline(current, baseline, 0.25) == []

    def test_regression_fails(self):
        current, baseline = self._reports(1_000_000, 700_000)
        failures = compare_baseline(current, baseline, 0.25)
        assert len(failures) == 1
        assert "cache_setassoc/hotcold" in failures[0]
        assert "30%" in failures[0]

    def test_improvement_passes(self):
        current, baseline = self._reports(1_000_000, 2_000_000)
        assert compare_baseline(current, baseline, 0.0) == []

    def test_modes_never_cross_compare(self):
        """A quick run must not be judged against full-mode numbers."""
        baseline = BenchReport()
        baseline.records.append(_record(mode="full", throughput=10_000_000))
        current = BenchReport()
        current.records.append(_record(mode="quick", throughput=1_000_000))
        assert compare_baseline(current, baseline, 0.25) == []

    def test_new_stage_is_not_a_regression(self):
        baseline = BenchReport()
        current = BenchReport()
        current.records.append(_record(stage="brand_new"))
        assert compare_baseline(current, baseline, 0.25) == []

    def test_bad_threshold_rejected(self):
        with pytest.raises(ReproError, match="max regression"):
            compare_baseline(BenchReport(), BenchReport(), 1.0)
        with pytest.raises(ReproError, match="max regression"):
            compare_baseline(BenchReport(), BenchReport(), -0.1)


class TestClusterShapeGate:
    """The fleet-4x320M stage fails when ms/arrival grows with the
    arrival count (a stand-in simulator controls the cost curve)."""

    @staticmethod
    def _run(monkeypatch, seconds_for):
        import time
        from types import SimpleNamespace

        import repro.cluster
        from repro.bench.harness import _bench_cluster_schedule

        class TimedSim:
            def __init__(self, fleet, stream):
                self.n = stream.n_arrivals

            def run(self):
                time.sleep(seconds_for(self.n))
                return SimpleNamespace(
                    aggregate_fom=1.0, aggregate_fom_isolated=1.0,
                    fairness=1.0,
                )

        monkeypatch.setattr(repro.cluster, "ClusterSim", TimedSim)
        report = BenchReport(mode="quick")
        _bench_cluster_schedule(
            report, n_arrivals=2, shape_rungs=(4, 16), seed=0, repeats=1
        )
        return report

    def test_linear_cost_passes(self, monkeypatch):
        report = self._run(monkeypatch, lambda n: n * 1e-3)
        assert [r.scenario for r in report.records] == [
            "fleet-2x320M", "fleet-4x320M-n4", "fleet-4x320M-n16",
        ]

    def test_quadratic_cost_fails(self, monkeypatch):
        with pytest.raises(
            ReproError, match=r"grew \d+\.\d\dx from 4 to 16 arrivals"
        ):
            self._run(monkeypatch, lambda n: n * n * 2e-4)


class TestCommittedBaseline:
    def _load(self, name):
        from pathlib import Path

        return BenchReport.load(
            Path(__file__).resolve().parents[2] / name
        )

    def test_bench_pr5_meets_acceptance(self):
        """The committed trajectory must contain the full-mode 1M
        hot/cold set-associative record and the full-mode 1M-event
        attribution record, each at >= 5x over its per-access
        reference, and quick records for the CI gate to match."""
        report = self._load("BENCH_PR5.json")
        for key in (
            ("cache_setassoc", "hotcold", "full"),
            ("analysis_attribution", "alloc-sample-mix", "full"),
        ):
            gated = [r for r in report.records if r.key == key]
            assert len(gated) == 1, key
            assert gated[0].n >= 1_000_000
            assert gated[0].speedup is not None and gated[0].speedup >= 5.0
        quick_keys = {r.key for r in report.records if r.mode == "quick"}
        assert ("cache_setassoc", "hotcold", "quick") in quick_keys
        assert (
            "analysis_attribution", "alloc-sample-mix", "quick"
        ) in quick_keys

    def test_bench_pr12_meets_acceptance(self):
        """The committed trajectory records the 2M-miss profile +
        analyze at >= 10x over the per-event path (and under 0.12 s),
        quick records for every stage the CI gate tracks, and none of
        the retired shared-plane records."""
        report = self._load("BENCH_PR12.json")
        (full,) = [
            r for r in report.records
            if r.key == ("profile_analyze", "benchsweep", "full")
        ]
        assert full.n >= 2_000_000
        assert full.speedup is not None and full.speedup >= 10.0
        assert full.seconds <= 0.12
        quick_keys = {r.key for r in report.records if r.mode == "quick"}
        for key in (
            ("pebs_sampler", "uniform", "quick"),
            ("profile_analyze", "benchsweep", "quick"),
            ("sweep_throughput", "serial-jobs1", "quick"),
            ("sweep_throughput", "pool-jobs4", "quick"),
        ):
            assert key in quick_keys, key
        assert not any(
            r.stage == "sweep_worker_rss" or r.scenario.startswith("plane")
            for r in report.records
        )

    def test_bench_pr13_meets_acceptance(self):
        """The committed trajectory records the 4-node cluster fleet at
        100 and 1,600 arrivals (quick: 100 and 800) with ms/arrival
        growing at most 1.5x between the rungs, keeps the 2-node
        fleet, and carries quick records for every stage the CI gate
        tracks."""
        from repro.bench.harness import CLUSTER_SHAPE_MAX_RATIO

        report = self._load("BENCH_PR13.json")
        by_key = {r.key: r for r in report.records}
        for mode, large in (("full", 1600), ("quick", 800)):
            small_rec = by_key[
                ("cluster_schedule", "fleet-4x320M-n100", mode)
            ]
            large_rec = by_key[
                ("cluster_schedule", f"fleet-4x320M-n{large}", mode)
            ]
            assert (small_rec.n, large_rec.n) == (100, large)
            ratio = (large_rec.seconds / large_rec.n) / (
                small_rec.seconds / small_rec.n
            )
            assert ratio <= CLUSTER_SHAPE_MAX_RATIO, (mode, ratio)
            assert ("cluster_schedule", "fleet-2x320M", mode) in by_key
        quick_keys = {r.key for r in report.records if r.mode == "quick"}
        for key in (
            ("pebs_sampler", "uniform", "quick"),
            ("profile_analyze", "benchsweep", "quick"),
            ("sweep_throughput", "serial-jobs1", "quick"),
            ("sweep_throughput", "pool-jobs4", "quick"),
        ):
            assert key in quick_keys, key

    def test_bench_pr14_meets_acceptance(self):
        """The committed trajectory records the placed lulesh replay in
        both modes (the CI gate's quick key included), every timed call
        replaying the same allocations."""
        report = self._load("BENCH_PR14.json")
        by_key = {r.key: r for r in report.records}
        for mode in ("full", "quick"):
            rec = by_key[("timeline_replay", "lulesh-density-128M", mode)]
            assert rec.n % LULESH_ALLOCATIONS_PER_REPLAY == 0
            assert rec.throughput > 0
        quick_keys = {r.key for r in report.records if r.mode == "quick"}
        for key in (
            ("pebs_sampler", "uniform", "quick"),
            ("profile_analyze", "benchsweep", "quick"),
            ("cluster_schedule", "fleet-4x320M-n800", "quick"),
        ):
            assert key in quick_keys, key


#: Allocations one placed lulesh run makes (init plus per-phase churn).
LULESH_ALLOCATIONS_PER_REPLAY = 447


class TestTimelineReplayStage:
    def test_records_allocations_of_each_call(self):
        from repro.bench.harness import _bench_timeline_replay

        report = BenchReport(mode="quick")
        _bench_timeline_replay(report, calls=2, seed=0, repeats=1)
        (rec,) = report.records
        assert rec.key == ("timeline_replay", "lulesh-density-128M", "quick")
        assert rec.n == 2 * LULESH_ALLOCATIONS_PER_REPLAY
        assert rec.throughput == rec.n / rec.seconds

    def test_divergence_from_the_sweep_row_fails(self, monkeypatch):
        import dataclasses

        import repro.parallel.sweep
        from repro.bench.harness import _bench_timeline_replay

        run_sweep = repro.parallel.sweep.run_sweep

        def skewed(*args, **kwargs):
            result = run_sweep(*args, **kwargs)
            for outcome in result.outcomes:
                outcome.row = dataclasses.replace(
                    outcome.row, hwm_bytes=outcome.row.hwm_bytes + 1
                )
            return result

        monkeypatch.setattr(repro.parallel.sweep, "run_sweep", skewed)
        with pytest.raises(ReproError, match="diverged from the serial sweep"):
            _bench_timeline_replay(
                BenchReport(mode="quick"), calls=1, seed=0, repeats=1
            )

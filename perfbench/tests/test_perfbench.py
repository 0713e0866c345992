"""Tests of the benchmark itself: printed names, correctness checks,
self-time arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run  # noqa: E402
from perfbench.layers import layer_metrics, outermost_layer_spans  # noqa: E402
from perfbench.spans import (  # noqa: E402
    PassTrace,
    Recorder,
    Span,
    busy_ns,
    union_ns,
)
from perfbench.workloads import (  # noqa: E402
    ARRIVAL_BLOCK,
    GOLDEN_SECTION,
    INPUT_SEEDS,
    WORKLOADS,
    PassRecord,
    block_steps_ms,
    rows_digest,
    rung_problems,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


def _run(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


# -- printed names ---------------------------------------------------------


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_printed_names_equal_benchmark_json(trace, section):
    code, lines = _run(
        "--workload", "online", "--seed", "0", "--seconds", "1",
        "--trace", trace,
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert list(result["metrics"]) == list(wanted)
    for name, unit in wanted.items():
        assert result["metrics"][name]["unit"] == unit
    printed = {line.split()[0]: line.split()[2] for line in lines[:len(wanted)]}
    assert printed == wanted
    assert "provenance" in json.loads(lines[-2])


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS)
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert list(spec["workloads"]) == names
    assert spec["heldout_seed"] != spec["default_seed"]


def test_every_input_seed_has_golden_digests():
    for section in set(GOLDEN_SECTION.values()):
        assert set(GOLDEN[section]) == {str(s) for s in range(INPUT_SEEDS)}
    for seed in range(-3, 40):
        for child in range(run.CHILDREN):
            assert 0 <= run.input_seed(seed, child) < INPUT_SEEDS


# -- correctness checks ----------------------------------------------------


def test_tampered_row_fails_the_fig4_check():
    rows = [{"application": "hpcg", "label": "DDR", "fom": 10.5}]
    golden = {"rows": rows_digest(rows)}
    workload = WORKLOADS["fig4-serial"]
    assert workload.check(PassRecord(digests={"rows": rows_digest(rows)}), golden) == []
    tampered = [dict(rows[0], fom=10.500001)]
    problems = workload.check(
        PassRecord(digests={"rows": rows_digest(tampered)}), golden
    )
    assert problems and "rows" in problems[0]


def test_tampered_journal_digest_fails_the_online_check():
    workload = WORKLOADS["online"]
    record = workload.run_pass(workload.setup(0))
    golden = GOLDEN["online"]["0"]
    assert workload.check(record, golden) == []
    key = next(iter(golden))
    tampered = dict(golden, **{key: "0" * 64})
    problems = workload.check(record, tampered)
    assert len(problems) == 1 and key in problems[0]
    assert workload.check(record, None)


def test_rung_invariants_are_checked():
    report = SimpleNamespace(
        n_arrivals=10, tenants=[0] * 7, n_rejected=2, n_casualties=0,
        aggregate_fom=2.0, aggregate_fom_isolated=1.0,
    )
    journal = ["t=1.0 crash node=node00", "t=2.0 shed job=1"]
    problems = rung_problems(report, journal, faulted=True)
    assert any("arrivals 10" in p for p in problems)
    assert any("aggregate_fom" in p for p in problems)
    assert any("recover, casualty" in p for p in problems)


def test_cluster_steps_average_blocks_of_arrivals():
    # Arrival events every 2 ms for 25 arrivals; the rung ends 7 ms
    # after the last one.
    starts = [i * 0.002 for i in range(25)]
    steps = block_steps_ms(starts, end=starts[-1] + 0.007)
    assert ARRIVAL_BLOCK == 10
    assert steps == pytest.approx([2.0, 2.0, (4 * 2.0 + 7.0) / 5])


def test_per_step_minima_undo_the_slowdown():
    passes = [
        {"latencies_ms": [1.0, 4.0], "detail": {"slowdown": 2.0}},
        {"latencies_ms": [0.8, 1.5], "detail": {}},
    ]
    assert run.best_steps_ms(passes) == [0.5, 1.5]
    assert run.best_steps_ms(passes, corrected=False) == [0.8, 1.5]


def test_uncorrected_figures_keep_the_raw_timings():
    passes = [
        {"wall_s": 2.0, "items": 10, "latencies_ms": [1.0, 4.0],
         "detail": {"slowdown": 2.0}},
        {"wall_s": 1.0, "items": 10, "latencies_ms": [0.8, 1.5],
         "detail": {"slowdown": 1.0}},
    ]
    child = {"untraced": passes, "ready_monotonic": 5.0, "setup_slowdown": 2.0}
    raw = run.uncorrected_figures([child], spawned=[4.0])
    corrected = run.e2e_metrics([dict(child, maxrss_mib=1.0)], spawned=[4.0])
    assert raw["setup_s"] == 1.0 and corrected["setup_s"] == 0.5
    assert raw["pass_s"] == 1.5
    assert raw["throughput_per_s"] == 7.5
    assert corrected["throughput_per_s"] == 10.0
    assert raw["latency_p50_ms"] == pytest.approx(1.15)
    assert raw["slowdown"] == 1.5


# -- spans and self time ---------------------------------------------------


def _span(sid, name, start, end, parent=None, group=None):
    return Span(sid, name, start, end, parent, group, 1)


def test_self_time_on_a_synthetic_tree():
    # A 100 ns pass: one cell (a group span) holding an outer layer
    # "a" with a nested layer and a recursive call into itself, plus
    # two overlapping top-level layers outside the cell.
    spans = [
        _span(0, "sweep.cell", 0, 60, group=0),
        _span(1, "a", 10, 40, parent=0, group=0),
        _span(2, "b", 15, 20, parent=1, group=0),
        _span(3, "a", 25, 35, parent=1, group=0),
        _span(4, "c", 65, 80),
        _span(5, "d", 70, 90),
    ]
    assert [s.id for s in outermost_layer_spans(spans)] == [1, 4, 5]
    assert busy_ns(spans, "a") == 30
    assert union_ns([(10, 40), (65, 80), (70, 90)]) == 55
    metrics = layer_metrics(PassTrace(spans=spans), PassTrace(),
                            PassRecord(wall_s=100e-9))
    assert metrics["bench.self_s"] == pytest.approx(45e-9)


def test_bench_self_time_skips_group_spans():
    spans = [
        _span(0, "sweep.cell", 0, 50, group=0),
        _span(1, "apps.profile", 5, 25, parent=0, group=0),
        _span(2, "trace.record", 10, 20, parent=1, group=0),
        _span(3, "advisor.advise", 30, 40, parent=0, group=0),
    ]
    assert [s.id for s in outermost_layer_spans(spans)] == [1, 3]
    own = PassTrace(spans=spans, leaf_toplevel_ns=5)
    record = PassRecord(wall_s=100e-9)
    metrics = layer_metrics(own, PassTrace(), record)
    assert metrics["bench.self_s"] == pytest.approx((100 - 30 - 5) * 1e-9)
    assert metrics["apps.profile_s"] == pytest.approx(20e-9)
    assert metrics["advisor.advise_calls"] == 1


def test_recorder_nests_and_groups_spans():
    rec = Recorder()
    inner = rec.wrap(lambda: None, "leafy", leaf=True)
    with rec.span("cell", group=True):
        with rec.span("layer"):
            inner()
        inner()
    taken = rec.take()
    cell, = [s for s in taken.spans if s.name == "cell"]
    layer, = [s for s in taken.spans if s.name == "layer"]
    assert layer.parent == cell.id and layer.group == cell.id
    assert taken.leaves["leafy"][0] == 2
    assert 0 < taken.leaf_toplevel_ns <= taken.leaves["leafy"][1]
    assert rec.take().spans == []

"""Extrae-substitute tracer: size filter, samples, overhead."""

import numpy as np
import pytest

from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.tracer import Tracer, TracerConfig
from repro.units import KIB, MIB


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=200,
            functions=[
                FunctionSymbol("main", offset=0, size=64, file="app.c"),
            ],
        )
    ]
    return SimProcess(modules=modules, heap_size=64 * MIB, hbw_size=MIB)


@pytest.fixture()
def traced():
    process = _process()
    tracer = Tracer(TracerConfig(min_alloc_size=4 * KIB, sampling_period=3),
                    application="t", rank=0)
    tracer.attach(process)
    return process, tracer


class TestAllocationRecording:
    def test_large_allocation_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        assert len(tracer.records.alloc_events) == 1
        event = tracer.records.alloc_events[0]
        assert event.size == 8 * KIB
        assert event.callstack.leaf.function == "main"

    def test_small_allocation_filtered(self, traced):
        """Paper: only allocations larger than 4 KiB are monitored."""
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(1 * KIB)
        assert tracer.records.alloc_events == []

    def test_free_of_tracked_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        process.free(address)
        assert len(tracer.records.free_events) == 1

    def test_free_of_filtered_not_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(512)
        process.free(address)
        assert tracer.records.free_events == []

    def test_timestamps_follow_clock(self, traced):
        process, tracer = traced
        process.advance(4.2)
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        assert tracer.records.alloc_events[0].time == pytest.approx(4.2)


class TestSampling:
    def test_samples_folded_into_trace(self, traced):
        _, tracer = traced
        addrs = np.arange(30, dtype=np.uint64) * 64
        n = tracer.record_misses(addrs, np.linspace(0, 1, 30))
        assert n == 10  # period 3
        assert tracer.columnar_trace().n_samples == 10

    def test_phase_markers(self, traced):
        _, tracer = traced
        tracer.record_phase("octsweep", 1.0)
        assert tracer.records.phase_events[0].function == "octsweep"


class TestColumnarSamples:
    def _tracer(self, **kwargs):
        process = _process()
        tracer = Tracer(
            TracerConfig(min_alloc_size=4 * KIB, sampling_period=3, **kwargs),
            application="t", rank=0,
        )
        tracer.attach(process)
        return process, tracer

    def _interleaved(self, **kwargs):
        """Records and sample chunks in alternation: malloc, chunk,
        phase, chunk, free, chunk."""
        process, tracer = self._tracer(**kwargs)
        misses = []
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        for i, action in enumerate(("phase", "free", None)):
            addrs = address + (
                np.arange(i * 10, i * 10 + 10, dtype=np.uint64) * 64
            ) % (8 * KIB)
            times = np.linspace(i, i + 0.9, 10)
            lats = np.arange(10, dtype=np.int64) + 100 * i
            tracer.record_misses(addrs, times, lats)
            misses.append((addrs, times, lats))
            if action == "phase":
                tracer.record_phase("solve", i + 0.95)
            elif action == "free":
                process.free(address)
        return tracer, misses

    def test_samples_bypass_event_objects(self):
        _, tracer = self._tracer()
        n = tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                                 np.linspace(0, 1, 30))
        assert n == 10
        assert tracer.records.events == []  # no row objects built
        assert tracer.columnar_trace().n_samples == 10

    def test_chunks_merged_across_calls(self):
        _, tracer = self._tracer()
        for start in range(0, 60, 20):
            tracer.record_misses(
                np.arange(start, start + 20, dtype=np.uint64) * 64,
                np.linspace(start, start + 1, 20),
            )
        cols = tracer.columnar_trace()
        assert cols.n_samples == 20  # 60 misses / period 3
        assert cols.n_samples == sum(
            1 for e in cols.to_tracefile().sample_events
        )

    def test_emission_order_matches_per_event_trace(self):
        """Sample chunks sit exactly where they were fed between the
        records: the columns equal columnarising the per-event trace
        the same calls describe."""
        from repro.trace.columnar import (
            EVENT_COLUMNS,
            KIND_ALLOC,
            KIND_SAMPLE,
            ColumnarTrace,
        )
        from repro.trace.events import SampleEvent
        from repro.trace.tracefile import TraceFile

        tracer, misses = self._interleaved(record_latency=True)
        period = tracer.config.sampling_period
        rows = TraceFile(
            application="t",
            ranks=1,
            sampling_period=period,
            statics=list(tracer.records.statics),
            metadata=dict(tracer.records.metadata),
        )
        records = iter(tracer.records.events)
        rows.append(next(records))  # the malloc
        countdown = period
        for addrs, times, lats in misses:
            for a, t, c in zip(addrs.tolist(), times.tolist(), lats.tolist()):
                countdown -= 1
                if countdown == 0:
                    countdown = period
                    rows.append(SampleEvent(time=t, rank=0, address=a,
                                            latency_cycles=c))
            nxt = next(records, None)
            if nxt is not None:
                rows.append(nxt)
        expected = ColumnarTrace.from_tracefile(rows)
        got = tracer.columnar_trace()
        # Interleaved, not "records then samples".
        assert got.kinds[0] == KIND_ALLOC and got.kinds[-1] == KIND_SAMPLE
        for name in EVENT_COLUMNS:
            column = getattr(got, name)
            assert column.dtype == getattr(expected, name).dtype, name
            assert np.array_equal(column, getattr(expected, name)), name
        assert got.callstacks == expected.callstacks
        assert got.functions == expected.functions
        assert got.to_tracefile() == rows

    def test_round_trips_through_tracefile(self):
        from repro.trace.columnar import EVENT_COLUMNS, ColumnarTrace

        tracer, _ = self._interleaved(record_latency=True)
        cols = tracer.columnar_trace()
        back = ColumnarTrace.from_tracefile(cols.to_tracefile())
        for name in EVENT_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(cols, name))
        assert back.callstacks == cols.callstacks
        assert back.functions == cols.functions
        assert back.allocators == cols.allocators
        assert back.metadata == cols.metadata
        assert back.static_names == cols.static_names

    def test_attribution_equivalent_to_oracle(self):
        """The vector kernel on the tracer's columns and the per-event
        oracle on their row export attribute identically."""
        from repro.analysis.attribution import attribute_samples
        from repro.analysis.vectorattr import attribute_samples_vector

        tracer, _ = self._interleaved(record_latency=True)
        cols = tracer.columnar_trace()
        assert attribute_samples_vector(cols) == (
            attribute_samples(cols.to_tracefile())
        )

    def test_no_samples_returns_base_records(self):
        process, tracer = self._tracer()
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        cols = tracer.columnar_trace()
        assert cols.n_samples == 0
        assert cols.n_allocs == 1
        assert cols.to_tracefile() == tracer.records

    def test_overhead_still_accounted(self):
        _, tracer = self._tracer()
        tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                             np.linspace(0, 1, 30))
        assert tracer.overhead_seconds > 0


class TestMetadata:
    def test_statics_and_stack_exported(self):
        process = _process()
        process.register_static("grid", 4096)
        tracer = Tracer(application="t")
        tracer.attach(process)
        assert tracer.records.statics[0].name == "grid"
        base, size = tracer.records.metadata["stack_region"]
        assert size > 0
        assert base == process.stack_region.base


class TestOverhead:
    def test_overhead_accumulates(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        tracer.record_misses(np.arange(30, dtype=np.uint64),
                             np.linspace(0, 1, 30))
        assert tracer.overhead_seconds > 0

    def test_monitoring_overhead_fraction(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        frac = tracer.monitoring_overhead(base_runtime=100.0)
        assert 0 < frac < 0.01

    def test_bad_runtime_rejected(self, traced):
        _, tracer = traced
        with pytest.raises(ValueError):
            tracer.monitoring_overhead(0.0)

"""Columnar trace: round-trips, binary persistence, salvage."""

from __future__ import annotations

import io
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.runtime.callstack import CallStack, Frame
from repro.trace.columnar import (
    KIND_SAMPLE,
    NO_LATENCY,
    ColumnarTrace,
    is_columnar_trace,
    load_any_trace,
)
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile


def _cs(name: str, module: str = "app") -> CallStack:
    return CallStack(frames=(Frame(module, name, "app.c", 1),))


def _trace() -> TraceFile:
    trace = TraceFile(application="demo", ranks=2, sampling_period=7)
    trace.metadata["stack_region"] = [0x7000, 0x1000]
    trace.statics.append(
        StaticVarRecord(name="tbl", rank=0, address=0x900, size=32)
    )
    trace.append(
        AllocEvent(0.1, 0, 0x1000, 64, _cs("a"), allocator="memkind")
    )
    trace.append(PhaseEvent(0.15, 1, "loop"))
    trace.append(SampleEvent(0.2, 0, 0x1010))
    trace.append(SampleEvent(0.25, 1, 0x1020, latency_cycles=0))
    trace.append(SampleEvent(0.26, 1, 0x1030, latency_cycles=321))
    trace.append(FreeEvent(0.3, 0, 0x1000))
    return trace


def _corrupt_member(path: Path, member: str) -> None:
    """Flip the last payload byte of one npz member in place."""
    with zipfile.ZipFile(path) as src:
        entries = {info.filename: src.read(info.filename)
                   for info in src.infolist()}
    name = f"{member}.npy"
    data = entries[name]
    entries[name] = data[:-1] + bytes([data[-1] ^ 0xFF])
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as dst:
        for entry, payload in entries.items():
            dst.writestr(entry, payload)
    path.write_bytes(buf.getvalue())


def _drop_member(path: Path, member: str) -> None:
    with zipfile.ZipFile(path) as src:
        entries = {info.filename: src.read(info.filename)
                   for info in src.infolist()}
    del entries[f"{member}.npy"]
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as dst:
        for entry, payload in entries.items():
            dst.writestr(entry, payload)
    path.write_bytes(buf.getvalue())


class TestRoundTrip:
    def test_lossless_both_ways(self):
        trace = _trace()
        clone = ColumnarTrace.from_tracefile(trace).to_tracefile()
        assert clone == trace

    def test_latency_preserved_including_zero(self):
        trace = _trace()
        clone = ColumnarTrace.from_tracefile(trace).to_tracefile()
        lats = [e.latency_cycles for e in clone.sample_events]
        assert lats == [None, 0, 321]

    def test_callstacks_interned_across_allocs(self):
        trace = TraceFile()
        for i in range(5):
            trace.append(AllocEvent(float(i), 0, 0x1000 * (i + 1), 64, _cs("a")))
        cols = ColumnarTrace.from_tracefile(trace)
        assert len(cols.callstacks) == 1
        assert cols.aux.tolist() == [0] * 5

    def test_shape_properties(self):
        cols = ColumnarTrace.from_tracefile(_trace())
        assert cols.n_events == 6
        assert cols.n_samples == 3
        assert cols.n_allocs == 1
        assert cols.n_statics == 1
        assert cols.duration == pytest.approx(0.3)

    def test_empty_trace(self):
        cols = ColumnarTrace.from_tracefile(TraceFile())
        assert cols.n_events == 0
        assert cols.to_tracefile() == TraceFile()


class TestSelect:
    def test_select_keeps_side_tables(self):
        cols = ColumnarTrace.from_tracefile(_trace())
        samples_only = cols.select(cols.kinds == KIND_SAMPLE)
        assert samples_only.n_events == 3
        assert samples_only.callstacks == cols.callstacks
        assert samples_only.n_statics == 1
        assert samples_only.metadata == cols.metadata


class TestPersistence:
    def test_disk_round_trip(self, tmp_path):
        trace = _trace()
        path = tmp_path / "run.npz"
        cols = ColumnarTrace.from_tracefile(trace)
        cols.save(path)
        assert ColumnarTrace.load(path).to_tracefile() == trace

    def test_format_sniffing(self, tmp_path):
        trace = _trace()
        jsonl, npz = tmp_path / "t.jsonl", tmp_path / "t.npz"
        trace.save(jsonl)
        ColumnarTrace.from_tracefile(trace).save(npz)
        assert not is_columnar_trace(jsonl)
        assert is_columnar_trace(npz)
        assert isinstance(load_any_trace(jsonl), TraceFile)
        loaded = load_any_trace(npz)
        assert isinstance(loaded, ColumnarTrace)
        assert loaded.to_tracefile() == trace

    def test_sniffing_missing_file(self, tmp_path):
        assert not is_columnar_trace(tmp_path / "nope")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"PK\x03\x04 this is not a real archive")
        with pytest.raises(TraceError, match="unreadable"):
            ColumnarTrace.load(path)


class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "run.npz"
        ColumnarTrace.from_tracefile(_trace()).save(path)
        return path

    def test_strict_rejects_corrupt_core_column(self, saved):
        _corrupt_member(saved, "addresses")
        with pytest.raises(TraceError, match="checksum mismatch"):
            ColumnarTrace.load(saved)

    def test_strict_rejects_missing_member(self, saved):
        _drop_member(saved, "times")
        with pytest.raises(TraceError, match="member missing"):
            ColumnarTrace.load(saved)

    def test_salvage_core_damage_drops_events_keeps_statics(self, saved):
        _corrupt_member(saved, "addresses")
        trace = ColumnarTrace.load(saved, salvage=True)
        assert trace.n_events == 0
        assert trace.n_statics == 1
        assert trace.metadata == {"stack_region": [0x7000, 0x1000]}
        assert trace.salvage is not None and not trace.salvage.clean
        assert trace.salvage.lost_records == 6

    def test_salvage_latency_damage_keeps_samples(self, saved):
        _corrupt_member(saved, "latencies")
        trace = ColumnarTrace.load(saved, salvage=True)
        assert trace.n_events == 6
        assert np.all(trace.latencies == NO_LATENCY)
        assert trace.salvage.lost_records == 0
        assert trace.salvage.damaged_lines == 1

    def test_salvage_static_damage_keeps_events(self, saved):
        _corrupt_member(saved, "static_sizes")
        trace = ColumnarTrace.load(saved, salvage=True)
        assert trace.n_events == 6
        assert trace.n_statics == 0
        assert trace.salvage.lost_records == 1

    def test_header_damage_fatal_even_in_salvage(self, saved):
        _corrupt_member(saved, "header")
        with pytest.raises(TraceError, match="header"):
            ColumnarTrace.load(saved, salvage=True)

    def test_manifest_damage_fatal_even_in_salvage(self, saved):
        _drop_member(saved, "manifest")
        with pytest.raises(TraceError, match="manifest"):
            ColumnarTrace.load(saved, salvage=True)

    def test_clean_salvage_load_reports_clean(self, saved):
        trace = ColumnarTrace.load(saved, salvage=True)
        assert trace.salvage is not None and trace.salvage.clean


# ---------------------------------------------------------------------------
# Property: JSONL <-> columnar round trip
# ---------------------------------------------------------------------------

_SITES = tuple(_cs(f"s{i}", module=f"m{i % 2}") for i in range(3))


@st.composite
def row_traces(draw) -> TraceFile:
    """Arbitrary (not necessarily allocation-consistent) traces: the
    round trip must preserve *records*, whatever they say."""
    events = []
    for _ in range(draw(st.integers(0, 25))):
        t = float(draw(st.integers(0, 10)))
        rank = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["alloc", "free", "sample", "phase"]))
        if kind == "alloc":
            events.append(
                AllocEvent(
                    t, rank,
                    draw(st.integers(0, 2**40)),
                    draw(st.integers(1, 2**30)),
                    draw(st.sampled_from(_SITES)),
                    allocator=draw(st.sampled_from(["posix", "memkind"])),
                )
            )
        elif kind == "free":
            events.append(FreeEvent(t, rank, draw(st.integers(0, 2**40))))
        elif kind == "sample":
            # latency >= 0: a real latency equal to the NO_LATENCY
            # sentinel is indistinguishable from "absent" in columnar
            # form, and PMU latencies are never negative.
            events.append(
                SampleEvent(
                    t, rank,
                    draw(st.integers(0, 2**40)),
                    draw(st.one_of(st.none(), st.integers(0, 5000))),
                )
            )
        else:
            events.append(
                PhaseEvent(t, rank, draw(st.sampled_from(["f", "g", "h"])))
            )
    statics = [
        StaticVarRecord(f"g{i}", 0, 0x9000 + 0x100 * i, draw(st.integers(1, 64)))
        for i in range(draw(st.integers(0, 3)))
    ]
    metadata = draw(
        st.one_of(
            st.just({}),
            st.just({"stack_region": [0x7000, 0x1000]}),
        )
    )
    return TraceFile(
        application=draw(st.sampled_from(["", "app"])),
        ranks=draw(st.integers(1, 3)),
        sampling_period=draw(st.integers(1, 100)),
        events=events,
        statics=statics,
        metadata=metadata,
    )


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(trace=row_traces())
    def test_jsonl_columnar_round_trip(self, trace):
        """JSONL -> columnar -> JSONL preserves every record."""
        clone = ColumnarTrace.from_tracefile(trace).to_tracefile()
        assert clone == trace

    @settings(max_examples=25, deadline=None)
    @given(trace=row_traces())
    def test_binary_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("npz") / "t.npz"
        ColumnarTrace.from_tracefile(trace).save(path)
        assert ColumnarTrace.load(path).to_tracefile() == trace

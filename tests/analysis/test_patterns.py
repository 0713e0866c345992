"""Access-pattern classification (the Folding Section V sketch)."""

import pytest

from repro.analysis.objects import ObjectKey
from repro.analysis.patterns import (
    MIN_SAMPLES,
    PatternClass,
    classify_access_patterns,
)
from repro.runtime.callstack import CallStack, Frame
from repro.trace.events import AllocEvent, SampleEvent
from repro.trace.tracefile import TraceFile


def _cs(name):
    return CallStack(frames=(Frame("app", name, "app.c", 1),))


def _trace_with_samples(base, addresses):
    trace = TraceFile(application="t")
    trace.append(AllocEvent(0.0, 0, base, 1 << 20, _cs("site")))
    for i, a in enumerate(addresses):
        trace.append(SampleEvent(1.0 + i * 0.01, 0, a))
    return trace


class TestClassification:
    def test_stream_is_regular(self):
        base = 0x100000
        addrs = [base + i * 256 for i in range(40)]
        verdicts = classify_access_patterns(_trace_with_samples(base, addrs))
        verdict = verdicts[ObjectKey.dynamic(_cs("site"))]
        assert verdict.pattern is PatternClass.REGULAR
        assert verdict.direction_coherence == 1.0
        assert verdict.stride_dispersion == pytest.approx(0.0)
        assert "bandwidth" in verdict.placement_hint

    def test_backward_stream_is_regular(self):
        base = 0x100000
        addrs = [base + (40 - i) * 128 for i in range(40)]
        verdicts = classify_access_patterns(_trace_with_samples(base, addrs))
        verdict = verdicts[ObjectKey.dynamic(_cs("site"))]
        assert verdict.pattern is PatternClass.REGULAR

    def test_random_is_irregular(self):
        import random

        rng = random.Random(7)
        base = 0x100000
        addrs = [base + rng.randrange(0, 1 << 20, 64) for _ in range(60)]
        verdicts = classify_access_patterns(_trace_with_samples(base, addrs))
        verdict = verdicts[ObjectKey.dynamic(_cs("site"))]
        assert verdict.pattern is PatternClass.IRREGULAR
        assert "latency" in verdict.placement_hint

    def test_few_samples_is_unknown(self):
        base = 0x100000
        addrs = [base + i * 64 for i in range(MIN_SAMPLES - 1)]
        verdicts = classify_access_patterns(_trace_with_samples(base, addrs))
        verdict = verdicts[ObjectKey.dynamic(_cs("site"))]
        assert verdict.pattern is PatternClass.UNKNOWN
        assert verdict.placement_hint == "insufficient samples"

    def test_repeated_address_is_regular(self):
        base = 0x100000
        addrs = [base] * 30
        verdicts = classify_access_patterns(_trace_with_samples(base, addrs))
        assert (
            verdicts[ObjectKey.dynamic(_cs("site"))].pattern
            is PatternClass.REGULAR
        )


class TestOnRealTraces:
    def test_tinyapp_objects_classified_by_their_patterns(
        self, tiny_profiling
    ):
        verdicts = classify_access_patterns(tiny_profiling.trace.to_tracefile())
        by_label = {k.label.split("@")[0]: v for k, v in verdicts.items()}
        # big_matrix is a declared sequential stream.
        assert by_label["alloc_matrix"].pattern is PatternClass.REGULAR
        # hot_vector is a declared random gather.
        assert by_label["setup"].pattern is PatternClass.IRREGULAR

    def test_all_sampled_objects_get_verdicts(self, tiny_profiling):
        verdicts = classify_access_patterns(tiny_profiling.trace.to_tracefile())
        assert len(verdicts) >= 3
        for verdict in verdicts.values():
            assert verdict.samples > 0

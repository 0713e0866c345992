"""SimProcess: the libc-like surface everything hooks."""

from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, InvalidFreeError, SymbolError
from repro.runtime.allocator import Allocation
from repro.runtime.callstack import RawCallStack
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.units import MIB


def _modules():
    return [
        ModuleImage(
            name="app",
            size=400,
            functions=[
                FunctionSymbol("main", offset=0, size=64, file="app.c"),
                FunctionSymbol("setup", offset=96, size=64, file="app.c"),
                FunctionSymbol("kernel", offset=192, size=64, file="app.c"),
            ],
        )
    ]


@pytest.fixture()
def process():
    return SimProcess(modules=_modules(), seed=1, heap_size=64 * MIB,
                      hbw_size=16 * MIB, hbw_capacity=8 * MIB)


class TestCallContext:
    def test_backtrace_requires_context(self, process):
        with pytest.raises(AllocationError):
            process.backtrace()

    def test_backtrace_leaf_first(self, process):
        with process.in_function("app", "main", 1):
            with process.in_function("app", "setup", 5):
                raw = process.backtrace()
        assert len(raw) == 2
        frames = process.symbols.translate(raw)
        assert [f.function for f in frames] == ["setup", "main"]

    def test_at_line_moves_leaf(self, process):
        with process.in_function("app", "main", 1):
            process.at_line(2)
            raw = process.backtrace()
        assert process.symbols.translate(raw).leaf.line == 2

    def test_at_line_without_frame(self, process):
        with pytest.raises(AllocationError):
            process.at_line(3)

    def test_depth_tracks_nesting(self, process):
        assert process.call_depth == 0
        with process.in_function("app", "main"):
            assert process.call_depth == 1
        assert process.call_depth == 0


def _address_of_each_frame(process, frames):
    """Reference backtrace: one ``address_of`` per frame, leaf first."""
    return tuple(
        process.symbols.address_of("app", fn, line)
        for fn, line in reversed(frames)
    )


_FRAMES = st.lists(
    st.tuples(st.sampled_from(["main", "setup", "kernel"]), st.integers(1, 64)),
    min_size=1,
    max_size=6,
)


class TestMemoisedBacktrace:
    @given(
        frames=_FRAMES,
        split=st.integers(0, 6),
        moves=st.lists(st.integers(1, 64), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_address_of_per_frame(self, frames, split, moves):
        """Nested ``in_function`` frames, then the rest as one
        whole-context entry, then ``at_line`` moves: every backtrace
        equals the per-frame translation, and leaving restores the
        enclosing context."""
        process = SimProcess(modules=_modules(), seed=3, heap_size=64 * MIB)
        head, tail = frames[:split], frames[split:]
        shadow = []
        with ExitStack() as stack:
            for fn, line in head:
                stack.enter_context(process.in_function("app", fn, line))
                shadow.append((fn, line))
                assert process.backtrace().addresses == (
                    _address_of_each_frame(process, shadow)
                )
            outer = list(shadow)
            if tail:
                with process.in_context(
                    tuple(("app", fn, line) for fn, line in tail)
                ):
                    shadow += tail
                    assert process.backtrace().addresses == (
                        _address_of_each_frame(process, shadow)
                    )
                    for line in moves:
                        process.at_line(line)
                        shadow[-1] = (shadow[-1][0], line)
                        assert process.backtrace().addresses == (
                            _address_of_each_frame(process, shadow)
                        )
                    assert process.call_depth == len(frames)
                if outer:
                    assert process.backtrace().addresses == (
                        _address_of_each_frame(process, outer)
                    )
        assert process.call_depth == 0

    def test_same_context_same_stack_object(self, process):
        context = (("app", "main", 1), ("app", "setup", 5))
        with process.in_context(context):
            first = process.backtrace()
        with process.in_function("app", "main", 1):
            with process.in_function("app", "setup", 5):
                assert process.backtrace() is first

    def test_unknown_function_raises_on_every_entry(self, process):
        for _ in range(3):
            with pytest.raises(SymbolError):
                with process.in_function("app", "nope", 1):
                    pass
            with pytest.raises(SymbolError):
                with process.in_context(
                    (("app", "main", 1), ("app", "nope", 1))
                ):
                    pass
            with pytest.raises(SymbolError):
                with process.in_function("libnope", "main", 1):
                    pass
            assert process.call_depth == 0

    def test_bad_line_leaves_context_unchanged(self, process):
        with process.in_function("app", "main", 1):
            before = process.backtrace()
            with pytest.raises(SymbolError):
                process.at_line(10_000)
            assert process.backtrace() is before


class TestAllocationSurface:
    def test_malloc_free_roundtrip(self, process):
        with process.in_function("app", "main", 1):
            address = process.malloc(1000)
        assert process.posix.owns(address)
        process.free(address)
        assert not process.posix.owns(address)

    def test_free_unknown_rejected(self, process):
        with pytest.raises(InvalidFreeError):
            process.free(0xBAD)

    def test_realloc(self, process):
        with process.in_function("app", "main", 1):
            a = process.malloc(100)
            b = process.realloc(a, 5000)
        assert process.posix.owns(b)

    def test_posix_memalign(self, process):
        with process.in_function("app", "main", 1):
            address = process.posix_memalign(4096, 100)
        assert address % 4096 == 0
        process.free(address)

    def test_callstack_recorded_on_allocation(self, process):
        with process.in_function("app", "setup", 7):
            address = process.malloc(64)
        alloc = process.posix.live.lookup_base(address)
        translated = process.symbols.translate(alloc.callstack)
        assert translated.leaf.function == "setup"


class TestHooks:
    class _CountingHook:
        def __init__(self, process):
            self.process = process
            self.calls = 0

        def malloc(self, size: int, callstack: RawCallStack) -> Allocation:
            self.calls += 1
            return self.process.posix.malloc(size, callstack)

        def free(self, address: int) -> Allocation:
            return self.process.posix.free(address)

        def realloc(self, address, new_size, callstack):
            self.free(address)
            return self.malloc(new_size, callstack)

    def test_hook_sees_allocations(self, process):
        hook = self._CountingHook(process)
        process.install_malloc_hook(hook)
        with process.in_function("app", "main", 1):
            address = process.malloc(128)
        assert hook.calls == 1
        process.free(address)

    def test_single_hook_only(self, process):
        hook = self._CountingHook(process)
        process.install_malloc_hook(hook)
        with pytest.raises(AllocationError):
            process.install_malloc_hook(hook)

    def test_remove_hook(self, process):
        hook = self._CountingHook(process)
        process.install_malloc_hook(hook)
        process.remove_malloc_hook()
        with process.in_function("app", "main", 1):
            process.malloc(64)
        assert hook.calls == 0


class TestObservers:
    class _Recorder:
        def __init__(self):
            self.events = []

        def on_malloc(self, alloc, clock):
            self.events.append(("malloc", alloc.size, clock))

        def on_free(self, alloc, clock):
            self.events.append(("free", alloc.size, clock))

    def test_observer_notified_with_clock(self, process):
        rec = self._Recorder()
        process.add_observer(rec)
        process.advance(1.5)
        with process.in_function("app", "main", 1):
            address = process.malloc(256)
        process.advance(1.0)
        process.free(address)
        assert rec.events == [("malloc", 256, 1.5), ("free", 256, 2.5)]


class TestStatics:
    def test_register_and_lookup(self, process):
        region = process.register_static("table", 4096)
        assert process.static_var("table") == region
        assert process.static_region.contains(region.base)

    def test_duplicate_rejected(self, process):
        process.register_static("x", 100)
        with pytest.raises(AllocationError):
            process.register_static("x", 100)

    def test_statics_distinct(self, process):
        a = process.register_static("a", 100)
        b = process.register_static("b", 100)
        assert a.base != b.base


class TestClock:
    def test_advance(self, process):
        process.advance(2.0)
        assert process.clock == 2.0

    def test_backwards_rejected(self, process):
        with pytest.raises(ValueError):
            process.advance(-1.0)


class TestASLR:
    def test_module_bases_differ_across_seeds(self):
        bases = {
            SimProcess(modules=_modules(), seed=s,
                       heap_size=MIB, hbw_size=MIB).symbols.module_base("app")
            for s in range(4)
        }
        assert len(bases) > 1

"""The simulated process: where applications, tracer and interposer meet.

A :class:`SimProcess` owns a virtual address space with ASLR-mapped
module images, a static-data segment, a stack, a DDR heap arena (the
posix allocator) and an MCDRAM arena (the memkind allocator). It
exposes the libc-like surface the paper's components hook:

* applications call :meth:`malloc` / :meth:`free` / :meth:`realloc` /
  :meth:`posix_memalign` while maintaining their call context with
  :meth:`in_function` (one frame) or :meth:`in_context` (a whole
  precomputed context);
* ``LD_PRELOAD``-style interposition is modelled by
  :meth:`install_malloc_hook` — the hook (tracer-wrapped
  auto-hbwmalloc, the autohbw baseline, ...) sees every allocation
  with its raw ``backtrace()`` call-stack and decides which allocator
  serves it;
* observers (the Extrae-like tracer) get notified of every
  allocation/deallocation with the virtual timestamp.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.errors import AllocationError, InvalidFreeError
from repro.runtime.address_space import Region, VirtualAddressSpace
from repro.runtime.allocator import Allocation, PosixAllocator
from repro.runtime.callstack import RawCallStack
from repro.runtime.memkind import MemkindAllocator
from repro.runtime.symbols import ModuleImage, SymbolTable
from repro.units import GIB, MIB


class MallocHook(Protocol):
    """The surface an interposition library implements.

    ``memalign`` is optional — hooks without it see aligned requests
    as plain ``malloc`` calls with the padded size (alignment is a
    property of the serving allocator, not of the placement decision).
    """

    def malloc(self, size: int, callstack: RawCallStack) -> Allocation: ...

    def free(self, address: int) -> Allocation: ...

    def realloc(
        self, address: int, new_size: int, callstack: RawCallStack
    ) -> Allocation: ...


class AllocObserver(Protocol):
    """Passive observer of allocation events (the tracer)."""

    def on_malloc(self, alloc: Allocation, clock: float) -> None: ...

    def on_free(self, alloc: Allocation, clock: float) -> None: ...


#: A call context: ``(module, function, line)`` frames, root first.
Context = tuple[tuple[str, str, int], ...]


class SimProcess:
    """One simulated process of a (possibly MPI) job."""

    def __init__(
        self,
        modules: list[ModuleImage],
        rank: int = 0,
        seed: int = 0,
        static_segment_size: int = 64 * MIB,
        stack_size: int = 8 * MIB,
        heap_size: int = 8 * GIB,
        hbw_size: int = 16 * GIB,
        hbw_capacity: int | None = None,
    ) -> None:
        self.rank = rank
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, rank]))
        self.vspace = VirtualAddressSpace(rng=self.rng)
        self.symbols = SymbolTable(rng=self.rng)

        for image in modules:
            region = self.vspace.carve_randomized(f"text:{image.name}", image.size)
            self.symbols.map_module(image, region.base)

        self.static_region = self.vspace.carve("static", static_segment_size)
        self._static_brk = self.static_region.base
        self._statics: dict[str, Region] = {}

        self.stack_region = self.vspace.carve_at(
            "stack", (self.vspace.SPAN - stack_size) & ~0xFFF, stack_size
        )

        heap_region = self.vspace.carve("heap:posix", heap_size)
        hbw_region = self.vspace.carve("heap:hbw", hbw_size)
        self.posix = PosixAllocator(heap_region)
        self.memkind = MemkindAllocator(hbw_region, capacity=hbw_capacity)

        #: The current call context and the memoised ``backtrace()`` of
        #: every context entered so far. Modules are mapped once above
        #: and never remapped, so a context's raw addresses are fixed
        #: for the life of the process.
        self._context: Context = ()
        self._backtraces: dict[Context, RawCallStack] = {}
        self._hook: MallocHook | None = None
        self._observers: list[AllocObserver] = []
        #: address -> serving allocator (default-path bookkeeping only;
        #: hooks keep their own, as the paper's library does).
        self._route: dict[int, PosixAllocator] = {}
        self.clock = 0.0

    # -- call context ------------------------------------------------------

    @contextmanager
    def in_function(
        self, module: str, function: str, line: int | None = None
    ) -> Iterator[None]:
        """Enter ``function``; the call site line defaults to the symbol
        start so every inventory does not need explicit lines."""
        if line is None:
            line = self.symbols.module(module).function(function).start_line
        with self.in_context(((module, function, line),)):
            yield

    @contextmanager
    def in_context(self, frames: Context) -> Iterator[None]:
        """Enter a whole call context (``frames``, root first) in one
        step on top of the current one.

        A context seen for the first time is resolved against the
        symbol table before it is memoised, so an unknown module,
        function or line raises :class:`SymbolError` on every entry.
        """
        previous = self._context
        self._enter(previous + frames)
        try:
            yield
        finally:
            self._context = previous

    def at_line(self, line: int) -> None:
        """Move the leaf frame to another source line (distinct call site)."""
        if not self._context:
            raise AllocationError("no active frame")
        module, function, _ = self._context[-1]
        self._enter(self._context[:-1] + ((module, function, line),))

    def _enter(self, context: Context) -> None:
        if context not in self._backtraces:
            self._backtraces[context] = RawCallStack(
                addresses=tuple(
                    self.symbols.address_of(module, function, line)
                    for module, function, line in reversed(context)
                )
            )
        self._context = context

    def backtrace(self) -> RawCallStack:
        """glibc ``backtrace()``: runtime addresses, leaf first."""
        if not self._context:
            raise AllocationError("backtrace with an empty call context")
        return self._backtraces[self._context]

    @property
    def call_depth(self) -> int:
        return len(self._context)

    # -- interposition -----------------------------------------------------

    def install_malloc_hook(self, hook: MallocHook) -> None:
        if self._hook is not None:
            raise AllocationError("a malloc hook is already installed")
        self._hook = hook

    def remove_malloc_hook(self) -> None:
        self._hook = None

    def add_observer(self, observer: AllocObserver) -> None:
        self._observers.append(observer)

    # -- statics -----------------------------------------------------------

    def register_static(self, name: str, size: int) -> Region:
        """Place a named static variable in the data segment."""
        if name in self._statics:
            raise AllocationError(f"static variable {name!r} already registered")
        if self._static_brk + size > self.static_region.end:
            raise AllocationError("static segment exhausted")
        region = Region(name=f"static:{name}", base=self._static_brk, size=size)
        self._static_brk += (size + 15) & ~15
        self._statics[name] = region
        return region

    def static_var(self, name: str) -> Region:
        return self._statics[name]

    @property
    def statics(self) -> dict[str, Region]:
        return dict(self._statics)

    # -- allocation surface --------------------------------------------------

    def malloc(self, size: int) -> int:
        """The application-facing ``malloc``. Returns the address."""
        return self.malloc_record(size).address

    def malloc_record(self, size: int) -> Allocation:
        """``malloc`` returning the whole allocation record, so callers
        learn the serving allocator without probing the heaps."""
        callstack = self.backtrace()
        if self._hook is not None:
            alloc = self._hook.malloc(size, callstack)
        else:
            alloc = self.posix.malloc(size, callstack)
            self._route[alloc.address] = self.posix
        for obs in self._observers:
            obs.on_malloc(alloc, self.clock)
        return alloc

    def free(self, address: int) -> None:
        if self._hook is not None:
            alloc = self._hook.free(address)
        else:
            allocator = self._route.pop(address, None)
            if allocator is None:
                raise InvalidFreeError(f"free of unknown pointer {address:#x}")
            alloc = allocator.free(address)
        for obs in self._observers:
            obs.on_free(alloc, self.clock)

    def realloc(self, address: int, new_size: int) -> int:
        callstack = self.backtrace()
        if self._hook is not None:
            old = self._lookup_live(address)
            new_alloc = self._hook.realloc(address, new_size, callstack)
        else:
            allocator = self._route.pop(address, None)
            if allocator is None:
                raise InvalidFreeError(f"realloc of unknown pointer {address:#x}")
            old = allocator.live.lookup_base(address)
            new_alloc = allocator.realloc(address, new_size, callstack)
            self._route[new_alloc.address] = allocator
        for obs in self._observers:
            if old is not None:
                obs.on_free(old, self.clock)
            obs.on_malloc(new_alloc, self.clock)
        return new_alloc.address

    def posix_memalign(self, alignment: int, size: int) -> int:
        """Aligned allocation; interposed like ``malloc`` (the paper's
        library wraps ``posix_memalign`` alongside the rest)."""
        callstack = self.backtrace()
        if self._hook is not None:
            memalign = getattr(self._hook, "memalign", None)
            if memalign is not None:
                alloc = memalign(alignment, size, callstack)
            else:
                alloc = self._hook.malloc(size + alignment - 16, callstack)
        else:
            alloc = self.posix.posix_memalign(alignment, size, callstack)
            self._route[alloc.address] = self.posix
        for obs in self._observers:
            obs.on_malloc(alloc, self.clock)
        return alloc.address

    # -- OpenMP (kmp_*) allocation surface ------------------------------
    #
    # The paper's library wraps kmp_malloc, kmp_aligned_malloc,
    # kmp_free and kmp_realloc alongside the libc calls (Section III,
    # Step 4 footnote). The Intel OpenMP allocator ultimately draws
    # from the same heaps, so the simulated kmp_* surface routes
    # through the identical hook path — which is exactly what makes
    # OpenMP ``private``-construct allocations visible to the
    # framework ("allocations ... captured by the tools used in our
    # proposed framework", Section IV-D).

    def kmp_malloc(self, size: int) -> int:
        """OpenMP runtime allocation; interposed like ``malloc``."""
        return self.malloc(size)

    def kmp_aligned_malloc(self, alignment: int, size: int) -> int:
        """Aligned OpenMP allocation. The alignment is guaranteed by
        over-allocating in the serving allocator; interposition-wise it
        behaves like ``malloc`` (the hook decides the tier)."""
        if alignment <= 16:
            return self.malloc(size)
        # Round the request so any 16-byte-aligned base can be aligned
        # up inside it by the caller; the simulated world only tracks
        # the base, so size padding is the observable effect.
        return self.malloc(size + alignment - 16)

    def kmp_free(self, address: int) -> None:
        """OpenMP runtime free; interposed like ``free``."""
        self.free(address)

    def kmp_realloc(self, address: int, new_size: int) -> int:
        """OpenMP runtime realloc; interposed like ``realloc``."""
        return self.realloc(address, new_size)

    def _lookup_live(self, address: int) -> Allocation | None:
        for allocator in (self.posix, self.memkind):
            alloc = allocator.live.lookup_base(address)
            if alloc is not None:
                return alloc
        return None

    # -- time ----------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards: {seconds}")
        self.clock += seconds

"""Application model base: inventories, streams, profiling, replay.

A :class:`SimApplication` describes one workload the way the paper's
framework perceives it:

* an **inventory** of allocation sites (:class:`ObjectSpec`) — the
  call-stack, per-instance size, instance count, lifetime (init-time
  persistent vs per-iteration churn scoped to a phase), static/dynamic
  kind, the share of LLC misses the object receives and the spatial
  access pattern of those misses;
* a **phase timeline** (:class:`PhaseSpec`) — which function is
  executing when, and which objects it touches (drives Figure 5);
* **calibration constants** (:class:`AppCalibration`) — the paper's
  DDR-run Figure of Merit, runtime and memory-boundedness, which
  anchor the execution model's absolute scale (the simulation provides
  the *relative* per-object structure).

All byte sizes in the inventory are *real* (paper-scale) values; the
simulation runs in a world scaled down by :attr:`SimApplication.scale`
so streams stay laptop-sized while capacity *ratios* (object/budget,
footprint/MCDRAM) are preserved. Instance counts, call-stacks and
time stamps are unscaled.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from repro.errors import WorkloadError
from repro.runtime.allocator import Allocation
from repro.runtime.process import Context, SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.columnar import ColumnarTrace
from repro.trace.tracer import Tracer, TracerConfig
from repro.units import CACHE_LINE, GIB, MIB


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """Spatial shape of one object's LLC misses.

    ``kind``:
      * ``"sequential"`` — a strided walk over the hot span, identical
        every iteration (streaming arrays; cache-mode friendly when the
        hot span fits);
      * ``"random"`` — a fixed random touch set over the hot span
        (sparse/indirect access; conflict-prone in a direct-mapped
        cache).

    ``hot_fraction`` is the part of the object actually touched each
    iteration (hot working set).
    """

    kind: str = "sequential"
    hot_fraction: float = 1.0
    #: Times each hot line is re-referenced per iteration; drives the
    #: analytic MCDRAM-cache-mode hit model (fine-grained reuse means
    #: a line survives in a direct-mapped cache between touches).
    reref_per_iteration: float = 4.0
    #: Mean access cost in cycles of one miss to this object, as a
    #: Xeon-style PEBS PMU would report it. None: derived from the
    #: pattern kind (random gathers pay TLB/row-buffer misses on top
    #: of the raw access).
    mean_latency_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "random"):
            raise WorkloadError(f"unknown access pattern {self.kind!r}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise WorkloadError(
                f"hot fraction must be in (0,1], got {self.hot_fraction}"
            )
        if self.reref_per_iteration <= 0:
            raise WorkloadError("re-reference rate must be positive")
        if self.mean_latency_cycles is not None and self.mean_latency_cycles <= 0:
            raise WorkloadError("latency must be positive")

    @property
    def latency_cycles(self) -> int:
        """Effective per-miss access cost in cycles."""
        if self.mean_latency_cycles is not None:
            return self.mean_latency_cycles
        return 280 if self.kind == "random" else 160


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    """One allocation site (or static variable) of an application."""

    name: str
    #: Call-stack, ROOT first: sequence of (function, line) pairs.
    #: Empty for statics.
    callstack: tuple[tuple[str, int], ...]
    #: Real bytes per allocation instance (paper scale).
    size: int
    #: Allocation instances at init (persistent objects only).
    count: int = 1
    #: Name of the phase this site is allocated in and freed after,
    #: once per iteration (allocation churn à la Lulesh). None for
    #: init-time persistent objects.
    churn_phase: str | None = None
    static: bool = False
    #: Relative share of the application's heap/static LLC misses.
    miss_weight: float = 0.0
    pattern: AccessPattern = AccessPattern()
    #: Phases (by name) whose execution touches this object; empty
    #: means "all phases" for persistent/static objects and "the churn
    #: phase" for churn objects.
    phases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"object {self.name!r}: size must be positive")
        if self.count < 1:
            raise WorkloadError(f"object {self.name!r}: count must be >= 1")
        if self.miss_weight < 0:
            raise WorkloadError(f"object {self.name!r}: negative miss weight")
        if self.static and self.churn_phase is not None:
            raise WorkloadError(f"object {self.name!r}: statics cannot churn")
        if not self.static and not self.callstack:
            raise WorkloadError(f"object {self.name!r}: dynamic needs a stack")

    @property
    def churn(self) -> bool:
        return self.churn_phase is not None

    def touches(self, phase_function: str) -> bool:
        """Is this object accessed while ``phase_function`` executes?"""
        if self.churn:
            touched = self.phases or (self.churn_phase,)
            return phase_function in touched
        return not self.phases or phase_function in self.phases


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """One phase (function) of the iteration body."""

    function: str
    #: Fraction of each iteration's wall time spent here.
    duration_fraction: float
    #: Instructions (relative units) executed per iteration in this
    #: phase — used to derive the MIPS series of Figure 5.
    instruction_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_fraction <= 1.0:
            raise WorkloadError("phase duration fraction must be in (0,1]")


@dataclass(frozen=True, slots=True)
class AppGeometry:
    """Execution geometry (Table I row: "Execution geometry")."""

    ranks: int = 64
    threads_per_rank: int = 4

    @property
    def total_threads(self) -> int:
        return self.ranks * self.threads_per_rank


@dataclass(frozen=True, slots=True)
class AppCalibration:
    """Anchors tying the model to the paper's measured absolute scale."""

    #: Figure of Merit of the all-DDR run (Figure 4's green line).
    fom_ddr: float
    #: Wall-clock of the all-DDR run, seconds.
    ddr_time: float
    #: Fraction of the DDR run spent waiting on main memory.
    memory_bound_fraction: float
    fom_name: str = "FOM"
    fom_units: str = "units/s"

    def __post_init__(self) -> None:
        if self.fom_ddr <= 0 or self.ddr_time <= 0:
            raise WorkloadError("calibration values must be positive")
        if not 0.0 < self.memory_bound_fraction < 1.0:
            raise WorkloadError("memory-bound fraction must be in (0,1)")

    @property
    def work(self) -> float:
        """Total FOM units of work in one run."""
        return self.fom_ddr * self.ddr_time

    @property
    def compute_time(self) -> float:
        return self.ddr_time * (1.0 - self.memory_bound_fraction)


#: Per-miss cost of a stack (spill) access in cycles.
STACK_LATENCY_CYCLES = 200


@dataclass(frozen=True, slots=True)
class WindowTruth:
    """Full miss counts of one ``run_timeline`` window — the unit the
    online evaluator scores placements against."""

    t0: float
    t1: float
    misses_by_site: dict[str, int]

    @property
    def total_misses(self) -> int:
        return sum(self.misses_by_site.values())


@dataclass
class GroundTruth:
    """What the simulated hardware knows (the framework only sees the
    sampled trace)."""

    #: Full LLC-miss counts per site name; stack misses under "<stack>".
    misses_by_site: dict[str, int] = field(default_factory=dict)
    #: Summed access latency (cycles) per site name.
    latency_by_site: dict[str, float] = field(default_factory=dict)
    #: Full miss stream in program order (scaled addresses).
    addresses: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    times: np.ndarray = field(default_factory=lambda: np.zeros(0, float))
    total_misses: int = 0
    #: Per-window miss counts in timeline order (phase-resolved truth).
    windows: list[WindowTruth] = field(default_factory=list)

    def miss_share(self, site: str) -> float:
        if self.total_misses == 0:
            return 0.0
        return self.misses_by_site.get(site, 0) / self.total_misses


@dataclass
class ProfilingRun:
    """Output of the instrumented (step 1) run of one rank.

    ``trace`` is always columnar: the tracer builds it once, samples
    straight from the PMU model's NumPy columns, and every consumer —
    framework, online daemon, cluster simulator, sweep workers, CLI —
    reads those columns. Row-only analyses take
    ``trace.to_tracefile()`` where they need one.
    """

    trace: ColumnarTrace
    ground_truth: GroundTruth
    tracer: Tracer
    process: SimProcess
    #: site name -> ObjectSpec for convenience.
    sites: dict[str, ObjectSpec] = field(default_factory=dict)


@dataclass
class ReplayResult:
    """Outcome of re-running the allocation timeline under a hook."""

    #: site name -> list of serving allocator names, one per instance.
    placements: dict[str, list[str]] = field(default_factory=dict)
    #: Fast-memory high-water mark in *real* (unscaled) bytes.
    hbw_hwm_bytes: int = 0
    #: Interposition + memkind-slow-path seconds (real, per rank).
    alloc_overhead_seconds: float = 0.0
    #: Stats object of the hook, if any.
    hook: object | None = None
    #: site name -> list of promoted *fractions* per instance (page-
    #: granular policies like numactl split objects across tiers).
    promoted_fractions: dict[str, list[float]] = field(default_factory=dict)

    def promoted_fraction(self, site: str, fast_allocator: str) -> float:
        """Average fraction of a site's traffic served by fast memory."""
        if site in self.promoted_fractions:
            fractions = self.promoted_fractions[site]
            return sum(fractions) / len(fractions) if fractions else 0.0
        served = self.placements.get(site, [])
        if not served:
            return 0.0
        return sum(1 for a in served if a == fast_allocator) / len(served)


@dataclass(frozen=True, slots=True)
class _ReplaySite:
    """One dynamic allocation site compiled for the timeline."""

    name: str
    #: Whole call context, root (``main``) first.
    context: Context
    #: Simulated bytes per instance.
    size: int
    count: int


#: Pieces each array is cut into by the round-robin miss-stream merge.
INTERLEAVE_CHUNKS = 8


def round_robin_order(sizes: tuple[int, ...]) -> np.ndarray:
    """Gather index of the deterministic round-robin merge.

    Each of the arrays (lengths ``sizes``, concatenated in order) is
    cut into ``INTERLEAVE_CHUNKS`` contiguous pieces, the first
    ``size % INTERLEAVE_CHUNKS`` of them one element longer; the merge
    takes the pieces chunk by chunk, array by array.
    ``np.concatenate(arrays)[order]`` is that merge, and it keeps every
    array's own order.
    """
    pieces: list[np.ndarray] = []
    offsets = list(accumulate(sizes, initial=0))
    for chunk in range(INTERLEAVE_CHUNKS):
        for offset, size in zip(offsets, sizes):
            q, r = divmod(size, INTERLEAVE_CHUNKS)
            start = offset + chunk * q + min(chunk, r)
            pieces.append(np.arange(start, start + q + (chunk < r)))
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


class WindowStreams:
    """What one profiling run's window miss streams share.

    The touch sets are drawn once per run. Per phase, the objects a
    window touches with their misses per window, and the phase's stack
    misses, are fixed by the inventory. Per window composition (which
    sites contribute how many misses), the round-robin gather index
    and the merged latency column are fixed too. All of it is computed
    on first use and dropped with the run.
    """

    def __init__(
        self,
        app: "SimApplication",
        touch_sets: dict[str, np.ndarray],
        stack_touch: np.ndarray,
    ) -> None:
        self.app = app
        self.touch_sets = touch_sets
        self.stack_touch = stack_touch
        #: Per-miss latency in cycles by site name (stack included).
        self.latency_cycles = {
            o.name: o.pattern.latency_cycles for o in app.objects
        }
        self.latency_cycles["<stack>"] = STACK_LATENCY_CYCLES
        self._per_iteration = app._misses_per_iteration()
        self._phases: dict[
            PhaseSpec, tuple[tuple[tuple[ObjectSpec, int], ...], int]
        ] = {}
        self._merges: dict[
            tuple[tuple[str, int], ...], tuple[np.ndarray, np.ndarray]
        ] = {}

    def phase(
        self, phase: PhaseSpec
    ) -> tuple[tuple[tuple[ObjectSpec, int], ...], int]:
        """``((spec, misses per window), ...)`` over the objects
        ``phase`` touches with a non-zero share, and its stack misses."""
        plan = self._phases.get(phase)
        if plan is None:
            app = self.app
            sites = []
            for spec in app.objects:
                if not spec.touches(phase.function):
                    continue
                n = self._per_iteration[spec.name] // max(
                    app._touching_phase_count(spec), 1
                )
                if n:
                    sites.append((spec, n))
            n_stack = int(
                round(
                    app._stack_misses_per_iteration()
                    * app._stack_share_of_phase(phase)
                )
            )
            plan = self._phases[phase] = (tuple(sites), n_stack)
        return plan

    def merge(self, counts: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
        """Gather index and merged (read-only) latency column of a
        window whose arrays hold ``counts`` misses, in order."""
        key = tuple(counts.items())
        merged = self._merges.get(key)
        if merged is None:
            sizes = tuple(counts.values())
            order = round_robin_order(sizes)
            latencies = np.repeat(
                np.array(
                    [self.latency_cycles[site] for site in counts],
                    dtype=np.int64,
                ),
                sizes,
            )[order]
            latencies.setflags(write=False)
            merged = self._merges[key] = (order, latencies)
        return merged


class SimApplication:
    """Base class: subclasses fill the class attributes below."""

    #: Short identifier, e.g. ``"hpcg"``.
    name: str = "app"
    #: Pretty name for tables, e.g. ``"HPCG 3.0mod"``.
    title: str = "Application"
    language: str = "C++"
    parallelism: str = "MPI+OpenMP"
    problem_size: str = ""
    #: Table I "Lines of code".
    lines_of_code: int = 0
    #: Table I "Allocation statements", m/r/f/n/d/a/D format.
    allocation_statements: str = ""
    #: Table I "Number of allocations/process/second" (includes small
    #: untracked allocations the simulation does not replay).
    allocs_per_second_declared: float = 0.0
    geometry: AppGeometry = AppGeometry()
    calibration: AppCalibration = AppCalibration(
        fom_ddr=1.0, ddr_time=100.0, memory_bound_fraction=0.5
    )
    #: World scale: simulated bytes per real byte.
    scale: float = 1.0 / 64.0
    #: Iterations of the simulated main loop.
    n_iterations: int = 10
    #: Total LLC misses to synthesise over the run (full stream; the
    #: PEBS sampler sees 1/period of them).
    stream_misses: int = 50_000
    #: PEBS sampling period for this workload, chosen so the sampled
    #: count matches Table I's "Number of samples/process" (the paper
    #: uses 37,589 on hardware against billions of misses).
    sampling_period: int = 7
    #: Share of all LLC misses hitting the stack (register spills,
    #: automatic arrays) — traffic only numactl/cache-mode can serve
    #: from fast memory.
    stack_miss_fraction: float = 0.02
    #: Phases whose execution produces the stack misses; empty means
    #: "all phases, weighted by duration". SNAP concentrates its
    #: register-spill traffic in ``outer_src_calc`` (Figure 5).
    stack_phases: tuple[str, ...] = ()
    #: Real allocations each simulated allocation stands for (used to
    #: scale interposition/memkind overhead to Table I allocation
    #: rates).
    alloc_count_multiplier: float = 1.0
    #: Inventory of allocation sites and statics.
    objects: tuple[ObjectSpec, ...] = ()
    #: Iteration body phases (one generic phase by default).
    phases: tuple[PhaseSpec, ...] = (PhaseSpec("main_loop", 1.0),)
    #: Init-phase duration as a fraction of total runtime.
    init_fraction: float = 0.05

    # ------------------------------------------------------------------
    # construction and derived properties
    # ------------------------------------------------------------------

    def __init__(self) -> None:
        if not self.objects:
            raise WorkloadError(f"{self.name}: empty inventory")
        total = sum(o.miss_weight for o in self.objects)
        if total <= 0:
            raise WorkloadError(f"{self.name}: no object has miss weight")
        if abs(sum(p.duration_fraction for p in self.phases) - 1.0) > 1e-6:
            raise WorkloadError(f"{self.name}: phase fractions must sum to 1")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise WorkloadError(f"{self.name}: duplicate object names")
        phase_names = {p.function for p in self.phases}
        for o in self.objects:
            if o.churn and o.churn_phase not in phase_names:
                raise WorkloadError(
                    f"{self.name}: churn phase {o.churn_phase!r} of "
                    f"{o.name!r} is not a declared phase"
                )

    @property
    def module_name(self) -> str:
        return self.name

    @property
    def source_file(self) -> str:
        ext = {"C": "c", "C++": "cpp", "Fortran": "f90"}.get(self.language, "c")
        return f"{self.name}.{ext}"

    def scaled(self, nbytes: int) -> int:
        """Real bytes -> simulated bytes (>= 1 page per instance)."""
        return max(4096, int(nbytes * self.scale))

    @property
    def footprint_real(self) -> int:
        """Peak concurrent heap+static footprint per rank, real bytes."""
        persistent = sum(o.size * o.count for o in self.objects if not o.churn)
        churn_by_phase: dict[str, int] = {}
        for o in self.objects:
            if o.churn:
                churn_by_phase[o.churn_phase] = (
                    churn_by_phase.get(o.churn_phase, 0) + o.size
                )
        churn_peak = max(churn_by_phase.values(), default=0)
        return persistent + churn_peak

    @property
    def hot_footprint_real(self) -> int:
        """Bytes of data actually touched per iteration (real scale).

        The cache-mode model preserves the ratio between this and the
        per-rank MCDRAM share when it scales its direct-mapped cache.
        """
        return sum(
            int(o.size * o.pattern.hot_fraction) * o.count
            for o in self.objects
            if o.miss_weight > 0
        )

    @property
    def mcdram_share_real(self) -> int:
        """Per-rank slice of the 16 GiB MCDRAM (real bytes)."""
        return (16 * GIB) // self.geometry.ranks

    def site_key(self, spec: ObjectSpec) -> tuple[tuple[str, str, int], ...]:
        """Translated call-stack key of a dynamic site (leaf first).

        Includes the implicit ``main`` root frame the timeline pushes.
        """
        if spec.static:
            raise WorkloadError(f"{spec.name} is static; it has no call-stack")
        frames = [
            (fn, self.source_file, ln) for fn, ln in reversed(spec.callstack)
        ]
        frames.append(("main", self.source_file, 1))
        return tuple(frames)

    def key_to_site_name(self) -> dict[tuple, str]:
        """Map translated call-stack key -> site name."""
        return {
            self.site_key(o): o.name for o in self.objects if not o.static
        }

    def find_object(self, name: str) -> ObjectSpec:
        for o in self.objects:
            if o.name == name:
                return o
        raise WorkloadError(f"{self.name}: no object named {name!r}")

    # ------------------------------------------------------------------
    # program image
    # ------------------------------------------------------------------

    def build_modules(self) -> list[ModuleImage]:
        """Synthesize the binary image from the inventory call-stacks."""
        max_line: dict[str, int] = {"main": 2}
        for spec in self.objects:
            if spec.static:
                continue
            for fn, line in spec.callstack:
                max_line[fn] = max(max_line.get(fn, 1), line)
        for phase in self.phases:
            max_line.setdefault(phase.function, 2)
        functions = []
        offset = 0
        for fn in sorted(max_line):
            size = max_line[fn] + 16
            functions.append(
                FunctionSymbol(
                    name=fn, offset=offset, size=size, file=self.source_file
                )
            )
            offset += size + 16
        return [
            ModuleImage(
                name=self.module_name, size=offset + 64, functions=functions
            )
        ]

    def create_process(
        self,
        seed: int = 0,
        rank: int = 0,
        hbw_capacity: int | None = None,
    ) -> SimProcess:
        """A fresh process with statics registered and arenas sized.

        ``hbw_capacity`` is the *scaled* physical MCDRAM available to
        this rank; defaults to the scaled per-rank MCDRAM share.
        """
        if hbw_capacity is None:
            hbw_capacity = self.scaled(self.mcdram_share_real)
        heap_size = max(64 * MIB, 8 * self.scaled(self.footprint_real))
        static_need = sum(
            self.scaled(o.size) for o in self.objects if o.static
        )
        process = SimProcess(
            modules=self.build_modules(),
            rank=rank,
            seed=seed,
            static_segment_size=max(64 * MIB, 2 * static_need),
            heap_size=heap_size,
            hbw_size=max(hbw_capacity * 2, 16 * MIB),
            hbw_capacity=hbw_capacity,
        )
        # memkind's 1-2 MiB slow path is keyed on *real* sizes.
        process.memkind.penalty_size_multiplier = 1.0 / self.scale
        for spec in self.objects:
            if spec.static:
                process.register_static(spec.name, self.scaled(spec.size))
        return process

    # ------------------------------------------------------------------
    # allocation timeline
    # ------------------------------------------------------------------

    def _replay_site(self, spec: ObjectSpec) -> _ReplaySite:
        module = self.module_name
        return _ReplaySite(
            name=spec.name,
            context=((module, "main", 1),)
            + tuple((module, fn, line) for fn, line in spec.callstack),
            size=self.scaled(spec.size),
            count=spec.count,
        )

    @staticmethod
    def _alloc_instance(process: SimProcess, site: _ReplaySite) -> Allocation:
        """Perform one allocation with the site's whole call context."""
        with process.in_context(site.context):
            return process.malloc_record(site.size)

    def run_timeline(
        self,
        process: SimProcess,
        on_window: Callable[[int, PhaseSpec, float, float, dict[str, int]], None]
        | None = None,
        on_phase: Callable[[str, float], None] | None = None,
    ) -> dict[str, list[str]]:
        """Drive the allocation/phase timeline of one run.

        ``on_window(iteration, phase, t0, t1, live)`` fires once per
        (iteration, phase) with the wall-time window and the live
        dynamic addresses (site name -> base address).
        ``on_phase(function, time)`` fires at each phase entry.
        Returns the per-site list of serving allocator names.
        """
        cal = self.calibration
        t_init_end = cal.ddr_time * self.init_fraction
        iter_span = (cal.ddr_time - t_init_end) / self.n_iterations

        placements: dict[str, list[str]] = {o.name: [] for o in self.objects}
        live: dict[str, int] = {}

        # Compile the timeline once: the sites each step allocates,
        # with their scaled sizes and whole call contexts.
        init_sites = [
            self._replay_site(o)
            for o in self.objects
            if not o.static and not o.churn
        ]
        phase_plan = [
            (
                phase,
                phase.duration_fraction * iter_span,
                [
                    self._replay_site(o)
                    for o in self.objects
                    if o.churn_phase == phase.function
                ],
            )
            for phase in self.phases
        ]

        # Statics are "placed" at load time by definition.
        for spec in self.objects:
            if spec.static:
                placements[spec.name].append("static")

        # Init-time allocations, in inventory order (this order is what
        # numactl's FCFS policy consumes).
        for j, site in enumerate(init_sites):
            process.advance(
                max(
                    0.0,
                    t_init_end * (j + 1) / (len(init_sites) + 1)
                    - process.clock,
                )
            )
            served = placements[site.name]
            for _ in range(site.count):
                alloc = self._alloc_instance(process, site)
                served.append(alloc.allocator)
            live[site.name] = alloc.address  # last instance's base

        process.advance(max(0.0, t_init_end - process.clock))

        for it in range(self.n_iterations):
            t0 = t_init_end + it * iter_span
            process.advance(max(0.0, t0 - process.clock))
            t_cursor = t0
            for phase, span, churn_sites in phase_plan:
                t_p0, t_p1 = t_cursor, t_cursor + span
                churn_here: list[tuple[str, int]] = []
                for site in churn_sites:
                    alloc = self._alloc_instance(process, site)
                    placements[site.name].append(alloc.allocator)
                    churn_here.append((site.name, alloc.address))
                    live[site.name] = alloc.address
                if on_phase is not None:
                    on_phase(phase.function, t_p0)
                if on_window is not None:
                    on_window(it, phase, t_p0, t_p1, dict(live))
                process.advance(max(0.0, t_p1 - 1e-6 * span - process.clock))
                for name, address in churn_here:
                    process.free(address)
                    live.pop(name, None)
                process.advance(max(0.0, t_p1 - process.clock))
                t_cursor = t_p1
        process.advance(max(0.0, cal.ddr_time - process.clock))
        return placements

    # ------------------------------------------------------------------
    # miss-stream generation
    # ------------------------------------------------------------------

    def _touch_offsets(
        self, spec: ObjectSpec, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-iteration touch set (byte offsets into the object).

        Fixed across iterations, which is what gives iterative
        applications their cross-iteration reuse.
        """
        span = max(
            CACHE_LINE,
            int(self.scaled(spec.size) * spec.pattern.hot_fraction),
        )
        if spec.pattern.kind == "sequential":
            step = max(
                CACHE_LINE, (span // max(n, 1)) & ~(CACHE_LINE - 1)
            )
            offsets = (np.arange(n, dtype=np.int64) * step) % span
        else:
            lines = max(1, span // CACHE_LINE)
            offsets = (
                rng.integers(0, lines, size=n, dtype=np.int64) * CACHE_LINE
            )
        return offsets

    def _misses_per_iteration(self) -> dict[str, int]:
        """Misses each object receives per iteration of the stream."""
        total_weight = sum(o.miss_weight for o in self.objects)
        heap_misses = self.stream_misses * (1.0 - self.stack_miss_fraction)
        out: dict[str, int] = {}
        for spec in self.objects:
            share = spec.miss_weight / total_weight
            out[spec.name] = max(
                0, int(round(heap_misses * share / self.n_iterations))
            )
        return out

    def _stack_misses_per_iteration(self) -> int:
        return int(
            round(
                self.stream_misses
                * self.stack_miss_fraction
                / self.n_iterations
            )
        )

    def _touching_phase_count(self, spec: ObjectSpec) -> int:
        return sum(1 for p in self.phases if spec.touches(p.function))

    def _stack_share_of_phase(self, phase: PhaseSpec) -> float:
        """Fraction of each iteration's stack misses in this phase."""
        eligible = [
            p
            for p in self.phases
            if not self.stack_phases or p.function in self.stack_phases
        ]
        if phase not in eligible:
            return 0.0
        total = sum(p.duration_fraction for p in eligible)
        return phase.duration_fraction / total

    def generate_window_stream(
        self,
        phase: PhaseSpec,
        t0: float,
        t1: float,
        live: dict[str, int],
        statics: dict[str, int],
        stack_base: int,
        streams: WindowStreams,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int], np.ndarray]:
        """Addresses/times/latencies of one (iteration, phase) window's
        misses. Latencies model a Xeon-style PMU; the tracer decides
        whether to record them. The latency column is shared by every
        window of the same composition and is read-only."""
        sites, n_stack = streams.phase(phase)
        counts: dict[str, int] = {}
        arrays: list[np.ndarray] = []

        for spec, n in sites:
            base = (
                statics.get(spec.name)
                if spec.static
                else live.get(spec.name)
            )
            if base is None:
                continue
            offsets = streams.touch_sets[spec.name][:n]
            arrays.append((base + offsets).astype(np.uint64))
            counts[spec.name] = int(offsets.size)

        if n_stack > 0:
            offs = streams.stack_touch[:n_stack]
            arrays.append((stack_base + offs).astype(np.uint64))
            counts["<stack>"] = int(offs.size)

        if not arrays:
            empty = np.zeros(0, dtype=float)
            return np.zeros(0, np.uint64), empty, counts, np.zeros(0, np.int64)
        order, latencies = streams.merge(counts)
        merged = np.concatenate(arrays)[order]
        times = t0 + (np.arange(merged.size) + 0.5) * (t1 - t0) / (
            merged.size + 1
        )
        return merged, times, counts, latencies

    # ------------------------------------------------------------------
    # profiling run (framework step 1)
    # ------------------------------------------------------------------

    def run_profiling(
        self,
        seed: int = 0,
        tracer_config: TracerConfig | None = None,
    ) -> ProfilingRun:
        """Execute the instrumented run of one representative rank."""
        process = self.create_process(seed=seed)
        tracer = Tracer(
            config=tracer_config
            or TracerConfig(sampling_period=self.sampling_period),
            application=self.name,
            rank=0,
        )
        tracer.attach(process)

        name_hash = zlib.crc32(self.name.encode())
        rng = np.random.default_rng(np.random.SeedSequence([name_hash, seed]))
        per_iter = self._misses_per_iteration()
        touch_sets = {
            spec.name: self._touch_offsets(
                spec, max(per_iter[spec.name], 1), rng
            )
            for spec in self.objects
        }
        stack_touch = (
            rng.integers(
                0,
                max(
                    1,
                    min(process.stack_region.size, 64 * 1024) // CACHE_LINE,
                ),
                size=max(1, self._stack_misses_per_iteration()),
                dtype=np.int64,
            )
            * CACHE_LINE
        )
        streams = WindowStreams(self, touch_sets, stack_touch)
        statics = {
            name: region.base for name, region in process.statics.items()
        }

        truth = GroundTruth()
        all_addresses: list[np.ndarray] = []
        all_times: list[np.ndarray] = []

        def on_window(
            it: int,
            phase: PhaseSpec,
            t0: float,
            t1: float,
            live: dict[str, int],
        ) -> None:
            addresses, times, counts, latencies = self.generate_window_stream(
                phase,
                t0,
                t1,
                live,
                statics,
                process.stack_region.base,
                streams,
            )
            for site, n in counts.items():
                truth.misses_by_site[site] = (
                    truth.misses_by_site.get(site, 0) + n
                )
                truth.latency_by_site[site] = (
                    truth.latency_by_site.get(site, 0.0)
                    + n * streams.latency_cycles[site]
                )
            truth.total_misses += int(addresses.size)
            truth.windows.append(
                WindowTruth(t0=t0, t1=t1, misses_by_site=dict(counts))
            )
            all_addresses.append(addresses)
            all_times.append(times)
            tracer.record_misses(addresses, times, latencies)

        def on_phase(function: str, time: float) -> None:
            tracer.record_phase(function, time)

        self.run_timeline(process, on_window=on_window, on_phase=on_phase)

        truth.addresses = (
            np.concatenate(all_addresses)
            if all_addresses
            else np.zeros(0, np.uint64)
        )
        truth.times = (
            np.concatenate(all_times) if all_times else np.zeros(0, float)
        )
        return ProfilingRun(
            trace=tracer.columnar_trace(),
            ground_truth=truth,
            tracer=tracer,
            process=process,
            sites={o.name: o for o in self.objects},
        )

    # ------------------------------------------------------------------
    # placed re-execution (framework step 4, and baselines)
    # ------------------------------------------------------------------

    def replay_with_hook(
        self,
        hook_factory: Callable[[SimProcess], object] | None,
        seed: int = 1,
        hbw_capacity_real: int | None = None,
    ) -> ReplayResult:
        """Re-run the allocation timeline under an interposition hook.

        ``hook_factory`` builds the hook for the fresh process (None
        replays the plain DDR run). ``hbw_capacity_real`` overrides the
        per-rank physical MCDRAM share (real bytes).
        """
        capacity = (
            self.scaled(hbw_capacity_real)
            if hbw_capacity_real is not None
            else None
        )
        process = self.create_process(seed=seed, hbw_capacity=capacity)
        hook = hook_factory(process) if hook_factory is not None else None
        if hook is not None:
            process.install_malloc_hook(hook)

        placements = self.run_timeline(process)

        hwm_scaled = getattr(hook, "hbw_hwm_bytes", 0)
        overhead = getattr(hook, "overhead_seconds", 0.0)
        fractions = getattr(hook, "promoted_fractions_by_key", None)
        promoted_fractions: dict[str, list[float]] = {}
        if fractions:
            name_by_key = self.key_to_site_name()
            for key, fracs in fractions.items():
                site = name_by_key.get(key)
                if site is not None:
                    promoted_fractions[site] = list(fracs)
        return ReplayResult(
            placements=placements,
            hbw_hwm_bytes=int(hwm_scaled / self.scale),
            alloc_overhead_seconds=float(overhead)
            * self.alloc_count_multiplier,
            hook=hook,
            promoted_fractions=promoted_fractions,
        )

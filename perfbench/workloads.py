"""The benchmark's four workloads: set-up, one measured pass, checks.

Every workload is a closed loop with one caller: each pass issues its
calls one after another and waits for every result. ``setup`` builds
the fixed inputs from an input seed (everything up to the first timed
call); ``run_pass`` performs one whole user-facing job and returns a
:class:`PassRecord`; ``check`` compares a record with the committed
golden digests and the workload's own invariants.

Imports of the program happen inside ``setup`` so that a fresh
interpreter charges them to set-up time.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field

#: Input seeds with committed golden digests (0 .. INPUT_SEEDS-1). A
#: run's ``--seed`` selects its children's input seeds among these, so
#: changing the count changes which inputs every ``--seed`` measures,
#: the held-out seed included.
INPUT_SEEDS = 24

#: Application mix, fleet and rungs of the ``cluster`` workload.
CLUSTER_MIX = ("phaseshift", "minife", "cgpop")
CLUSTER_NODES = 4
CLUSTER_NODE_MIB = 320
CLUSTER_RATE = 0.2
CLUSTER_RUNGS = (
    ("n100", 100, False),
    ("n400", 400, False),
    ("n800", 800, False),
    ("faulted", 1600, True),
)
#: Arrivals per cluster latency step.
ARRIVAL_BLOCK = 10
#: Journal line kinds the faulted rung must exercise.
FAULT_KINDS = ("crash", "recover", "shed", "casualty")

#: Sessions of the ``online`` workload: (application, budget MiB).
ONLINE_SESSIONS = (
    ("phaseshift", 32),
    ("phaseshift", 128),
    ("hpcg", 32),
    ("hpcg", 128),
)
ONLINE_WINDOWS = 256


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows: list[dict | None]) -> str:
    return digest(json.dumps(rows, sort_keys=True))


def children_maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


@dataclass
class PassRecord:
    """What one pass did, as the benchmark measured it."""

    #: Wall seconds of the whole pass.
    wall_s: float = 0.0
    #: Work items completed (cells, windows or arrivals).
    items: int = 0
    #: Latency of each blocking step in milliseconds (a cell's stage
    #: time, a decision, a cluster event).
    latencies_ms: list[float] = field(default_factory=list)
    #: Operations attempted and failed (cells, windows, rungs).
    attempted: int = 0
    failed: int = 0
    #: Output digests keyed like the golden file.
    digests: dict[str, str] = field(default_factory=dict)
    #: Invariant violations found while running.
    problems: list[str] = field(default_factory=list)
    #: Workload-specific figures (per-rung timings, sweep counters).
    detail: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: False when the measured process shares the cores with its own
    #: workers, so its speed samples would measure its own load.
    single_process = True

    def setup(self, input_seed: int) -> dict:
        """Fixed inputs; ``state["tracer"]`` is None until the harness
        sets a recorder for traced passes."""
        raise NotImplementedError

    def run_pass(self, state) -> PassRecord:
        raise NotImplementedError

    def check(self, record: PassRecord, golden: dict | None) -> list[str]:
        """Golden-digest mismatches plus the pass's own problems."""
        problems = list(record.problems)
        if golden is None:
            return problems + [f"{self.name}: no golden digests for input seed"]
        for key, expected in golden.items():
            got = record.digests.get(key)
            if got != expected:
                problems.append(
                    f"{self.name}: digest {key} is {got}, golden {expected}"
                )
        return problems


class Fig4(Workload):
    """``run_sweep`` over the eight Table I apps on the default grid."""

    def __init__(self, name: str, jobs: int) -> None:
        self.name = name
        self.jobs = jobs
        self.single_process = jobs == 1

    def setup(self, input_seed: int) -> dict:
        from repro.apps.registry import iter_apps
        from repro.parallel.sweep import run_sweep

        return {
            "apps": list(iter_apps()),
            "seed": input_seed,
            "run_sweep": run_sweep,
            "tracer": None,
        }

    def run_pass(self, state) -> PassRecord:
        start = time.perf_counter()
        result = state["run_sweep"](
            state["apps"], jobs=self.jobs, seed=state["seed"]
        )
        wall = time.perf_counter() - start
        outcomes = result.outcomes
        failed = sum(1 for o in outcomes if not o.ok)
        record = PassRecord(
            wall_s=wall,
            items=len(outcomes),
            latencies_ms=[
                sum(o.metrics.seconds.values()) * 1e3 for o in outcomes
            ],
            attempted=len(outcomes),
            failed=failed,
            digests={
                "rows": rows_digest(
                    [o.row.to_dict() if o.ok else None for o in outcomes]
                )
            },
            detail={
                "counters": dict(result.metrics.counters),
                "stage_s": dict(result.metrics.seconds),
                "apps": len(state["apps"]),
                "jobs": self.jobs,
            },
        )
        if failed:
            record.problems.append(f"{self.name}: {failed} cells failed")
        return record


class _PairedClock:
    """``OnlineDaemon(clock=...)``: the daemon reads it at the start
    and the end of every window's attribute→profile→advise decision.
    Consecutive calls pair up into one decision latency. With a
    tracer, each pair also opens and closes a window group span."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self._start: float | None = None
        self._span = None

    def __call__(self) -> float:
        now = time.perf_counter()
        if self._start is None:
            self._start = now
            if self.tracer is not None:
                self._span = (
                    self.tracer.open("online.decision", group=True),
                    time.perf_counter_ns(),
                )
        else:
            if self._span is not None:
                self.tracer.close(self._span[0], "online.decision", self._span[1])
                self._span = None
            self.latencies_ms.append((now - self._start) * 1e3)
            self._start = None
        return now


class Online(Workload):
    """Four ``run_windowed`` sessions over pre-profiled frameworks."""

    name = "online"

    def setup(self, input_seed: int) -> dict:
        from repro.apps.registry import get_app
        from repro.online.daemon import OnlineConfig, OnlineDaemon
        from repro.online.scoring import evaluate_one_shot, evaluate_online
        from repro.pipeline.framework import HybridMemoryFramework
        from repro.units import MIB

        frameworks = {}
        for app_name, _ in ONLINE_SESSIONS:
            if app_name not in frameworks:
                framework = HybridMemoryFramework(
                    get_app(app_name), seed=input_seed
                )
                framework.profile()
                framework.analyze()
                frameworks[app_name] = framework
        return {
            "frameworks": frameworks,
            "config": OnlineConfig(n_windows=ONLINE_WINDOWS),
            "mib": MIB,
            "daemon": OnlineDaemon,
            "evaluate_online": evaluate_online,
            "evaluate_one_shot": evaluate_one_shot,
            "tracer": None,
        }

    def run_pass(self, state) -> PassRecord:
        tracer = state["tracer"]
        config = state["config"]
        record = PassRecord()
        start = time.perf_counter()
        foms = {}
        for app_name, budget_mib in ONLINE_SESSIONS:
            framework = state["frameworks"][app_name]
            budget = budget_mib * state["mib"]
            clock = _PairedClock(tracer)
            # run_windowed's three steps, with the clock injected.
            run = state["daemon"](framework, budget, config, clock=clock).run()
            if tracer is None:
                online = state["evaluate_online"](framework, run)
                one_shot = state["evaluate_one_shot"](
                    framework, budget, config.strategy
                )
            else:
                with tracer.span("online.score"):
                    online = state["evaluate_online"](framework, run)
                    one_shot = state["evaluate_one_shot"](
                        framework, budget, config.strategy
                    )
                tracer.count("online.migrations", len(run.actions))
            key = f"{app_name}@{budget_mib}"
            foms[key] = (online.fom, one_shot.fom)
            record.latencies_ms.extend(clock.latencies_ms)
            record.items += len(run.decisions)
            record.attempted += len(run.decisions)
            record.failed += run.degraded_windows
            record.digests[key] = digest("\n".join(run.journal_lines()) + "\n")
        record.wall_s = time.perf_counter() - start
        online_fom, one_shot_fom = foms["phaseshift@32"]
        if not online_fom > one_shot_fom:
            record.problems.append(
                f"online: phaseshift@32 online FOM {online_fom} is not "
                f"above one-shot FOM {one_shot_fom}"
            )
        if record.failed:
            record.problems.append(
                f"online: {record.failed} degraded windows without a fault plan"
            )
        if len(record.latencies_ms) != record.items:
            record.problems.append(
                f"online: {len(record.latencies_ms)} decision latencies for "
                f"{record.items} windows"
            )
        return record


class Cluster(Workload):
    """``ClusterSim`` rungs on a four-node fleet, first-fit."""

    name = "cluster"

    def setup(self, input_seed: int) -> dict:
        from repro.cluster.arrivals import ArrivalStream
        from repro.cluster.backpressure import BackpressurePolicy
        from repro.cluster.events import SimClock
        from repro.cluster.node import make_fleet
        from repro.cluster.scheduler import get_scheduler
        from repro.cluster.simulator import ClusterSim
        from repro.faults.plan import FaultPlan
        from repro.units import MIB

        class EventClock(SimClock):
            """Simulated clock that also stamps host time per event:
            the loop advances it once before dispatching each event."""

            def __init__(self) -> None:
                super().__init__()
                self.events: list[tuple[float, float]] = []

            def advance(self, t: float) -> None:
                super().advance(t)
                self.events.append((t, time.perf_counter()))

        faulted_kwargs = {
            "fault_plan": FaultPlan(
                seed=32,
                node_crash_rate=0.5,
                node_recover_seconds=600,
                tenant_kill_rate=0.02,
                overload_burst_factor=3,
                overload_burst_fraction=0.5,
            ),
            "backpressure": BackpressurePolicy(
                max_queue_depth=128, down_grant_fraction=0.5
            ),
            "rescue_budget": 256 * MIB,
        }
        fleet = make_fleet(CLUSTER_NODES, CLUSTER_NODE_MIB * MIB)
        rungs = []
        for label, arrivals, faulted in CLUSTER_RUNGS:
            stream = ArrivalStream(
                seed=input_seed,
                n_arrivals=arrivals,
                rate=CLUSTER_RATE,
                mix=CLUSTER_MIX,
            )
            kwargs = faulted_kwargs if faulted else {}
            # The trace the simulator will process (a fault plan's
            # overload burst is folded into the stream it keeps).
            trace = ClusterSim(fleet, stream, **kwargs).arrivals.generate()
            rungs.append(
                (label, stream, kwargs, {r.arrival_time for r in trace})
            )
        return {
            "fleet": fleet,
            "rungs": rungs,
            "sim": ClusterSim,
            "clock": EventClock,
            "first_fit": get_scheduler("first-fit"),
            "tracer": None,
        }

    def run_pass(self, state) -> PassRecord:
        tracer = state["tracer"]
        scheduler: object = "first-fit"
        if tracer is not None:
            scheduler = tracer.wrap(
                state["first_fit"], "cluster.schedule", leaf=True
            )
            # The journal header names the scheduler; keep it unchanged.
            scheduler.__name__ = "first-fit"
        record = PassRecord()
        start = time.perf_counter()
        for label, stream, kwargs, arrival_times in state["rungs"]:
            clock = state["clock"]()
            record.attempted += 1
            rung_start = time.perf_counter()
            span = (
                (tracer.open("cluster.rung", group=True), time.perf_counter_ns())
                if tracer is not None
                else None
            )
            try:
                sim = state["sim"](
                    state["fleet"],
                    stream,
                    scheduler=scheduler,
                    clock=clock,
                    **kwargs,
                )
                report = sim.run()
            except Exception as exc:  # a raised rung is a failed operation
                record.failed += 1
                record.problems.append(f"cluster {label}: raised {exc!r}")
                continue
            finally:
                if span is not None:
                    tracer.close(span[0], "cluster.rung", span[1])
            rung_end = time.perf_counter()
            starts = [s for t, s in clock.events if t in arrival_times]
            if len(starts) != stream.n_arrivals:
                record.problems.append(
                    f"cluster {label}: {len(starts)} arrival events for "
                    f"{stream.n_arrivals} arrivals"
                )
            record.latencies_ms.extend(block_steps_ms(starts, rung_end))
            record.items += stream.n_arrivals
            journal = sim.journal_text()
            record.digests[label] = digest(journal)
            record.detail[label] = {
                "ms_per_arrival": (rung_end - rung_start)
                / stream.n_arrivals
                * 1e3,
                "events": len(clock.events),
                "wall_s": rung_end - rung_start,
                "admits": sum(
                    1 for line in sim.journal if line.split(" ", 2)[1:2] == ["admit"]
                ),
            }
            record.problems.extend(
                f"cluster {label}: {p}"
                for p in rung_problems(report, sim.journal, bool(kwargs))
            )
        record.wall_s = time.perf_counter() - start
        return record


def block_steps_ms(starts: list[float], end: float) -> list[float]:
    """Host milliseconds per arrival over consecutive blocks of
    ``ARRIVAL_BLOCK`` arrivals: from the dispatch of a block's first
    arrival event to the next block's (or the rung's end), so a step
    also carries the departures and fault events handled in between.
    Most single arrivals take about 20 us, too little to time apart
    from the host's noise."""
    marks = starts[::ARRIVAL_BLOCK] + [end]
    counts = [
        min(ARRIVAL_BLOCK, len(starts) - i)
        for i in range(0, len(starts), ARRIVAL_BLOCK)
    ]
    return [
        (b - a) * 1e3 / n for a, b, n in zip(marks, marks[1:], counts)
    ]


def rung_problems(report, journal: list[str], faulted: bool) -> list[str]:
    """A rung's accounting identity, fairness bound and fault lines."""
    problems = []
    settled = len(report.tenants) + report.n_rejected + report.n_casualties
    if report.n_arrivals != settled:
        problems.append(
            f"arrivals {report.n_arrivals} != completed {len(report.tenants)}"
            f" + rejected {report.n_rejected} + casualties "
            f"{report.n_casualties}"
        )
    if not report.aggregate_fom <= report.aggregate_fom_isolated:
        problems.append(
            f"aggregate_fom {report.aggregate_fom} > isolated "
            f"{report.aggregate_fom_isolated}"
        )
    if faulted:
        kinds = {line.split(" ", 2)[1] for line in journal if line.startswith("t=")}
        missing = [k for k in FAULT_KINDS if k not in kinds]
        if missing:
            problems.append(f"faulted journal lacks {', '.join(missing)} lines")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (Fig4("fig4-serial", 1), Fig4("fig4-j2", 2), Online(), Cluster())
}

#: Golden-file section each workload's digests are checked against;
#: ``fig4-j2`` must reproduce the serial rows exactly.
GOLDEN_SECTION = {
    "fig4-serial": "fig4",
    "fig4-j2": "fig4",
    "online": "online",
    "cluster": "cluster",
}

"""Worker supervision for the sweep executor.

``ProcessPoolExecutor`` cannot kill an individual hung worker — a cell
stuck in an infinite loop (or a worker frozen by SIGSTOP) blocks its
slot forever and a SIGKILLed worker poisons the whole pool. The
supervisor therefore owns its workers directly: each is a
``multiprocessing.Process`` driven over a duplex pipe, executing one
cell at a time, with a daemon thread emitting heartbeats so the parent
can tell *frozen* from *slow*.

The parent's supervision state machine, per worker::

    spawned -> ready -> busy(cell, deadline) -> idle -> ...
                |            |
                |            +-- deadline exceeded --> killed, cell requeued
                |            +-- heartbeat stale ----> killed, cell requeued
                +-- process died (EOF/!is_alive) ----> cell requeued

Requeues are *bounded* (``requeue_budget`` per dispatched cell); a
cell that outlives the budget is surfaced as a terminal
:class:`CellAborted` event carrying a transient-category error, so the
sweep records an honest failure instead of looping forever. Killed and
dead workers are replaced immediately, keeping the pool at strength.

Execution is at-least-once: a worker killed in the instant between
finishing a cell and the parent reading its result causes one wasted
re-execution, but outcomes settle exactly once (the dead worker's pipe
is never read again).

:class:`CircuitBreaker` is the complementary guard for *deterministic*
failure: when an application's cells keep failing with
``deterministic``-category errors across workers, its circuit opens
and the executor refuses the app's remaining cells outright instead of
grinding every one through its full retry schedule.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CATEGORY_DETERMINISTIC,
    CATEGORY_POISONED,
    CellDeadlineError,
    ConfigError,
    WorkerCrashError,
)

#: Requeue reasons (also used as metric counter names by the sweep).
REASON_CRASH = "worker_crash"
REASON_DEADLINE = "deadline_kill"
REASON_STALLED = "worker_stalled"


def _supervised_worker_main(
    conn, machine, seed, plan, heartbeat_interval: float,
) -> None:
    """Worker loop: recv cell, ack, execute, send result, repeat.

    A daemon thread heartbeats on the same pipe (send is locked) so
    the parent sees liveness even while a cell computes; the beats
    stop only when the process itself stops scheduling threads — which
    is exactly the failure the stall detector exists for.
    """
    # Imported here, not at module top: repro.parallel.sweep imports
    # this module, and the worker needs sweep's _execute_cell.
    from repro.parallel.sweep import _execute_cell
    from repro.parallel.watchdog import start_orphan_watchdog

    start_orphan_watchdog()
    frameworks: dict = {}
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("beat", time.monotonic()))
            except (BrokenPipeError, OSError):
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        with send_lock:
            conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, task_id, app, cell, attempt = message
            with send_lock:
                conn.send(("start", task_id))
            row, error, category, metrics = _execute_cell(
                app,
                machine,
                cell,
                seed,
                frameworks=frameworks,
                plan=plan,
                attempt=attempt,
            )
            with send_lock:
                conn.send(("done", task_id, row, error, category, metrics))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop_beating.set()
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class TaskSpec:
    """One dispatched cell, as the supervisor tracks it."""

    task_id: int
    app: Any
    cell: Any
    #: Attempt number passed to the worker; bumped on every requeue so
    #: seeded fault injection sees requeues as fresh attempts.
    attempt: int
    requeues: int = 0


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    ident: int
    proc: multiprocessing.Process
    conn: Any
    task: TaskSpec | None = None
    deadline: float | None = None
    last_beat: float = field(default_factory=time.monotonic)
    cells_done: int = 0


# -- events the poll loop emits --------------------------------------------


@dataclass
class CellResult:
    """A worker finished a cell (successfully or not) in-band."""

    task_id: int
    row: Any
    error: str | None
    category: str | None
    metrics: dict


@dataclass
class CellRequeued:
    """A cell's worker was lost; the cell went back to the queue."""

    task_id: int
    reason: str
    requeues: int


@dataclass
class CellAborted:
    """A cell exhausted its requeue budget; terminal failure."""

    task_id: int
    error: str
    category: str
    reason: str


class WorkerSupervisor:
    """Own, feed, watch, kill and replace a fleet of cell workers."""

    def __init__(
        self,
        jobs: int,
        machine,
        seed: int,
        plan,
        *,
        cell_deadline: float | None = None,
        requeue_budget: int = 2,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError("supervisor needs at least one worker")
        if cell_deadline is not None and cell_deadline <= 0:
            raise ConfigError("cell_deadline must be positive")
        if requeue_budget < 0:
            raise ConfigError("requeue_budget must be >= 0")
        self.jobs = jobs
        self.machine = machine
        self.seed = seed
        self.plan = plan
        self.cell_deadline = cell_deadline
        self.requeue_budget = requeue_budget
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._ctx = multiprocessing.get_context()
        self.workers: dict[int, WorkerHandle] = {}
        self._queue: deque[TaskSpec] = deque()
        self._next_worker = 0
        self._next_task = 0
        #: Workers killed/lost, by reason (observability roll-up).
        self.losses: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.jobs):
            self._spawn()

    def stop(self) -> None:
        """Shut every worker down, escalating politely-then-SIGKILL."""
        for handle in self.workers.values():
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self.workers.values():
            handle.proc.join(timeout=1.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.workers.clear()
        self._queue.clear()

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_supervised_worker_main,
            args=(
                child_conn,
                self.machine,
                self.seed,
                self.plan,
                self.heartbeat_interval,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = WorkerHandle(
            ident=self._next_worker, proc=proc, conn=parent_conn
        )
        self._next_worker += 1
        self.workers[handle.ident] = handle
        return handle

    # -- feeding --------------------------------------------------------

    @property
    def inflight(self) -> int:
        return sum(1 for w in self.workers.values() if w.task is not None)

    @property
    def capacity(self) -> int:
        """Cells the supervisor can absorb right now without queueing
        behind a busy worker (requeued cells take priority)."""
        return max(0, len(self.workers) - self.inflight - len(self._queue))

    def submit(self, app, cell, attempt: int) -> int:
        """Accept one cell; returns its task id."""
        task = TaskSpec(
            task_id=self._next_task, app=app, cell=cell, attempt=attempt
        )
        self._next_task += 1
        self._queue.append(task)
        self._dispatch()
        return task.task_id

    def _dispatch(self) -> None:
        for handle in self.workers.values():
            if not self._queue:
                return
            if handle.task is not None or not handle.proc.is_alive():
                continue
            task = self._queue.popleft()
            try:
                handle.conn.send(
                    ("cell", task.task_id, task.app, task.cell, task.attempt)
                )
            except (BrokenPipeError, OSError):
                # Dead worker discovered at dispatch: put the task
                # back; the poll loop reaps and replaces the worker.
                self._queue.appendleft(task)
                continue
            handle.task = task
            # The clock starts at dispatch (not at the worker's ack),
            # so a worker dead-on-arrival still trips the deadline.
            handle.deadline = (
                time.monotonic() + self.cell_deadline
                if self.cell_deadline is not None
                else None
            )

    # -- supervision ----------------------------------------------------

    def _lose_worker(
        self, handle: WorkerHandle, reason: str
    ) -> list[CellRequeued | CellAborted]:
        """Reap one lost worker: requeue/abort its cell, replace it."""
        self.losses[reason] = self.losses.get(reason, 0) + 1
        self.workers.pop(handle.ident, None)
        if handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        events: list[CellRequeued | CellAborted] = []
        task = handle.task
        if task is not None:
            if task.requeues < self.requeue_budget:
                task.requeues += 1
                task.attempt += 1
                self._queue.appendleft(task)
                events.append(
                    CellRequeued(task.task_id, reason, task.requeues)
                )
            else:
                if reason == REASON_DEADLINE:
                    exc: Exception = CellDeadlineError(
                        f"cell exceeded its {self.cell_deadline}s deadline "
                        f"on {task.requeues + 1} worker(s); worker killed"
                    )
                else:
                    exc = WorkerCrashError(
                        f"worker died executing the cell ({reason}); "
                        f"requeue budget ({self.requeue_budget}) exhausted"
                    )
                events.append(
                    CellAborted(
                        task.task_id, str(exc), exc.category, reason
                    )
                )
        self._spawn()
        return events

    def poll(self, timeout: float = 0.1) -> list:
        """Advance the world: dispatch, wait, reap. Returns events."""
        self._dispatch()
        events: list = []
        now = time.monotonic()
        # Wake early enough to enforce the nearest deadline.
        wake = now + timeout
        for handle in self.workers.values():
            if handle.deadline is not None:
                wake = min(wake, handle.deadline)
            if self.heartbeat_timeout is not None:
                wake = min(wake, handle.last_beat + self.heartbeat_timeout)
        conns = {w.conn: w for w in self.workers.values()}
        ready = multiprocessing.connection.wait(
            list(conns), timeout=max(0.0, wake - now)
        )
        dead: list[WorkerHandle] = []
        for conn in ready:
            handle = conns[conn]
            try:
                while conn.poll():
                    events.extend(self._handle_message(handle, conn.recv()))
            except (EOFError, OSError):
                dead.append(handle)
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if handle in dead or not handle.proc.is_alive():
                events.extend(self._lose_worker(handle, REASON_CRASH))
            elif (
                handle.task is not None
                and handle.deadline is not None
                and now > handle.deadline
            ):
                # Salvage a result that landed after the drain above
                # but before the kill — cheap, and avoids one wasted
                # re-execution.
                try:
                    while handle.conn.poll():
                        events.extend(
                            self._handle_message(handle, handle.conn.recv())
                        )
                except (EOFError, OSError):
                    events.extend(self._lose_worker(handle, REASON_CRASH))
                    continue
                if handle.task is not None:
                    events.extend(self._lose_worker(handle, REASON_DEADLINE))
            elif (
                self.heartbeat_timeout is not None
                and now - handle.last_beat > self.heartbeat_timeout
            ):
                events.extend(self._lose_worker(handle, REASON_STALLED))
        self._dispatch()
        return events

    def _handle_message(self, handle: WorkerHandle, message: tuple) -> list:
        kind = message[0]
        handle.last_beat = time.monotonic()
        if kind == "done":
            _, task_id, row, error, category, metrics = message
            if handle.task is None or handle.task.task_id != task_id:
                return []  # stale message from an already-reaped task
            handle.task = None
            handle.deadline = None
            handle.cells_done += 1
            return [CellResult(task_id, row, error, category, metrics)]
        # "ready", "start" and "beat" are pure liveness signals.
        return []


class CircuitBreaker:
    """Per-application deterministic-failure circuit.

    Counts cells that *finally* failed with a ``deterministic`` or
    ``poisoned-input`` category (transient faults never count). Once
    an application accumulates ``threshold`` such failures its circuit
    opens and the executor refuses its remaining cells, bounding the
    cost of an application model that is simply broken.
    """

    def __init__(self, threshold: int | None) -> None:
        if threshold is not None and threshold < 1:
            raise ConfigError("circuit threshold must be >= 1")
        self.threshold = threshold
        self.failures: dict[str, int] = {}

    def record_failure(self, application: str, category: str | None) -> None:
        if category in (CATEGORY_DETERMINISTIC, CATEGORY_POISONED):
            self.failures[application] = self.failures.get(application, 0) + 1

    def is_open(self, application: str) -> bool:
        if self.threshold is None:
            return False
        return self.failures.get(application, 0) >= self.threshold

"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: ``(id, name, start_ns, end_ns,
parent_id, group)``. ``group`` is the id of the nearest enclosing
*group* span (one sweep cell, one online decision window, one cluster
rung), so every span of one unit of work shares it. Spans are kept in
memory and written out once, when the traced run ends.

The recorder wraps public functions and methods from outside the
program (:meth:`Recorder.patch`), so the program itself carries no
tracing code. Forked pool workers inherit the wrappers; a worker's
spans are spooled to one JSON-lines file per process at the end of
every group span, and the parent folds them back in with
:meth:`Recorder.collect_spool`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    group: int | None
    pid: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    covered = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            covered += end - start
            end_so_far = end
        elif end > end_so_far:
            covered += end - end_so_far
            end_so_far = end
    return covered


def busy_ns(spans: list[Span], name: str) -> int:
    """Busy time of one layer: the summed duration of its outermost
    spans (a recursive call into the same layer is not counted twice)."""
    by_id = {s.id: s for s in spans}
    total = 0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = (
                by_id.get(parent.parent) if parent.parent is not None else None
            )
        if not nested:
            total += span.duration_ns
    return total


class Recorder:
    """Span and counter store for one traced process.

    ``spool_dir`` is where forked workers write their spans; it must
    be set before a pool forks for worker spans to be collected.
    """

    def __init__(self, spool_dir: str | Path | None = None) -> None:
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        if self.spool_dir is not None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = self._root_pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Leaf layers called too often for one span per call: name ->
        #: [calls, total ns], plus the ns they ran outside any layer.
        self.leaves: dict[str, list[int]] = {}
        self.leaf_toplevel_ns = 0
        self._stack: list[tuple[int, bool]] = []
        self._layer_depth = 0
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []
        os.register_at_fork(after_in_child=self._adopt_fork)

    # -- recording -------------------------------------------------------

    def _adopt_fork(self) -> None:
        """In a forked child: drop the state inherited from the parent."""
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.leaves = {}
        self.leaf_toplevel_ns = 0
        self._stack = []
        self._layer_depth = 0
        self._next_id = self.pid << 32

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str, group: bool = False) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, group))
        if not group:
            self._layer_depth += 1
        return span_id

    def close(self, span_id: int, name: str, start_ns: int) -> None:
        end_ns = time.perf_counter_ns()
        popped, is_group = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        if not is_group:
            self._layer_depth -= 1
        parent = self._stack[-1][0] if self._stack else None
        group = span_id if is_group else next(
            (sid for sid, g in reversed(self._stack) if g), None
        )
        self.spans.append(
            Span(span_id, name, start_ns, end_ns, parent, group, self.pid)
        )
        if is_group and self._is_worker():
            self._spool()

    @contextmanager
    def span(self, name: str, group: bool = False) -> Iterator[None]:
        span_id = self.open(name, group)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.close(span_id, name, start)

    # -- instrumentation -------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        group: bool = False,
        after: Callable | None = None,
        leaf: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after(result, args)`` may
        read the result to bump counters. A ``leaf`` call only adds to
        the name's call count and total time (see :attr:`leaves`)."""
        recorder = self
        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter_ns() - start
                    totals = recorder.leaves.setdefault(name, [0, 0])
                    totals[0] += 1
                    totals[1] += elapsed
                    if not recorder._layer_depth:
                        recorder.leaf_toplevel_ns += elapsed

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = recorder.open(name, group)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span_id, name, start)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- worker spool ----------------------------------------------------

    def _is_worker(self) -> bool:
        return self.spool_dir is not None and self.pid != self._root_pid

    def _spool(self) -> None:
        path = self.spool_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "spans": self.spans,
                "counters": self.counters,
                "leaves": self.leaves,
                "leaf_toplevel_ns": self.leaf_toplevel_ns,
            }))
            fh.write("\n")
        self.spans = []
        self.counters = {}
        self.leaves = {}
        self.leaf_toplevel_ns = 0

    def collect_spool(self) -> "PassTrace":
        """Read and remove every worker spool file."""
        merged = PassTrace()
        if self.spool_dir is None or not self.spool_dir.is_dir():
            return merged
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    batch = json.loads(line)
                    merged.add(
                        PassTrace(
                            [Span(*s) for s in batch["spans"]],
                            batch["counters"],
                            batch["leaves"],
                            batch["leaf_toplevel_ns"],
                        )
                    )
            path.unlink()
        return merged

    # -- reading ---------------------------------------------------------

    def take(self) -> "PassTrace":
        """This process's record since the last take."""
        taken = PassTrace(
            self.spans, self.counters, self.leaves, self.leaf_toplevel_ns
        )
        self.spans, self.counters, self.leaves = [], {}, {}
        self.leaf_toplevel_ns = 0
        return taken


@dataclass
class PassTrace:
    """Spans, counters and leaf totals recorded over one pass."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    leaves: dict[str, list[int]] = field(default_factory=dict)
    #: Leaf time spent outside any layer span.
    leaf_toplevel_ns: int = 0

    def add(self, other: "PassTrace") -> None:
        self.spans.extend(other.spans)
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, (calls, total) in other.leaves.items():
            mine = self.leaves.setdefault(key, [0, 0])
            mine[0] += calls
            mine[1] += total
        self.leaf_toplevel_ns += other.leaf_toplevel_ns

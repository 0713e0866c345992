"""The Extrae substitute: hooks a process, emits a trace.

Section III, Step 1: "to perform this analysis the framework only
needs dynamic-memory allocations and deallocations and sampled memory
references for the LLC misses". The tracer therefore:

* observes every allocation/deallocation of a :class:`SimProcess`
  (registering address range, size and the *translated* call-stack —
  Extrae uses binutils to obtain human-readable references);
* filters allocations below a minimum size (the paper monitors only
  allocations larger than 4 KiB "to avoid small (and possibly
  frequent) allocations such as those related to I/O");
* owns the PEBS sampler and keeps its samples as NumPy columns;
* records phase (function) markers for the Folding analysis;
* accounts its own monitoring overhead so Table I's overhead column
  can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pebs.sampler import PebsSampler
from repro.runtime.allocator import Allocation
from repro.runtime.process import SimProcess
from repro.runtime.symbols import translate_cost_us, unwind_cost_us
from repro.trace.columnar import KIND_SAMPLE, NO_LATENCY, ColumnarTrace
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile
from repro.units import KIB, MICROSECOND


@dataclass(frozen=True, slots=True)
class TracerConfig:
    """Knobs of the tracing stage (paper defaults from Section IV-A)."""

    #: Minimum allocation size to record.
    min_alloc_size: int = 4 * KIB
    #: PEBS sampling period (paper: 37,589 on hardware).
    sampling_period: int = 7
    #: Modelled cost of storing one trace record.
    record_cost_us: float = 0.3
    #: Modelled cost of servicing one PEBS interrupt.
    sample_cost_us: float = 1.5
    #: Record per-sample access latency (Xeon-style PEBS; the Xeon Phi
    #: PMU the paper uses does not provide it).
    record_latency: bool = False


class Tracer:
    """Per-process tracer; attach with :meth:`attach`.

    The sparse records (allocations, frees, phase markers, statics and
    metadata) accumulate in :attr:`records`; sampled misses — the bulk
    of any trace — stay NumPy columns from the PMU model onwards and
    only meet the records in :meth:`columnar_trace`.
    """

    def __init__(
        self,
        config: TracerConfig | None = None,
        application: str = "",
        rank: int = 0,
    ) -> None:
        self.config = config or TracerConfig()
        self.rank = rank
        #: Everything but the samples, in emission order.
        self.records = TraceFile(
            application=application,
            ranks=1,
            sampling_period=self.config.sampling_period,
        )
        self.sampler = PebsSampler(
            period=self.config.sampling_period,
            phase=rank % self.config.sampling_period,
        )
        self._process: SimProcess | None = None
        #: Seconds of perturbation the tracer added (Table I overhead).
        self.overhead_seconds = 0.0
        #: Picked samples per fed chunk: (records appended before the
        #: chunk, addresses, times, latencies-or-None).
        self._sample_chunks: list[
            tuple[int, np.ndarray, np.ndarray, np.ndarray | None]
        ] = []

    # -- lifecycle -----------------------------------------------------------

    def attach(self, process: SimProcess) -> None:
        self._process = process
        process.add_observer(self)
        self.records.metadata["stack_region"] = [
            process.stack_region.base,
            process.stack_region.size,
        ]
        for name, region in process.statics.items():
            self.records.statics.append(
                StaticVarRecord(
                    name=name, rank=self.rank, address=region.base, size=region.size
                )
            )

    # -- AllocObserver -------------------------------------------------------

    def on_malloc(self, alloc: Allocation, clock: float) -> None:
        if alloc.size < self.config.min_alloc_size:
            return
        assert self._process is not None, "tracer not attached"
        callstack = self._process.symbols.translate(alloc.callstack)
        depth = len(callstack)
        self.overhead_seconds += (
            unwind_cost_us(depth)
            + translate_cost_us(depth)
            + self.config.record_cost_us
        ) * MICROSECOND
        self.records.append(
            AllocEvent(
                time=clock,
                rank=self.rank,
                address=alloc.address,
                size=alloc.size,
                callstack=callstack,
                allocator=alloc.allocator,
            )
        )

    def on_free(self, alloc: Allocation, clock: float) -> None:
        if alloc.size < self.config.min_alloc_size:
            return
        self.overhead_seconds += self.config.record_cost_us * MICROSECOND
        self.records.append(
            FreeEvent(time=clock, rank=self.rank, address=alloc.address)
        )

    # -- sampling ------------------------------------------------------------

    def record_misses(
        self,
        addresses: np.ndarray,
        times: np.ndarray,
        latencies: np.ndarray | None = None,
    ) -> int:
        """Feed a chunk of LLC misses through the PEBS sampler.

        Returns the number of samples folded into the trace.
        ``latencies`` is only stored when the tracer is configured for
        a latency-reporting PMU.
        """
        if not self.config.record_latency:
            latencies = None
        picked_addrs, picked_times, picked_lats = (
            self.sampler.sample_chunk_arrays(addresses, times, latencies)
        )
        n_picked = int(picked_addrs.size)
        if n_picked:
            self._sample_chunks.append(
                (
                    len(self.records.events),
                    picked_addrs,
                    picked_times,
                    picked_lats,
                )
            )
        self.overhead_seconds += (
            n_picked * self.config.sample_cost_us * MICROSECOND
        )
        return n_picked

    def record_phase(self, function: str, clock: float) -> None:
        """Mark entry into a code phase (for the Folding analysis)."""
        self.records.append(
            PhaseEvent(time=clock, rank=self.rank, function=function)
        )

    def columnar_trace(self) -> ColumnarTrace:
        """Everything traced so far as one :class:`ColumnarTrace`.

        Events are laid out in emission order — each sample chunk sits
        between the records appended before and after it — so the
        result equals columnarising a per-event trace of the same run,
        column for column, and exports to the same JSONL bytes.
        """
        base = ColumnarTrace.from_tracefile(self.records)
        chunks = self._sample_chunks
        if not chunks:
            return base
        n_records = base.n_events
        inserted_at = np.array([chunk[0] for chunk in chunks])
        samples_before = np.concatenate(
            ([0], np.cumsum([chunk[1].size for chunk in chunks]))
        )
        n_total = n_records + int(samples_before[-1])
        # Record i follows every chunk fed while fewer than i + 1
        # records existed.
        record_at = np.arange(n_records)
        record_at += samples_before[
            np.searchsorted(inserted_at, record_at, side="right")
        ]
        is_sample = np.ones(n_total, dtype=bool)
        is_sample[record_at] = False

        def merged(column: np.ndarray, samples) -> np.ndarray:
            out = np.empty(n_total, dtype=column.dtype)
            out[record_at] = column
            out[is_sample] = samples
            return out

        latencies = np.concatenate(
            [
                np.full(chunk[1].size, NO_LATENCY, dtype=np.int64)
                if chunk[3] is None
                else chunk[3]
                for chunk in chunks
            ]
        )
        return base.with_events(
            times=merged(
                base.times, np.concatenate([chunk[2] for chunk in chunks])
            ),
            kinds=merged(base.kinds, KIND_SAMPLE),
            event_ranks=merged(base.event_ranks, self.rank),
            addresses=merged(
                base.addresses,
                np.concatenate([chunk[1] for chunk in chunks]),
            ),
            sizes=merged(base.sizes, 0),
            latencies=merged(base.latencies, latencies),
            aux=merged(base.aux, -1),
            allocator_ids=merged(base.allocator_ids, -1),
        )

    # -- summary -------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.sampler.samples_taken

    def monitoring_overhead(self, base_runtime: float) -> float:
        """Overhead as a fraction of the uninstrumented runtime."""
        if base_runtime <= 0:
            raise ValueError("base runtime must be positive")
        return self.overhead_seconds / base_runtime

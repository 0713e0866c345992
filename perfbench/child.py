"""One measured run of one workload, in a fresh interpreter.

Started by ``perfbench/run.py``; prints one JSON object on its last
stdout line. Set-up ends at the first timed call, whose
``time.monotonic()`` is reported so the parent can charge interpreter
start-up, imports and input generation to set-up time.

Untraced mode runs passes until ``--seconds`` have elapsed. Traced
mode spends the first half untraced and the second half with every
layer wrapped, and reports the per-layer metrics of each traced pass
together with both halves' pass times.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402
    GOLDEN_SECTION,
    WORKLOADS,
    children_maxrss_mib,
)


def golden_for(workload: str, input_seed: int) -> dict | None:
    with open(ROOT / "perfbench" / "golden.json") as fh:
        golden = json.load(fh)
    return golden[GOLDEN_SECTION[workload]].get(str(input_seed))


#: Seconds :func:`speed_kernel` takes on the host the benchmark was
#: built on (2-vCPU x86 VM, Xeon at 2.0 GHz) when no other tenant
#: slows its core: the 5th percentile of 3,000 samples.
REF_KERNEL_S = 1.4e-4
#: Wall seconds between two speed samples.
SAMPLE_EVERY_S = 0.02
#: Kernels run back to back for one probe between passes (about 7 ms).
PROBE_KERNELS = 50
#: A sample slower than this many times the reference was interrupted
#: (the process lost its core for a moment), which says nothing about
#: the core's speed; contention alone slows the kernel by about 1.5x.
INTERRUPTED = 3.0


def speed_kernel() -> None:
    """A fixed slice of interpreter work (about 0.15 ms)."""
    total = 0
    for i in range(2000):
        total += i * i


class SpeedSampler:
    """How much slower than :data:`REF_KERNEL_S` the host runs now.

    The host's cores are shared with other tenants whose load comes
    and goes over seconds to minutes and slows everything this process
    does alike. A ``SIGALRM`` interval timer runs :func:`speed_kernel`
    every :data:`SAMPLE_EVERY_S` inside the measured process, between
    the program's own bytecodes, so the samples see the same core at
    the same moments as the pass (overhead about 1%). Timers are not
    inherited by forked pool workers.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed_kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def probe(self) -> float:
        """Slowdown of :data:`PROBE_KERNELS` kernels run back to back
        now, for use between passes while the timer is stopped."""
        self.samples = []
        for _ in range(PROBE_KERNELS):
            self._sample(None, None)
        return self.take()

    def take(self) -> float:
        """Mean slowdown since the last take, interrupted samples left
        out (1.0 without samples)."""
        ratios = [s / REF_KERNEL_S for s in self.samples]
        self.samples = []
        kept = [r for r in ratios if r <= INTERRUPTED]
        return statistics.fmean(kept) if kept else 1.0


def run_passes(
    workload, state, golden, until: float, records, problems, sampler=None
):
    """Run whole passes until ``until`` (monotonic), at least one.

    With a ``sampler``, each record gets the host slowdown: sampled
    during the pass for a single-process workload, else the mean of
    probes just before and just after it, since in-pass samples would
    share the cores with the workload's own pool workers."""
    probed = sampler is not None and not workload.single_process
    before = sampler.probe() if probed else None
    while True:
        if sampler is not None:
            sampler.take()
        record = workload.run_pass(state)
        if probed:
            after = sampler.probe()
            record.detail["slowdown"] = (before + after) / 2
            before = after
        elif sampler is not None:
            record.detail["slowdown"] = sampler.take()
        problems.extend(workload.check(record, golden))
        records.append(record)
        if time.monotonic() >= until:
            return


def summary(record) -> dict:
    return {
        "wall_s": record.wall_s,
        "items": record.items,
        "attempted": record.attempted,
        "failed": record.failed,
        "latencies_ms": record.latencies_ms,
        "detail": record.detail,
    }


def traced_run(workload, state, golden, ready: float, seconds: float,
               spool: Path, problems: list[str]):
    """Untraced passes for the first half of ``seconds``, then passes
    with every layer wrapped; returns (untraced, traced, layers)."""
    from perfbench.layers import install, layer_metrics
    from perfbench.spans import Recorder

    untraced: list = []
    traced: list = []
    layers: list[dict] = []
    run_passes(workload, state, golden, ready + seconds / 2, untraced, problems)
    recorder = Recorder(spool / "workers")
    install(recorder)
    state["tracer"] = recorder
    try:
        while True:
            run_passes(workload, state, golden, 0, traced, problems)
            own, workers = recorder.take(), recorder.collect_spool()
            layers.append(layer_metrics(own, workers, traced[-1]))
            if time.monotonic() >= ready + seconds:
                break
    finally:
        recorder.restore()
        state["tracer"] = None
    # The last traced pass's spans, one JSON list per line.
    with open(spool / f"spans-{workload.name}.jsonl", "w") as fh:
        for span in own.spans + workers.spans:
            fh.write(json.dumps(span) + "\n")
    return untraced, traced, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spool", default=None,
                        help="directory for spans (traced mode)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    problems: list[str] = []
    traced: list = []
    layers: list[dict] = []
    sampler = SpeedSampler()
    sampler.start()
    try:
        state = workload.setup(args.input_seed)
        golden = golden_for(args.workload, args.input_seed)
        ready = time.monotonic()
        setup_slowdown = sampler.take()
        if args.trace:
            sampler.stop()
            untraced, traced, layers = traced_run(
                workload, state, golden, ready, args.seconds,
                Path(args.spool), problems,
            )
        else:
            # Pool workers share the cores with the measured process;
            # in-pass samples would then measure the sweep's own load.
            if not workload.single_process:
                sampler.stop()
            untraced = []
            run_passes(
                workload, state, golden, ready + args.seconds, untraced,
                problems, sampler,
            )
    finally:
        sampler.stop()

    import numpy

    print(
        json.dumps(
            {
                "ready_monotonic": ready,
                "setup_slowdown": setup_slowdown,
                "maxrss_mib": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
                / 1024,
                "children_maxrss_mib": children_maxrss_mib(),
                "numpy": numpy.__version__,
                "untraced": [summary(r) for r in untraced],
                "traced": [summary(r) for r in traced],
                "layers": layers,
                "problems": problems,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

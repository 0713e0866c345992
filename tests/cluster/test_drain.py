"""Queue drain: skipping hopeless requests changes no decision.

The drain passes over a queued request whose admission bar exceeds the
fleet's largest hole instead of asking the scheduler policy. The
reference below keeps the try-everyone drain; both must write the same
journal and report across policies, down-granting and the faulted
plan, while the scheduler is asked far less often.
"""

from __future__ import annotations

import pytest

from repro.cluster import ArrivalStream, ClusterSim, make_fleet
from repro.cluster.backpressure import BackpressurePolicy
from repro.cluster.scheduler import SCHEDULER_NAMES, get_scheduler
from repro.faults.plan import FaultPlan
from repro.units import MIB

MIX = ("phaseshift", "minife", "cgpop")
N_ARRIVALS = 400
SEEDS = (0, 7)

#: Keyword sets the drain is compared under. ``down-grant`` raises
#: the minimum grant to the whole demand so the 0.5 down-grant bar is
#: the lower one and the down-grant path really runs; ``faulted`` is
#: the crash / recover / kill / burst plan of the benchmark's faulted
#: cluster rung.
MODES = {
    "plain": {},
    "down-grant": {
        "min_grant_fraction": 1.0,
        "backpressure": BackpressurePolicy(down_grant_fraction=0.5),
    },
    "faulted": {
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
    },
}

#: Journal line kinds each mode must produce, so a comparison cannot
#: pass vacuously.
EXPECTED_KINDS = {
    "plain": ("queue", "dequeue", "readvise"),
    "down-grant": ("queue", "dequeue", "downgrant"),
    "faulted": ("crash", "recover", "casualty", "shed"),
}


class TryEveryoneSim(ClusterSim):
    """Reference drain: every queued request goes through the policy."""

    def _drain_queue(self) -> None:
        still_waiting = []
        for request in self.queue:
            if not self._try_admit(request, queued=True):
                still_waiting.append(request)
        self.queue = still_waiting


def counting(policy):
    """Wrap a policy; returns (wrapper, one-element call counter)."""
    calls = [0]

    def wrapper(nodes, bar):
        calls[0] += 1
        return policy(nodes, bar)

    wrapper.__name__ = policy.__name__
    return wrapper, calls


@pytest.fixture(scope="module")
def frameworks():
    """Profiled frameworks per seed, shared by every run of that seed
    (profiling is pure in app, machine and seed)."""
    return {}


def run(cls, seed, policy_name, mode, frameworks):
    policy, calls = counting(get_scheduler(policy_name))
    sim = cls(
        make_fleet(4, 320 * MIB),
        ArrivalStream(seed=seed, n_arrivals=N_ARRIVALS, rate=0.2, mix=MIX),
        scheduler=policy,
        **MODES[mode],
    )
    sim._frameworks = frameworks.setdefault(seed, {})
    report = sim.run()
    return sim.journal_text(), report.to_dict(), calls[0]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy_name", SCHEDULER_NAMES)
def test_skipping_drain_matches_try_everyone(seed, policy_name, frameworks):
    ref_calls = new_calls = 0
    for mode in MODES:
        ref_journal, ref_report, ref_n = run(
            TryEveryoneSim, seed, policy_name, mode, frameworks
        )
        journal, report, n = run(
            ClusterSim, seed, policy_name, mode, frameworks
        )
        assert journal == ref_journal, mode
        assert report == ref_report, mode
        kinds = {line.split(" ", 2)[1] for line in journal.splitlines()}
        for kind in EXPECTED_KINDS[mode]:
            assert kind in kinds, (mode, kind)
        ref_calls += ref_n
        new_calls += n
    assert new_calls * 20 <= ref_calls, (ref_calls, new_calls)

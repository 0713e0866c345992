"""Replay equivalence pin: every replaying runner on every app.

The allocation timeline is replayed under an interposer by the
framework (auto-hbwmalloc at every default budget and strategy), by
the autohbw and ``numactl -p`` baselines, and by the framework under
ASLR drift (the fault injector shifts every memoised call-stack). The
digests below were computed before the replay fast path (whole-context
entry, memoised backtraces, compiled timeline) existed; the fast path
must reproduce every placement, promoted fraction, high-water mark,
overhead and interposer counter bit for bit.

Reports are advised from a profile set in a total order: the analysis
stage leaves objects that tie on every ranking key in set-iteration
order, which varies with ``PYTHONHASHSEED``, and a pin must not.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.advisor.advisor import HmemAdvisor
from repro.advisor.strategies import STRATEGY_NAMES, get_strategy
from repro.apps.registry import get_app
from repro.faults.plan import FaultPlan
from repro.pipeline.experiment import default_budgets
from repro.pipeline.framework import HybridMemoryFramework
from repro.placement.policies import (
    run_autohbw,
    run_framework,
    run_numactl_preferred,
)

ASLR_DRIFT = FaultPlan(aslr_offset=4096)

#: sha256 of :func:`_replay_record` per registered app.
REPLAY_SHA256 = {
    "cgpop": "5e9cfe477a7a6dc4b0b937f38719d440e34fa7acad75e5ae400c126f568171f9",
    "gtc-p": "3b0418e07c6f357ea80b1facac3ab100b76598323385a93ae66a6cab35ba95fb",
    "hpcg": "56acd19cb959c45df96fb126420b570fd25d7b9eca9c925b7ec79ed1ae6a012c",
    "lulesh": "730c655fdf02f4c7d934703a20076f7943dc37c07f6af4bd035c30ba71a2c4bc",
    "maxw-dgtd": "73e9addb4a38e33af020ad2fb7c5ffce358245281e37f2a745be80d2f3afb60f",
    "minife": "43306814e6e287d93010ee1e4798c6453130a4a7abd40b4397cf7c9f99fd41f6",
    "nas-bt": "b913f040fb3683d15392192b3601bb117f5dcf53fc21ab9be6d73c947342077b",
    "phaseshift": "97abc078f42e502686d3fcbacac1a5c489a5a64a1788aedb51fe98944042d9d8",
    "snap": "54d938f01117b3c853164986cc4a06f3827d4588afc6ab667a8fb8c50ce3b21f",
}


def _replay_fields(outcome) -> dict:
    replay = outcome.replay
    stats = getattr(replay.hook, "stats", None)
    return {
        "placements": replay.placements,
        "promoted_fractions": replay.promoted_fractions,
        "hbw_hwm_bytes": replay.hbw_hwm_bytes,
        "alloc_overhead_seconds": replay.alloc_overhead_seconds,
        "stats": dataclasses.asdict(stats) if stats is not None else None,
    }


def _replay_record(name: str) -> dict:
    app = get_app(name)
    framework = HybridMemoryFramework(app, seed=0)
    profiling = framework.profile()
    machine = framework.machine
    profiles = framework.analyze()
    profiles = dataclasses.replace(
        profiles,
        profiles=sorted(
            profiles.profiles,
            key=lambda p: (p.sampled_misses, p.size, repr(p.key)),
            reverse=True,
        ),
    )
    record = {
        "autohbw": _replay_fields(run_autohbw(app, machine, profiling)),
        "numactl": _replay_fields(
            run_numactl_preferred(app, machine, profiling)
        ),
    }
    for budget in default_budgets(app):
        for strategy in STRATEGY_NAMES:
            report = HmemAdvisor(framework.memory_spec(budget)).advise(
                profiles, get_strategy(strategy)
            )
            record[f"{strategy}@{budget}"] = _replay_fields(
                run_framework(app, machine, profiling, report, budget)
            )
            record[f"{strategy}@{budget}+aslr"] = _replay_fields(
                run_framework(
                    app, machine, profiling, report, budget, plan=ASLR_DRIFT
                )
            )
    return record


def _digest(record: dict) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(REPLAY_SHA256))
def test_replay_matches_pinned_digest(name):
    assert _digest(_replay_record(name)) == REPLAY_SHA256[name]


def test_aslr_drift_is_recovered():
    """The drifted replay really goes through the recovery path."""
    record = _replay_record("minife")
    drifted = [v for k, v in record.items() if k.endswith("+aslr")]
    assert drifted
    assert all(r["stats"]["aslr_recoveries"] > 0 for r in drifted)

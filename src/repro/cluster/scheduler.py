"""Pluggable node-selection policies for cluster admission.

The joint scheduler decides twice per arrival: *which node* hosts the
tenant (this module) and *which objects* of the tenant go fast (the
existing knapsack advisor, run against the node's remaining HBW
budget by the simulator). Node selection sees each node's current
hole structure and tenancy and returns the node to admit into, or
``None`` to queue the job.

All three policies only admit a node whose *largest contiguous hole*
clears the job's minimum acceptable grant — fragmentation, not just
free bytes, decides admissibility. The simulator hands policies only
*eligible* nodes (status ``up``): draining and crashed nodes never
appear in the list, so policies stay fault-oblivious.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import ConfigError


class NodeView(Protocol):
    """What a policy may inspect about one node (read-only)."""

    name: str

    @property
    def largest_free(self) -> int: ...

    @property
    def total_free(self) -> int: ...

    @property
    def n_tenants(self) -> int: ...


#: A policy maps (nodes in declaration order, minimum grant) to the
#: chosen node or None. Declaration order is the deterministic
#: tie-break everywhere. Contract: the answer is None or one of the
#: given nodes whose ``largest_free`` reaches the grant — so None
#: whenever no node's hole does. The simulator raises ConfigError on
#: a violation and relies on the contract to skip asking a policy
#: about requests no hole can admit.
SchedulerPolicy = Callable[[list, int], "object | None"]


def first_fit(nodes: list, min_grant: int):
    """First node (declaration order) whose largest hole fits."""
    for node in nodes:
        if node.largest_free >= min_grant:
            return node
    return None


def best_fit(nodes: list, min_grant: int):
    """Node with the *tightest* hole that still fits.

    Preserves the large holes for large tenants — the classic
    anti-fragmentation heuristic, at the cost of packing nodes hot.
    """
    best = None
    for node in nodes:
        hole = node.largest_free
        if hole >= min_grant and (best is None or hole < best.largest_free):
            best = node
    return best


def load_aware(nodes: list, min_grant: int):
    """Least-loaded fitting node (fewest resident tenants).

    Tenants on a node split its delivered bandwidth, so spreading
    tenancy is the contention-minimising choice even when it
    fragments budgets faster.
    """
    best = None
    for node in nodes:
        if node.largest_free >= min_grant and (
            best is None or node.n_tenants < best.n_tenants
        ):
            best = node
    return best


_POLICIES: dict[str, SchedulerPolicy] = {
    "first-fit": first_fit,
    "best-fit": best_fit,
    "load-aware": load_aware,
}

SCHEDULER_NAMES: tuple[str, ...] = tuple(_POLICIES)


def get_scheduler(name: str) -> SchedulerPolicy:
    """Look a policy up by CLI name."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; have {sorted(_POLICIES)}"
        ) from None

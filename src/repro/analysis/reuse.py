"""Reuse-distance (stack-distance) analysis of request streams.

Mattson's classic result: an LRU cache of capacity ``C`` hits a request
iff the request's *reuse distance* — the number of distinct blocks
referenced since the previous access to the same block — is strictly less
than ``C``.  One pass over a trace therefore yields the exact LRU
hit-ratio curve for *every* cache size simultaneously.

This explains FBF analytically: a chunk shared by two chains is
rereferenced after roughly one chain's worth of distinct chunks, so LRU
needs capacity ≈ chain length to catch it, while FBF pins it with two
blocks of Queue2.  :func:`recovery_reuse_profile` computes the
distribution of reuse distances per FBF priority class to make that
argument quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..codes.layout import CodeLayout
from ..core.priorities import PriorityDictionary
from ..core.scheme import SchemeMode, generate_plan
from ..engine import stackdist

__all__ = [
    "reuse_distances",
    "lru_hit_curve",
    "RecoveryReuseProfile",
    "recovery_reuse_profile",
]

INFINITE = -1  # marker for first-ever references


def reuse_distances(stream: Iterable[Hashable]) -> list[int]:
    """Reuse distance of every request (``INFINITE`` for cold misses).

    The engine's Fenwick-tree pass (:func:`repro.engine.stackdist.
    reuse_distances`), O(N log N).
    """
    return list(stackdist.reuse_distances(list(stream)))


def lru_hit_curve(
    stream: Sequence[Hashable], capacities: Iterable[int]
) -> dict[int, float]:
    """Exact LRU hit ratio for each capacity, from one distance pass."""
    profile = stackdist.StackDistanceProfile(stream)
    n = profile.requests
    curve: dict[int, float] = {}
    for cap in capacities:
        if cap < 0:
            raise ValueError(f"capacity must be >= 0, got {cap}")
        curve[cap] = profile.hits_at(cap) / n if n else 0.0
    return curve


@dataclass(frozen=True)
class RecoveryReuseProfile:
    """Reuse structure of one recovery plan's request stream."""

    total_requests: int
    cold_misses: int
    #: reuse distances of rereferences, keyed by the chunk's FBF priority.
    distances_by_priority: dict[int, tuple[int, ...]]

    @property
    def rereferences(self) -> int:
        return self.total_requests - self.cold_misses

    def min_lru_capacity_for_all_hits(self) -> int:
        """Smallest LRU cache catching every rereference of this plan."""
        all_d = [d for ds in self.distances_by_priority.values() for d in ds]
        return max(all_d) + 1 if all_d else 0


def recovery_reuse_profile(
    layout: CodeLayout,
    failed_cells,
    mode: SchemeMode = "fbf",
) -> RecoveryReuseProfile:
    """Profile the reuse structure of one partial stripe recovery."""
    plan = generate_plan(layout, failed_cells, mode)
    priorities = PriorityDictionary(plan)
    stream = plan.request_sequence
    distances = reuse_distances(stream)
    by_prio: dict[int, list[int]] = {}
    cold = 0
    for cell, dist in zip(stream, distances):
        if dist == INFINITE:
            cold += 1
        else:
            by_prio.setdefault(priorities[cell], []).append(dist)
    return RecoveryReuseProfile(
        total_requests=len(stream),
        cold_misses=cold,
        distances_by_priority={k: tuple(v) for k, v in by_prio.items()},
    )

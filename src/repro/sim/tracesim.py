"""Layout-flavoured adapter over the unified trace replay.

The actual replay implementation lives in :mod:`repro.engine.tracesim`
(one implementation for every code backend); this module keeps the
original XOR-world signatures — ``simulate_cache_trace(layout, errors,
...)`` and the ``(plan, priorities)``-returning :class:`PlanCache` —
delegating everything to an :class:`~repro.engine.backends.XORBackend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..codes.layout import CodeLayout
from ..core.policy import CachePolicy
from ..core.priorities import PriorityDictionary
from ..core.scheme import RecoveryPlan, SchemeMode
from ..engine.backends import XORBackend
from ..engine.tracesim import PlanCache as EnginePlanCache
from ..engine.tracesim import TraceSimResult, simulate_trace

if TYPE_CHECKING:  # annotation-only: sim stays level with workloads' consumers
    from ..workloads.errors import PartialStripeError

__all__ = ["TraceSimResult", "simulate_cache_trace", "PlanCache"]


class PlanCache:
    """Shape-keyed memo of recovery plans + priorities (shared by runs).

    Compatibility wrapper over :class:`repro.engine.tracesim.PlanCache`
    keeping the XOR-world :meth:`get` contract — a ``(RecoveryPlan,
    PriorityDictionary)`` pair per error shape.  See the engine class for
    sharing and eviction semantics.
    """

    def __init__(
        self,
        layout: CodeLayout,
        scheme_mode: SchemeMode,
        max_entries: int | None = None,
    ):
        self.layout = layout
        self.scheme_mode: SchemeMode = scheme_mode
        self.max_entries = max_entries
        self._engine = EnginePlanCache(
            XORBackend(layout, scheme_mode), max_entries=max_entries
        )

    def __len__(self) -> int:
        return len(self._engine)

    def get(
        self, error: PartialStripeError
    ) -> tuple[RecoveryPlan, PriorityDictionary]:
        # The backend stores the native (plan, priorities) pair as the
        # engine plan's source, so repeated gets return the same objects.
        return self._engine.get(error).source

    def stats(self) -> dict[str, int]:
        """Lifetime counters: plan-memo hits/misses and live entries."""
        return self._engine.stats()


def simulate_cache_trace(
    layout: CodeLayout,
    errors: Sequence[PartialStripeError],
    policy: str = "fbf",
    capacity_blocks: int = 64,
    scheme_mode: SchemeMode = "fbf",
    workers: int = 1,
    policy_factory: Callable[[int], CachePolicy] | None = None,
    plan_cache: PlanCache | None = None,
    policy_kwargs: dict | None = None,
    hint: str = "priority",
    sanitize: bool = False,
) -> TraceSimResult:
    """Replay ``errors`` on an XOR layout; see :func:`repro.engine.
    tracesim.simulate_trace` for the parameter semantics."""
    if plan_cache is None:
        engine_cache = None
        backend = XORBackend(layout, scheme_mode)
    elif plan_cache.layout is not layout or plan_cache.scheme_mode != scheme_mode:
        raise ValueError("plan_cache was built for a different layout/scheme")
    else:
        engine_cache = plan_cache._engine
        backend = engine_cache.backend
    return simulate_trace(
        backend,
        errors,
        policy=policy,
        capacity_blocks=capacity_blocks,
        workers=workers,
        policy_factory=policy_factory,
        plan_cache=engine_cache,
        policy_kwargs=policy_kwargs,
        hint=hint,
        sanitize=sanitize,
    )

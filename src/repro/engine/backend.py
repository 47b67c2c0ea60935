"""Recovery-engine protocols: code backends, plans, priority models.

The paper evaluates FBF on four XOR 3DFT codes and (footnote 3) on a
Local Reconstruction Code.  Everything the cache study needs from a code
is the same small contract:

* a deterministic failure workload (``generate_events``);
* a mapping from one failure event to a :class:`EnginePlan` — the ordered
  recovery *steps*, each reading the surviving members of one parity
  relation (``build_plan``), memoizable by a shape key (``plan_key``);
* per-block FBF metadata derived from the plan: chain-share counts and
  the Table II priorities.

:class:`CodeBackend` captures that contract; the replay engines in
:mod:`repro.engine.tracesim` (untimed) and :mod:`repro.engine.timed`
(event-kernel) are each written once against it, so adding a code means
writing one adapter — never another simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Hashable, Protocol, runtime_checkable

__all__ = [
    "Unit",
    "RecoveryStep",
    "EnginePlan",
    "CodeBackend",
    "PriorityModel",
    "TablePriorityModel",
    "SharePriorityModel",
    "PRIORITY_MODELS",
    "make_priority_model",
    "MAX_PRIORITY",
]

#: A cache/storage unit: an XOR-code cell ``(row, disk)`` or an LRC block
#: ``("d"|"lp"|"gp", i)``.  The engine treats units as opaque hashables.
Unit = Hashable

MAX_PRIORITY = 3


@dataclass(frozen=True)
class RecoveryStep:
    """One repair step: rebuild ``target`` from the ``reads`` of one chain.

    ``detail`` carries the backend's native object for this step (an XOR
    :class:`~repro.core.scheme.ChainAssignment`, an LRC equation) so
    backend-aware consumers — the verifying datapath, analysis code — can
    reach the full structure without the engine knowing about it.
    """

    target: Unit
    reads: tuple[Unit, ...]
    detail: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class EnginePlan:
    """A complete recovery plan for one failure event, engine view.

    ``steps`` are ordered; the request stream replays each step's reads in
    sequence.  Units read by several steps repeat in the stream — the
    rereference structure FBF exploits.  ``source`` holds the backend's
    native plan (an XOR :class:`~repro.core.scheme.RecoveryPlan`, an LRC
    plan) for analysis; it never participates in equality.
    """

    steps: tuple[RecoveryStep, ...]
    source: Any = field(default=None, compare=False)

    @cached_property
    def request_sequence(self) -> tuple[Unit, ...]:
        """Every unit read during recovery, in issue order."""
        return tuple(unit for step in self.steps for unit in step.reads)

    @cached_property
    def share_counts(self) -> dict[Unit, int]:
        """unit -> number of steps (selected chains) that read it."""
        counts: dict[Unit, int] = {}
        for step in self.steps:
            for unit in step.reads:
                counts[unit] = counts.get(unit, 0) + 1
        return counts

    @cached_property
    def priorities(self) -> dict[Unit, int]:
        """FBF priorities (paper Table II): share counts capped at 3."""
        return {u: min(n, MAX_PRIORITY) for u, n in self.share_counts.items()}

    def priority_of(self, unit: Unit) -> int:
        """Table II priority with the paper's default of 1 for unknowns."""
        return self.priorities.get(unit, 1)

    @cached_property
    def priority_requests(self) -> tuple[tuple[Unit, int], ...]:
        """``(unit, Table II priority)`` pairs in issue order.

        Every unit in :attr:`request_sequence` is read by at least one
        step, so it always has an entry in :attr:`priorities` — the
        pairs can be precomputed once per plan and replayed without a
        per-request lookup (the trace replay's hot path).
        """
        prio = self.priorities
        return tuple((unit, prio[unit]) for unit in self.request_sequence)

    @cached_property
    def share_requests(self) -> tuple[tuple[Unit, int], ...]:
        """``(unit, raw share count)`` pairs in issue order."""
        counts = self.share_counts
        return tuple((unit, counts[unit]) for unit in self.request_sequence)

    @property
    def targets(self) -> tuple[Unit, ...]:
        return tuple(step.target for step in self.steps)

    @property
    def unique_reads(self) -> int:
        """Distinct units that must come from disk at least once."""
        return len(self.share_counts)

    @property
    def total_requests(self) -> int:
        return len(self.request_sequence)


@runtime_checkable
class CodeBackend(Protocol):
    """What the replay engines need from an erasure code.

    Implementations must be deterministic: equal constructor parameters
    give plans and events that are equal value for value (the sweep
    engine's process pool and result cache both rely on it).
    """

    @property
    def code_label(self) -> str:
        """Row label, e.g. ``"TIP-code"`` or ``"LRC(12,2,2)"``."""
        ...

    @property
    def scheme_label(self) -> str:
        """Chain-selection mode label (``"fbf"``/``"typical"``/...)."""
        ...

    @property
    def p(self) -> int:
        """The prime parameter for XOR codes; 0 where not applicable."""
        ...

    def plan_key(self, event: Any) -> Hashable:
        """Memo key: events with equal keys share one recovery plan."""
        ...

    def build_plan(self, event: Any) -> EnginePlan:
        """The recovery plan for one failure event."""
        ...

    def generate_events(self, n: int, seed: int | None) -> list[Any]:
        """A deterministic failure trace of ``n`` events (sorted by time)."""
        ...


# -- priority models ----------------------------------------------------------

class PriorityModel(Protocol):
    """Turns a plan into the per-request hint fed to the cache policy."""

    name: str

    def bind(self, plan: EnginePlan) -> Callable[[Unit], int]:
        """A fast unit -> hint lookup for one plan's replay."""
        ...

    def sequence(self, plan: EnginePlan) -> tuple[tuple[Unit, int], ...]:
        """The plan's request stream pre-paired with hints (cached on
        the plan); what the trace replay iterates."""
        ...


class TablePriorityModel:
    """The paper's Table II hint: share count capped at 3, default 1."""

    name = "priority"

    def bind(self, plan: EnginePlan) -> Callable[[Unit], int]:
        get = plan.priorities.get
        return lambda unit: get(unit, 1)

    def sequence(self, plan: EnginePlan) -> tuple[tuple[Unit, int], ...]:
        return plan.priority_requests


class SharePriorityModel:
    """Raw chain-share counts (>= 1), for many-queue FBF variants."""

    name = "share"

    def bind(self, plan: EnginePlan) -> Callable[[Unit], int]:
        get = plan.share_counts.get
        return lambda unit: max(get(unit, 0), 1)

    def sequence(self, plan: EnginePlan) -> tuple[tuple[Unit, int], ...]:
        return plan.share_requests


PRIORITY_MODELS: dict[str, PriorityModel] = {
    "priority": TablePriorityModel(),
    "share": SharePriorityModel(),
}


def make_priority_model(hint: str) -> PriorityModel:
    """Resolve a hint name to its :class:`PriorityModel`."""
    try:
        return PRIORITY_MODELS[hint]
    except KeyError:
        raise ValueError(
            f"hint must be one of {', '.join(sorted(PRIORITY_MODELS))}, "
            f"got {hint!r}"
        ) from None

"""The two backend families: XOR 3DFT codes and Local Reconstruction Codes.

Each adapter translates its world's native planner into the engine
contract of :mod:`repro.engine.backend`:

* :class:`XORBackend` — wraps :func:`repro.core.generate_plan` over a
  :class:`~repro.codes.layout.CodeLayout` (TIP, HDD1, STAR,
  Triple-STAR).  Steps mirror the plan's chain assignments; the plan key
  is the error's ``(disk, start_row, length)`` shape — the paper's "same
  format of partial stripe error" memo.
* :class:`LRCBackend` — wraps :func:`repro.lrc.plan_lrc_recovery` over an
  :class:`~repro.lrc.LRCCode`.  Steps pair each failed block with one
  selected equation (the greedy planner picks exactly one rank-raising
  equation per failure); the plan key is the failed-block batch itself.

Each engine plan's ``source`` is the native plan it was built from (a
:class:`~repro.core.scheme.RecoveryPlan`, an LRC plan).  The Table II
priorities are the engine plan's own (:attr:`~repro.engine.backend.
EnginePlan.priorities`), derived once per shape.

Both produce byte-identical request streams and priorities to the
pre-unification replay implementations — pinned by
``tests/engine/test_golden_equivalence.py``.

Imports of :mod:`repro.sim` are deferred into the geometry/datapath
factories: the sim package's controller imports this module, so a
module-level import would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from ..codes.layout import CodeLayout
from ..core.scheme import SchemeMode, generate_plan
from ..lrc.code import LRCCode
from ..lrc.scheme import plan_lrc_recovery
from ..lrc.workload import LRCFailureEvent, LRCWorkloadConfig, generate_lrc_failures
from ..workloads.errors import ErrorTraceConfig, PartialStripeError, generate_errors
from .backend import EnginePlan, RecoveryStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.array import ArrayGeometry, FlatGeometry
    from ..sim.datapath import VerifyingDataPath

__all__ = ["XORBackend", "LRCBackend"]

#: Multi-failure-heavy batch weights for LRC benchmark workloads: the
#: single-failure-dominant field distribution makes every recovery a local
#: repair with no chain overlap, which exercises nothing; the overlap FBF
#: targets appears once batches routinely span groups (cf. the CLI's
#: footnote-3 sweep).
LRC_BENCH_WEIGHTS: tuple[float, ...] = (0.3, 0.3, 0.25, 0.15)


class XORBackend:
    """Engine adapter for the four XOR 3DFT array codes."""

    def __init__(self, layout: CodeLayout, scheme_mode: SchemeMode = "fbf"):
        if scheme_mode not in ("typical", "fbf", "greedy"):
            raise ValueError(f"unknown scheme mode {scheme_mode!r}")
        self.layout = layout
        self.scheme_mode: SchemeMode = scheme_mode

    def __repr__(self) -> str:
        return f"XORBackend({self.layout.name}, p={self.layout.p}, {self.scheme_mode})"

    @property
    def code_label(self) -> str:
        return self.layout.name

    @property
    def scheme_label(self) -> str:
        return self.scheme_mode

    @property
    def p(self) -> int:
        return self.layout.p

    def plan_key(self, event: PartialStripeError) -> Hashable:
        return event.shape

    def build_plan(self, event: PartialStripeError) -> EnginePlan:
        plan = generate_plan(self.layout, event.cells(self.layout), self.scheme_mode)
        steps = tuple(
            RecoveryStep(target=a.failed_cell, reads=a.reads, detail=a)
            for a in plan.assignments
        )
        return EnginePlan(steps=steps, source=plan)

    def generate_events(self, n: int, seed: int | None) -> list[PartialStripeError]:
        return generate_errors(self.layout, ErrorTraceConfig(n_errors=n, seed=seed))

    # -- timed-replay hooks ---------------------------------------------------
    def make_geometry(self, chunk_size: int, stripes: int) -> "ArrayGeometry":
        from ..sim.array import ArrayGeometry

        return ArrayGeometry(layout=self.layout, chunk_size=chunk_size, stripes=stripes)

    def make_datapath(self, payload_size: int, seed: int) -> "VerifyingDataPath":
        from ..sim.datapath import PayloadOracle, VerifyingDataPath

        return VerifyingDataPath(
            PayloadOracle(self.layout, payload_size=payload_size, seed=seed)
        )


class LRCBackend:
    """Engine adapter for ``LRC(k, l, g)`` (the paper's footnote 3)."""

    def __init__(
        self,
        code: LRCCode | None = None,
        batch_size_weights: tuple[float, ...] = LRC_BENCH_WEIGHTS,
    ):
        self.code = code if code is not None else LRCCode()
        self.batch_size_weights = batch_size_weights

    def __repr__(self) -> str:
        return f"LRCBackend({self.code.name})"

    @property
    def code_label(self) -> str:
        return self.code.name

    @property
    def scheme_label(self) -> str:
        # LRC planning has a single strategy (greedy full-rank equation
        # selection, locals first) — reported under the paper's label.
        return "fbf"

    @property
    def p(self) -> int:
        return 0

    def plan_key(self, event: LRCFailureEvent) -> Hashable:
        return event.failed

    def build_plan(self, event: LRCFailureEvent) -> EnginePlan:
        plan = plan_lrc_recovery(self.code, event.failed)
        # The greedy planner adds exactly one rank-raising equation per
        # failed block, so the two tuples zip one-to-one.  Reads stay in
        # equation order — the stream the LRC replay always produced.
        steps = tuple(
            RecoveryStep(target=target, reads=reads, detail=eq)
            for target, eq, reads in zip(
                plan.failed, plan.equations, plan.reads_per_equation
            )
        )
        return EnginePlan(steps=steps, source=plan)

    def generate_events(self, n: int, seed: int | None) -> list[LRCFailureEvent]:
        return generate_lrc_failures(
            self.code,
            LRCWorkloadConfig(
                n_events=n, seed=seed, batch_size_weights=self.batch_size_weights
            ),
        )

    # -- timed-replay hooks ---------------------------------------------------
    def make_geometry(self, chunk_size: int, stripes: int) -> "FlatGeometry":
        from ..sim.array import FlatGeometry

        return FlatGeometry(
            units=self.code.all_blocks, chunk_size=chunk_size, stripes=stripes
        )

    def make_datapath(self, payload_size: int, seed: int) -> Any:
        raise ValueError(
            f"verify_payloads is not supported by {self.code.name}: the LRC "
            "datapath solves equations jointly per batch, not per chain"
        )

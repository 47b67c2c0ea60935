"""Synthetic partial-stripe-error traces (paper §IV-A).

A :class:`PartialStripeError` is a run of contiguous failed chunks on one
disk within one stripe — the paper's fundamental failure unit, bounded by
``(p-1) x chunksize`` (a larger loss is whole-stripe reconstruction,
outside this paper's scope).

The generator reproduces the evaluation's workload model plus the locality
structure the paper cites from Bairavasundaram et al. and Schroeder et al.:

* error sizes uniform on ``[1, p-1]`` chunks (configurable distribution);
* *spatial locality* — with probability ``spatial_locality``, the next
  error lands within ``neighbor_distance`` stripes of the previous one
  ("20% to 60% of all errors have a neighbor within a distance of less
  than 10 sectors");
* *temporal locality* — errors arrive in bursts: short intra-burst gaps,
  long gaps between bursts.

One stripe carries at most one error (the paper treats co-stripe errors
as a single contiguous run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..codes.layout import Cell, CodeLayout
from ..utils import make_rng
from .distributions import SizeDistribution

__all__ = ["PartialStripeError", "ErrorTraceConfig", "generate_errors"]


@dataclass(frozen=True, order=True)
class PartialStripeError:
    """A contiguous run of failed chunks on one disk of one stripe."""

    time: float
    stripe: int
    disk: int
    start_row: int
    length: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"negative time {self.time}")
        if self.stripe < 0:
            raise ValueError(f"negative stripe {self.stripe}")
        if self.disk < 0:
            raise ValueError(f"negative disk {self.disk}")
        if self.start_row < 0:
            raise ValueError(f"negative start_row {self.start_row}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    def check_layout(self, layout: CodeLayout) -> None:
        """Raise ``ValueError`` unless the error lies inside ``layout``:
        its disk below ``num_disks`` and its rows within ``rows``."""
        if self.disk >= layout.num_disks:
            raise ValueError(
                f"error on disk {self.disk} but {layout.name} has "
                f"{layout.num_disks} disks"
            )
        if self.start_row + self.length > layout.rows:
            raise ValueError(
                f"error rows [{self.start_row}, {self.start_row + self.length}) "
                f"exceed {layout.rows} rows"
            )

    def cells(self, layout: CodeLayout) -> tuple[Cell, ...]:
        """The failed cells within the stripe, top to bottom."""
        self.check_layout(layout)
        return tuple(
            (r, self.disk) for r in range(self.start_row, self.start_row + self.length)
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        """(disk, start_row, length): the plan-cache key — two errors of the
        same shape share one recovery scheme regardless of stripe."""
        return (self.disk, self.start_row, self.length)


@dataclass(frozen=True)
class ErrorTraceConfig:
    """Knobs for :func:`generate_errors`."""

    n_errors: int = 100
    #: number of stripes in the array (error positions are drawn from it).
    array_stripes: int = 100_000
    size: SizeDistribution = field(default_factory=SizeDistribution)
    #: probability the next error is *placed* near the previous one.
    #: Note the measured neighbor fraction is roughly double this knob
    #: (each clustered placement gives both endpoints a neighbor); the
    #: default is calibrated so :func:`repro.analysis.trace_locality`
    #: measures ~0.4 — mid Schroeder et al.'s 20-60% band.
    spatial_locality: float = 0.22
    #: max stripe distance for a "near" error.
    neighbor_distance: int = 10
    #: mean seconds between bursts / within a burst.
    burst_gap: float = 100.0
    intra_burst_gap: float = 1.0
    #: mean number of errors per burst (geometric).
    burst_length: float = 4.0
    seed: int | None = 42

    def __post_init__(self) -> None:
        if self.n_errors < 1:
            raise ValueError(f"n_errors must be >= 1, got {self.n_errors}")
        if self.array_stripes < self.n_errors:
            raise ValueError(
                f"array_stripes ({self.array_stripes}) must be >= n_errors "
                f"({self.n_errors}) so stripes stay distinct"
            )
        if not 0.0 <= self.spatial_locality <= 1.0:
            raise ValueError(
                f"spatial_locality must be in [0,1], got {self.spatial_locality}"
            )
        if self.neighbor_distance < 1:
            raise ValueError(
                f"neighbor_distance must be >= 1, got {self.neighbor_distance}"
            )
        if self.burst_gap <= 0 or self.intra_burst_gap <= 0:
            raise ValueError("burst gaps must be positive")
        if self.burst_length < 1:
            raise ValueError(f"burst_length must be >= 1, got {self.burst_length}")


def generate_errors(
    layout: CodeLayout, config: ErrorTraceConfig
) -> list[PartialStripeError]:
    """Sample a deterministic partial-stripe-error trace for ``layout``.

    Returns errors sorted by arrival time, one per stripe.
    """
    rng = make_rng(config.seed)
    max_size = layout.rows  # p - 1 chunks
    used_stripes: set[int] = set()
    errors: list[PartialStripeError] = []
    now = 0.0
    prev_stripe: int | None = None
    burst_remaining = 0

    def fresh_stripe(near: int | None) -> int:
        for _ in range(1000):
            if near is not None:
                delta = int(rng.integers(1, config.neighbor_distance + 1))
                sign = 1 if rng.random() < 0.5 else -1
                candidate = near + sign * delta
                if not 0 <= candidate < config.array_stripes:
                    candidate = near + delta if near + delta < config.array_stripes else near - delta
            else:
                candidate = int(rng.integers(0, config.array_stripes))
            if candidate not in used_stripes and 0 <= candidate < config.array_stripes:
                return candidate
            near = None  # fall back to uniform draws if the neighborhood is full
        raise RuntimeError("could not find a free stripe (array too full of errors)")

    for _ in range(config.n_errors):
        if burst_remaining <= 0:
            now += float(rng.exponential(config.burst_gap))
            burst_remaining = max(1, int(rng.geometric(1.0 / config.burst_length)))
        else:
            now += float(rng.exponential(config.intra_burst_gap))
        burst_remaining -= 1

        near = (
            prev_stripe
            if prev_stripe is not None and rng.random() < config.spatial_locality
            else None
        )
        stripe = fresh_stripe(near)
        used_stripes.add(stripe)
        prev_stripe = stripe

        size = config.size.sample(max_size, rng)
        start = int(rng.integers(0, layout.rows - size + 1))
        disk = int(rng.integers(0, layout.num_disks))
        errors.append(
            PartialStripeError(
                time=now, stripe=stripe, disk=disk, start_row=start, length=size
            )
        )
    return errors

"""Deterministic synthetic load for the advisor service.

The generator replays the same field-calibrated partial-stripe-error
model the offline experiments use (:func:`repro.workloads.generate_errors`)
in *chunks*, re-stamping arrival times so the concatenated stream stays
strictly time-monotone: arrival order is time order, and no batch is
out of order.  Chunk ``i`` draws from seed ``seed + i``, so any
prefix of the stream is a pure function of ``(layout, seed)`` and a
restarted generator reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Sequence

from ..codes.registry import make_code
from ..workloads import ErrorTraceConfig, PartialStripeError, generate_errors

__all__ = ["SyntheticSource", "records_for", "record_lines"]


class SyntheticSource:
    """An endless, deterministic stream of partial-stripe-error batches."""

    def __init__(
        self,
        code: str = "tip",
        p: int = 7,
        seed: int = 42,
        chunk: int = 48,
        gap: float = 1.0,
    ):
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if gap <= 0:
            raise ValueError(f"gap must be > 0, got {gap}")
        self.layout = make_code(code, p)
        self.seed = seed
        self.chunk = chunk
        self.gap = gap
        self._chunk_index = 0
        self._clock = 0.0

    def next_batch(self) -> list[PartialStripeError]:
        """The next ``chunk`` events, strictly after every prior event."""
        raw = generate_errors(
            self.layout,
            ErrorTraceConfig(
                n_errors=self.chunk, seed=self.seed + self._chunk_index
            ),
        )
        base = self._clock
        first = raw[0].time if raw else 0.0
        batch = [
            replace(e, time=base + self.gap + (e.time - first)) for e in raw
        ]
        if batch:
            self._clock = batch[-1].time
        self._chunk_index += 1
        return batch

    def batches(self, n_batches: int | None = None) -> Iterator[list[PartialStripeError]]:
        """Yield batches forever (or ``n_batches`` of them)."""
        produced = 0
        while n_batches is None or produced < n_batches:
            yield self.next_batch()
            produced += 1


def records_for(events: Sequence[PartialStripeError]) -> list[dict]:
    """Events as JSON-able ingest records (the wire schema)."""
    return [
        {
            "time": e.time,
            "stripe": e.stripe,
            "disk": e.disk,
            "start_row": e.start_row,
            "length": e.length,
        }
        for e in events
    ]


def record_lines(events: Sequence[PartialStripeError]) -> str:
    """Events as JSON-lines text, ready to pipe into ``repro-fbf serve``."""
    import json

    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records_for(events))

"""Ingest edge: wire records in, bounded queue, shed-and-count overflow.

The serve loop is single-threaded asyncio, so the queue is a plain
deque — no locks — but its *bound* is the backpressure contract: a
producer that outruns the evaluator sees its overflow shed immediately
(counted under ``serve.ingest.shed``), never buffered without limit.
Slow-consumer memory is therefore capped by ``queue_limit`` regardless
of ingest rate, which is what lets the service run for weeks.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from typing import Any

from ..codes.layout import CodeLayout
from ..obs import runtime as _obs
from ..workloads import PartialStripeError

__all__ = ["parse_record", "BoundedIngestQueue"]

_REQUIRED_FIELDS = ("time", "stripe", "disk", "start_row", "length")


def parse_record(line: str | bytes) -> PartialStripeError:
    """One JSON-lines wire record -> a validated event.

    Raises ``ValueError`` for anything malformed: bad JSON or UTF-8,
    nesting too deep to decode, a non-object payload, missing fields, a
    time that is not finite (``NaN``, ``Infinity``, ``1e400``), or field
    values the event type rejects.
    """
    try:
        payload: Any = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON record: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"record must be a JSON object, got {type(payload).__name__}")
    missing = [f for f in _REQUIRED_FIELDS if f not in payload]
    if missing:
        raise ValueError(f"record missing fields: {', '.join(missing)}")
    try:
        time = float(payload["time"])
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time}")
        return PartialStripeError(
            time=time,
            stripe=int(payload["stripe"]),
            disk=int(payload["disk"]),
            start_row=int(payload["start_row"]),
            length=int(payload["length"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # null, text, 1e400
        raise ValueError(f"invalid record values: {exc}") from None


class BoundedIngestQueue:
    """A shed-on-overflow event queue feeding the advisor's batch loop.

    ``push`` never blocks and never grows the queue past ``limit``: the
    newest event is dropped (shed) once the queue is full, and both
    accepted and shed totals are tracked (``serve.ingest.records`` /
    ``serve.ingest.shed`` when obs is enabled).  ``wait_for_data``
    parks the consumer until at least one event is queued.  An event
    outside ``layout``, the served array's, is a bad line
    (``serve.ingest.invalid``) whether it was pushed or came off the wire.
    """

    def __init__(self, limit: int, layout: CodeLayout):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.layout = layout
        self._queue: deque[PartialStripeError] = deque()
        self.accepted = 0
        self.shed = 0
        self.invalid = 0
        self._data = asyncio.Event()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, event: PartialStripeError) -> bool:
        """Enqueue one event; returns False (and counts) when it lies
        outside the layout or is shed."""
        try:
            event.check_layout(self.layout)
        except ValueError:
            self.reject()
            return False
        if len(self._queue) >= self.limit:
            self.shed += 1
            if _obs.ENABLED:
                _obs.counter("serve.ingest.shed").inc()
            return False
        self._queue.append(event)
        self.accepted += 1
        if _obs.ENABLED:
            _obs.counter("serve.ingest.records").inc()
            _obs.gauge("serve.queue.depth").set(len(self._queue))
        self._data.set()
        return True

    def push_line(self, line: str | bytes) -> bool:
        """Parse one wire record and enqueue it; invalid lines count."""
        try:
            event = parse_record(line)
        except ValueError:
            self.reject()
            return False
        return self.push(event)

    def reject(self) -> None:
        """Count one malformed wire line (``serve.ingest.invalid``)."""
        self.invalid += 1
        if _obs.ENABLED:
            _obs.counter("serve.ingest.invalid").inc()

    def drain(self, max_items: int) -> list[PartialStripeError]:
        """Pop up to ``max_items`` events in FIFO order."""
        queue = self._queue
        batch = []
        while queue and len(batch) < max_items:
            batch.append(queue.popleft())
        if not queue:
            self._data.clear()
        if _obs.ENABLED:
            _obs.gauge("serve.queue.depth").set(len(queue))
        return batch

    async def wait_for_data(self, timeout: float | None = None) -> bool:
        """Await queued data; False on timeout with an empty queue."""
        if self._queue:
            return True
        try:
            if timeout is None:
                await self._data.wait()
            else:
                await asyncio.wait_for(self._data.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return bool(self._queue)

"""The cache advisor: a sliding-window grid replay answering ``advise``.

The advisor owns a :class:`~repro.engine.stream.StreamInterner` over the
live event log and a candidate (policy x capacity) grid.  Each query
replays the most recent ``window_events`` events through
:func:`~repro.engine.stream.simulate_grid_pass` — the *same* function,
on the same interned representation, that the offline bench engine uses
— so an advisor recommendation is bit-for-bit the offline winner for
that window: ``simulate_grid_pass(backend, window, configs)`` offline
and :meth:`CacheAdvisor.evaluate` return identical rows, and
:func:`pick_winner` is the single ranking both sides share.

An evaluation replays a :class:`Window`, a copy of the window taken
from the interner (:meth:`CacheAdvisor.snapshot`).  It reads nothing
else the advisor mutates, so the server takes the snapshot on its event
loop and replays it on a thread of its own while the loop keeps
ingesting.  Evaluations are memoized per window, so a burst of
``advise`` queries between ingest batches costs one replay: the whole
candidate grid rides a single interned pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..engine.registry import make_backend
from ..engine.stream import (
    InternedStream,
    ReplayConfig,
    StreamInterner,
    simulate_grid_pass,
)
from ..engine.tracesim import TraceSimResult
from ..obs import runtime as _obs
from ..utils import parse_size
from ..workloads import PartialStripeError
from .config import Advice, ArraySpec, ServeConfig

__all__ = ["CacheAdvisor", "Window", "pick_winner"]


def pick_winner(rows: Sequence[TraceSimResult]) -> TraceSimResult:
    """The canonical ranking: best hit ratio, cheapest capacity, name.

    Shared by the advisor and the offline comparison in tests — the
    acceptance contract is that both rank *identical* rows, so the rule
    lives in exactly one place.
    """
    if not rows:
        raise ValueError("cannot pick a winner from zero rows")
    return min(
        rows, key=lambda r: (-r.hit_ratio, r.capacity_blocks, r.policy)
    )


def _confidence(fill: float, lead: float) -> float:
    """``fill * (1 - 1/(1 + 100*lead))`` — see :class:`Advice`."""
    return fill * (1.0 - 1.0 / (1.0 + 100.0 * max(lead, 0.0)))


@dataclass(frozen=True, eq=False)
class Window:
    """One evaluation's input: log positions ``[start, stop)`` at ``workers``.

    ``events`` and ``stream`` are fresh copies out of the interner
    (``events_slice`` and ``window``); later ``extend`` and ``compact``
    calls never touch them, so the window can be replayed on another
    thread while ingest goes on.
    """

    start: int
    stop: int
    workers: int
    events: list[PartialStripeError]
    stream: InternedStream

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.start, self.stop, self.workers)


class CacheAdvisor:
    """Sliding-window policy/capacity advisor for one array deployment."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.backend = make_backend(
            config.code, config.p, scheme_mode=config.scheme_mode
        )
        self.interner = StreamInterner(self.backend, hint=config.hint)
        self.block_size = parse_size(config.chunk_size)
        # Eager validation: every candidate capacity must give each SOR
        # worker at least one block, or evaluation would raise later.
        for mb in config.cache_mbs:
            blocks = self._blocks(mb)
            if 0 < blocks < config.workers:
                raise ValueError(
                    f"cache_mb={mb} is {blocks} blocks — fewer than "
                    f"workers={config.workers}; every SOR worker needs a "
                    "non-empty slice"
                )
        self.batches = 0
        self.evaluations = 0
        self.out_of_order = 0
        self._grids: dict[int, list[ReplayConfig]] = {}
        self._memo: tuple[Window, list[TraceSimResult]] | None = None

    # -- geometry -----------------------------------------------------------

    def _blocks(self, cache_mb: float) -> int:
        return int(cache_mb * 1024 * 1024) // self.block_size

    def grid(self, workers: int) -> list[ReplayConfig]:
        """The candidate grid at one SOR fan-out (memoized)."""
        cached = self._grids.get(workers)
        if cached is None:
            cached = self._grids[workers] = [
                ReplayConfig(
                    policy=policy,
                    capacity_blocks=self._blocks(mb),
                    workers=workers,
                    hint=self.config.hint,
                )
                for policy in self.config.policies
                for mb in self.config.cache_mbs
            ]
        return cached

    def window_bounds(self) -> tuple[int, int]:
        """Current evaluation window as ``[start, stop)`` log positions."""
        stop = self.interner.events_seen
        start = max(
            self.interner.first_event, stop - self.config.window_events
        )
        return start, stop

    def window_events(self) -> list[PartialStripeError]:
        """The events the next evaluation will replay (offline comparator)."""
        start, stop = self.window_bounds()
        return self.interner.events_slice(start, stop)

    def snapshot(self, workers: int | None = None) -> Window:
        """The current window at ``workers``, copied out of the interner."""
        workers = self.config.workers if workers is None else workers
        start, stop = self.window_bounds()
        return Window(
            start,
            stop,
            workers,
            self.interner.events_slice(start, stop),
            self.interner.window(start, stop),
        )

    # -- ingest -------------------------------------------------------------

    def ingest(self, events: Sequence[PartialStripeError]) -> int:
        """Append one batch (sorted); returns how many events landed.

        Batches are sorted before interning; an event older than the
        retained log's tail is counted (``out_of_order``) but still
        accepted in arrival position — replay order is arrival order.
        """
        batch = sorted(events)
        if not batch:
            return 0
        tail = self.interner.events_slice(
            max(self.interner.events_seen - 1, self.interner.first_event)
        )
        if tail and batch[0] < tail[-1]:
            self.out_of_order += 1
            if _obs.ENABLED:
                _obs.counter("serve.ingest.out_of_order").inc()
        n = self.interner.extend(batch)
        self.batches += 1
        cap = self.config.compact_factor * self.config.window_events
        if self.interner.events_seen - self.interner.first_event > cap:
            self.interner.compact(self.config.window_events)
        if _obs.ENABLED:
            start, stop = self.window_bounds()
            _obs.counter("serve.ingest.batches").inc()
            _obs.gauge("serve.window.events").set(stop - start)
            _obs.gauge("serve.window.blocks").set(self.interner.n_blocks)
        return n

    # -- evaluation ---------------------------------------------------------

    def memoized(self, workers: int) -> tuple[Window, list[TraceSimResult]] | None:
        """The last evaluation, if it replayed the current window at ``workers``."""
        memo = self._memo
        if memo is not None and memo[0].key == (*self.window_bounds(), workers):
            return memo
        return None

    def evaluate(
        self, workers: int | None = None, window: Window | None = None
    ) -> list[TraceSimResult]:
        """Replay ``window`` over the candidate grid at its fan-out.

        ``window`` defaults to a :meth:`snapshot` of the current window
        at ``workers``.  Returns one row per grid cell, bit-for-bit equal
        to the offline ``simulate_grid_pass(backend, window.events,
        grid(window.workers))``.  It reads the window, the grid and the
        backend, never the interner (whose arrays and ``PlanCache``
        ``ingest`` mutates), so the server runs it on its evaluation
        thread.  Memoized per window: log positions are stable, so a
        window's rows never go stale.
        """
        if window is None:
            workers = self.config.workers if workers is None else workers
            memo = self.memoized(workers)
            if memo is not None:
                return memo[1]
            window = self.snapshot(workers)
        t0 = time.perf_counter()
        rows = simulate_grid_pass(
            self.backend,
            window.events,
            self.grid(window.workers),
            stream=window.stream,
        )
        self.evaluations += 1
        self._memo = (window, rows)
        if _obs.ENABLED:
            _obs.counter("serve.evaluate.count").inc()
            _obs.histogram("serve.evaluate.seconds").observe(
                time.perf_counter() - t0
            )
        return rows

    # -- the query ----------------------------------------------------------

    def workers_for(self, spec: ArraySpec | None) -> int:
        """The SOR fan-out ``spec`` asks for; refuses a different array."""
        if spec is None:
            return self.config.workers
        if spec.code != self.config.code or spec.p != self.config.p:
            raise ValueError(
                f"advisor serves {self.config.code} p={self.config.p}, "
                f"not {spec.code} p={spec.p}"
            )
        return spec.workers if spec.workers is not None else self.config.workers

    def advise(self, spec: ArraySpec | None = None) -> Advice:
        """Answer "what policy/capacity should this array run?"."""
        started = time.perf_counter()
        workers = self.workers_for(spec)
        memo = self.memoized(workers)
        if memo is None:
            window = self.snapshot(workers)
            memo = (window, self.evaluate(window=window))
        return self.advice(*memo, started=started)

    def advice(
        self, window: Window, rows: Sequence[TraceSimResult], started: float
    ) -> Advice:
        """The answer ``rows``, the evaluation of ``window``, give.

        The one place an :class:`Advice` is built, for :meth:`advise` and
        the server alike: it describes the evaluated window, whatever the
        log holds by now.  Records the advise metrics, the latency
        counted from ``started`` (a ``time.perf_counter()`` reading).
        """
        winner = pick_winner(rows)
        runners = [r.hit_ratio for r in rows if r is not winner]
        lead = winner.hit_ratio - max(runners) if runners else winner.hit_ratio
        n_events = window.stop - window.start
        fill = min(1.0, n_events / self.config.window_events)
        advice = Advice(
            policy=winner.policy,
            cache_mb=winner.capacity_blocks * self.block_size / (1024 * 1024),
            capacity_blocks=winner.capacity_blocks,
            hit_ratio=winner.hit_ratio,
            confidence=_confidence(fill, lead),
            window_events=n_events,
            window_start=window.start,
            evaluated=len(rows),
            workers=winner.workers,
        )
        if _obs.ENABLED:
            latency = time.perf_counter() - started
            _obs.counter("serve.advise.count").inc()
            hist = _obs.histogram("serve.advise.latency")
            hist.observe(latency)
            p99 = hist.quantile(0.99)
            if p99 == p99:  # skip the empty-histogram NaN
                _obs.gauge("serve.advise.latency.p99").set(p99)
        return advice

    # -- checkpoint payload ---------------------------------------------------

    def state(self, events: bool = True) -> dict:
        """Replay state for checkpointing (events + counters + positions).

        ``events=False`` leaves out the event records, which the
        checkpoint writer (:class:`~repro.serve.checkpoint.CheckpointWriter`)
        keeps encoded between writes.
        """
        from .loadgen import records_for

        state = {
            "fingerprint": self.config.fingerprint(),
            "dropped": self.interner.first_event,
            "batches": self.batches,
            "evaluations": self.evaluations,
            "out_of_order": self.out_of_order,
        }
        if events:
            state["events"] = records_for(
                self.interner.events_slice(self.interner.first_event)
            )
        return state

    @classmethod
    def from_state(cls, config: ServeConfig, state: dict) -> "CacheAdvisor":
        """Rebuild an advisor whose replay state matches the checkpoint.

        Re-interning the retained events reproduces the interner arrays
        bit for bit (interning is a pure function of the event sequence,
        and ``compact`` leaves exactly the state a fresh interner fed the
        suffix would hold), so a restored advisor's next evaluation
        equals the pre-crash one.
        """
        if state.get("fingerprint") != config.fingerprint():
            raise ValueError(
                "checkpoint fingerprint does not match this ServeConfig; "
                "refusing to resume replay state for a different deployment"
            )
        advisor = cls(config)
        events = [PartialStripeError(**r) for r in state.get("events", ())]
        advisor.interner.extend(events)
        advisor.interner._dropped = int(state.get("dropped", 0))
        advisor.batches = int(state.get("batches", 0))
        advisor.evaluations = int(state.get("evaluations", 0))
        advisor.out_of_order = int(state.get("out_of_order", 0))
        return advisor

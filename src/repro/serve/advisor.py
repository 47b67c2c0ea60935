"""The cache advisor: a sliding-window grid replay answering ``advise``.

The advisor keeps the last ``window_events`` events of the live log,
plus the count of events ever ingested, and a candidate (policy x
capacity) grid.  Each query replays those events through
:func:`~repro.engine.stream.simulate_grid_pass` — the call the
offline bench engine makes, on the same events — so an advisor
recommendation is bit-for-bit the offline winner for that window:
``simulate_grid_pass(backend, window, configs)`` offline and
:meth:`CacheAdvisor.evaluate` return identical rows, and
:func:`pick_winner` is the single ranking both sides share.

Ingest only sorts, checks the layout and appends; it decodes nothing.
An evaluation replays a :class:`Window`, a copy of the window's events
(:meth:`CacheAdvisor.snapshot`), and decodes them itself, through the
advisor's :class:`~repro.engine.tracesim.PlanCache`, which nothing else
touches.  So the server takes the snapshot on its event loop and
replays it on a thread of its own while the loop keeps ingesting.
Evaluations are memoized per window, so a burst of ``advise`` queries
between ingest batches costs one replay: the whole candidate grid rides
a single interned pass.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..engine.registry import make_backend
from ..engine.stream import ReplayConfig, intern_stream, simulate_grid_pass
from ..engine.tracesim import PlanCache, TraceSimResult
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

    ``events`` is a fresh copy of the window's events, in arrival order;
    later ingest never touches it, so the window can be replayed on
    another thread while ingest goes on.
    """

    start: int
    stop: int
    workers: int
    events: list[PartialStripeError]

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
        # Events are partial-stripe errors, which only an XOR array code
        # lays out; an LRC backend has no layout to check them against.
        self.layout = getattr(self.backend, "layout", None)
        if self.layout is None:
            raise ValueError(f"the advisor serves XOR array codes, not {config.code}")
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
        #: total events ever ingested: the log position after the newest
        self.events_seen = 0
        #: distinct blocks of the last evaluated window (0 before any)
        self.n_blocks = 0
        #: the retained log: the current window, oldest event first
        self._events: deque[PartialStripeError] = deque(
            maxlen=config.window_events
        )
        #: plans for :meth:`evaluate`, and only for it
        self._plans = PlanCache(self.backend)
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

    # -- the log ------------------------------------------------------------

    @property
    def first_event(self) -> int:
        """Log position of the oldest retained event."""
        return self.events_seen - len(self._events)

    def window_bounds(self) -> tuple[int, int]:
        """Current evaluation window as ``[start, stop)`` log positions."""
        return self.first_event, self.events_seen

    def window_events(self) -> list[PartialStripeError]:
        """A copy of the events the next evaluation will replay."""
        return list(self._events)

    def snapshot(self, workers: int | None = None) -> Window:
        """The current window at ``workers``, its events copied out of the log."""
        workers = self.config.workers if workers is None else workers
        return Window(*self.window_bounds(), workers, self.window_events())

    # -- ingest -------------------------------------------------------------

    def ingest(self, events: Sequence[PartialStripeError]) -> int:
        """Append one batch, sorted; returns how many events landed.

        The log keeps the last ``window_events`` events, the window the
        next evaluation replays; older events drop off its head.  A batch
        older than the log's tail is counted (``out_of_order``) but still
        appended in arrival position: window membership is arrival order,
        and each evaluation replays its window's events in time order, as
        the offline grid pass does.  Raises ``ValueError``, appending
        nothing, if an event lies outside the served array's layout.
        """
        batch = sorted(events)
        if not batch:
            return 0
        layout = self.layout
        for event in batch:
            event.check_layout(layout)
        log = self._events
        if log and batch[0] < log[-1]:
            self.out_of_order += 1
            if _obs.ENABLED:
                _obs.counter("serve.ingest.out_of_order").inc()
        log.extend(batch)
        self.events_seen += len(batch)
        self.batches += 1
        if _obs.ENABLED:
            _obs.counter("serve.ingest.batches").inc()
            _obs.gauge("serve.window.events").set(len(log))
        return len(batch)

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
        grid(window.workers))``: the window's events are decoded here, in
        time order, exactly as that call decodes them.  It reads the
        window, the grid and the backend, and writes only the advisor's
        ``PlanCache``, the memo, ``n_blocks`` and the counters, never the
        log ``ingest`` mutates, so the server runs it on its evaluation
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
        # The grid pass would intern this same stream itself; interning it
        # first only keeps its distinct-block count.
        stream = intern_stream(
            self.backend, window.events, self.config.hint, self._plans
        )
        rows = simulate_grid_pass(
            self.backend,
            window.events,
            self.grid(window.workers),
            plan_cache=self._plans,
            stream=stream,
        )
        self.evaluations += 1
        self.n_blocks = stream.n_blocks
        self._memo = (window, rows)
        if _obs.ENABLED:
            _obs.gauge("serve.window.blocks").set(stream.n_blocks)
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
            "dropped": self.first_event,
            "batches": self.batches,
            "evaluations": self.evaluations,
            "out_of_order": self.out_of_order,
        }
        if events:
            state["events"] = records_for(self._events)
        return state

    @classmethod
    def from_state(cls, config: ServeConfig, state: dict) -> "CacheAdvisor":
        """Rebuild an advisor whose replay state matches the checkpoint.

        The retained events and the dropped count are the whole replay
        state (an evaluation decodes its window afresh), so a restored
        advisor's next evaluation equals the pre-crash one; it keeps the
        last ``window_events`` of them.  Raises ``ValueError`` for an
        event outside the served layout, as :meth:`ingest` would.
        """
        if state.get("fingerprint") != config.fingerprint():
            raise ValueError(
                "checkpoint fingerprint does not match this ServeConfig; "
                "refusing to resume replay state for a different deployment"
            )
        advisor = cls(config)
        events = [PartialStripeError(**r) for r in state.get("events", ())]
        for event in events:
            event.check_layout(advisor.layout)
        advisor._events.extend(events)
        advisor.events_seen = int(state.get("dropped", 0)) + len(events)
        advisor.batches = int(state.get("batches", 0))
        advisor.evaluations = int(state.get("evaluations", 0))
        advisor.out_of_order = int(state.get("out_of_order", 0))
        return advisor

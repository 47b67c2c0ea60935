"""Interned request streams and the single-pass grid replay.

The hit-ratio grids (Figures 8/9, the ablations, the LRC footnote) sweep
many (policy x capacity x workers) configurations over the *same*
recovery request stream.  Per-point :func:`~repro.engine.tracesim.
simulate_trace` decodes that stream from scratch every time: plan lookup
per event, ``(stripe, unit)`` tuple build per request, nested-tuple
hashing inside every policy dict.  This module decodes **once**:

* :func:`intern_stream` materializes ``event -> plan -> (unit, hint)``
  into an :class:`InternedStream` — block keys mapped to dense ints in
  first-seen order, hints in a parallel array — reusing the shared
  :class:`~repro.engine.tracesim.PlanCache`;
* :func:`simulate_grid_pass` steps every configuration over the decoded
  stream and returns the same :class:`~repro.engine.tracesim.
  TraceSimResult` rows as the per-point loop, bit for bit;
* plain-LRU configurations skip stepping entirely: a Mattson
  reuse-distance profile (:mod:`repro.engine.stackdist`) yields the
  exact LRU hit count at *every* capacity from one pass per worker
  substream;
* jobs wide enough to pay for it — many unsaturated (worker, size)
  lanes per step — replay on the numpy fleet (:mod:`repro.engine.
  vector`) instead, with the same rows.

Interning is exact, not approximate: every policy keys its bookkeeping
dicts on the request key's identity and never iterates them in hash
order (enforced by simlint's DET002/DET003), so a bijective key renaming
cannot change a single hit/miss decision.  Likewise the SOR round-robin
deal makes worker caches fully independent, so replaying each worker's
substream contiguously is decision-for-decision identical to the
interleaved order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Sequence

from ..cache.registry import make_policy
from ..core.policy import CachePolicy
from ..obs import runtime as _obs
from .backend import CodeBackend, make_priority_model
from .stackdist import SampledStackDistanceProfile, StackDistanceProfile
from .tracesim import PlanCache, TraceSimResult, effective_partition

__all__ = [
    "InternedStream",
    "intern_stream",
    "StreamInterner",
    "ReplayConfig",
    "simulate_grid_pass",
]

#: Registry policies whose decisions ignore the priority hint entirely —
#: their substream replay can drop the hint argument from the hot call.
#: Only FBF (and arbitrary factories) consume hints.
HINT_FREE_POLICIES = frozenset(
    {"fifo", "lru", "lfu", "arc", "lru2", "2q", "lrfu", "fbr", "mq", "lirs"}
)

#: Policies that admit every missed key and never displace a resident
#: block before the cache is full (verified per algorithm).  For these, a
#: worker whose capacity covers its substream's whole working set never
#: evicts, so its hit count is policy-independent: requests minus
#: distinct blocks.  2Q/LIRS-style policies bound internal segments below
#: total capacity and are excluded.
SATURATION_SAFE_POLICIES = frozenset({"fifo", "lru", "lfu", "arc", "fbf"})


class InternedStream:
    """One decoded request stream: dense block ids + parallel hint array.

    Requests are stored flat as machine-int ``array('i')`` buffers
    (``bids``/``hints``), roughly 4x smaller than the per-event tuples of
    boxed ints they replaced, with ``offsets[i]:offsets[i+1]`` delimiting
    event *i*'s slice.  ``keys[bid]`` recovers the original
    ``(stripe, unit)`` key for block id ``bid``.  :meth:`worker_substreams`
    deals events round-robin into per-worker flat ``(bids, hints)``
    parallel ``array('i')`` pairs — still the ``Sequence[int]`` the
    policies' ``request_many`` consumes, and exactly the buffer
    ``np.frombuffer`` views zero-copy for the vector backend — memoized
    per worker count, since a sweep group replays the same deal for every
    policy and capacity.
    """

    __slots__ = ("backend", "hint", "keys", "bids", "hints", "offsets",
                 "total_requests", "_worker_split")

    def __init__(
        self,
        backend: CodeBackend,
        hint: str,
        keys: tuple[Any, ...],
        bids: array,
        hints: array,
        offsets: array,
    ):
        if len(bids) != len(hints):
            raise ValueError("bids and hints must be parallel arrays")
        if len(offsets) == 0 or offsets[-1] != len(bids):
            raise ValueError("offsets must cover the request arrays")
        self.backend = backend
        self.hint = hint
        self.keys = keys
        self.bids = bids
        self.hints = hints
        self.offsets = offsets
        self.total_requests = len(bids)
        self._worker_split: dict[int, list[tuple[array, array]]] = {}

    @property
    def n_events(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_blocks(self) -> int:
        """Distinct blocks touched by the stream."""
        return len(self.keys)

    def worker_substreams(self, workers: int) -> list[tuple[array, array]]:
        """Per-worker ``(block_ids, hints)`` parallel arrays (round-robin).

        Event *i* goes to worker ``i % workers`` — the SOR deal of
        :func:`~repro.engine.tracesim.simulate_trace`.  Worker caches are
        independent, so each worker's contiguous substream replays to the
        same decisions as the interleaved original.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        cached = self._worker_split.get(workers)
        if cached is None:
            all_bids, all_hints, offsets = self.bids, self.hints, self.offsets
            n_events = len(offsets) - 1
            cached = []
            for w in range(workers):
                bids = array("i")
                hints = array("i")
                for i in range(w, n_events, workers):
                    start, stop = offsets[i], offsets[i + 1]
                    bids += all_bids[start:stop]
                    hints += all_hints[start:stop]
                cached.append((bids, hints))
            self._worker_split[workers] = cached
        return cached


def intern_stream(
    backend: CodeBackend,
    events: Sequence[Any],
    hint: str = "priority",
    plan_cache: PlanCache | None = None,
) -> InternedStream:
    """Decode ``events`` once into an :class:`InternedStream`.

    Events are sorted exactly as :func:`~repro.engine.tracesim.
    simulate_trace` sorts them and fed once through a fresh
    :class:`StreamInterner`, the one decoder of every replay: plans come
    from the shared ``plan_cache`` memo (one ``get`` per event), and
    block keys are interned to dense ints in first-seen order
    (deterministic: a function of the sorted event stream alone).
    """
    interner = StreamInterner(backend, hint, plan_cache)
    plan_cache = interner.plan_cache

    obs_on = _obs.ENABLED
    if obs_on:
        before_hits, before_misses = plan_cache.counts()
        decode_span = _obs.span(
            "engine.intern_stream", {"code": backend.code_label, "hint": hint}
        )
        decode_span.__enter__()

    interner.extend(sorted(events))
    # The interner is dropped here, so the stream takes its arrays uncopied.
    stream = InternedStream(
        backend, hint, tuple(interner._index),
        interner._bids, interner._hints, interner._offsets,
    )
    if obs_on:
        decode_span["events"] = stream.n_events
        decode_span["blocks"] = stream.n_blocks
        decode_span.__exit__(None, None, None)
        after_hits, after_misses = plan_cache.counts()
        _obs.counter("engine.streams_interned").inc()
        _obs.counter("engine.stream.events").inc(stream.n_events)
        _obs.counter("engine.stream.requests").inc(stream.total_requests)
        _obs.counter("engine.plan_cache.hits").inc(after_hits - before_hits)
        _obs.counter("engine.plan_cache.misses").inc(after_misses - before_misses)
        _obs.gauge("engine.plan_cache.entries").set(len(plan_cache))
    return stream


class StreamInterner:
    """Incremental interning over an advancing event log.

    The one decoder of every replay: :func:`intern_stream` feeds a
    complete trace through :meth:`extend` once, and a long-lived advisor
    (the serve layer) appends each batch as it lands and replays a
    sliding window of the most recent events.  This class keeps the
    interning state (the block-key index, the flat ``bids``/``hints``/
    ``offsets`` arrays, the shared :class:`~repro.engine.tracesim.
    PlanCache`) alive across appends, so each batch costs one plan
    lookup per event rather than a full re-intern of the window.

    Equivalence contract: when events are appended in globally sorted
    order (the serve ingest path sorts each batch, and the synthetic /
    trace sources emit monotonically increasing times),
    ``interner.window(start, stop)`` is bit-for-bit identical to
    ``intern_stream(backend, events[start:stop])`` — same keys, same
    dense ids, same hints — because :meth:`window` rebases dense ids to
    first-seen order within the window, the order a fresh :meth:`extend`
    of the slice assigns (property-tested in
    ``tests/engine/test_stream_interner.py``).

    Memory is bounded by :meth:`compact`, which drops a consumed prefix
    and rebases the retained suffix exactly as :meth:`window` does.
    ``events_seen`` keeps counting across compactions, so window indices
    are stable log positions, not buffer offsets.
    """

    __slots__ = ("backend", "hint", "plan_cache", "_model", "_index",
                 "_bids", "_hints", "_offsets", "_events", "_dropped")

    def __init__(
        self,
        backend: CodeBackend,
        hint: str = "priority",
        plan_cache: PlanCache | None = None,
    ):
        if plan_cache is None:
            plan_cache = PlanCache(backend)
        elif plan_cache.backend is not backend:
            raise ValueError("plan_cache was built for a different backend")
        self.backend = backend
        self.hint = hint
        self.plan_cache = plan_cache
        self._model = make_priority_model(hint)
        self._index: dict[Any, int] = {}
        self._bids = array("i")
        self._hints = array("i")
        self._offsets = array("i", [0])
        self._events: list[Any] = []
        self._dropped = 0  #: events removed from the left by compact()

    @property
    def events_seen(self) -> int:
        """Total events ever appended (stable log length, survives compact)."""
        return self._dropped + len(self._events)

    @property
    def n_blocks(self) -> int:
        return len(self._index)

    @property
    def first_event(self) -> int:
        """Log index of the oldest retained event."""
        return self._dropped

    def extend(self, events: Iterable[Any]) -> int:
        """Intern ``events`` in the given order; returns how many arrived.

        The caller owns ordering: the serve batcher sorts each batch and
        feeds batches in arrival order, which keeps the log globally
        sorted for time-monotone sources.
        """
        index = self._index
        bids, hints, offsets = self._bids, self._hints, self._offsets
        get_plan, sequence = self.plan_cache.get, self._model.sequence
        n = 0
        for event in events:
            stripe = event.stripe
            for unit, hint_value in sequence(get_plan(event)):
                key = (stripe, unit)
                bid = index.get(key)
                if bid is None:
                    bid = index[key] = len(index)
                bids.append(bid)
                hints.append(hint_value)
            offsets.append(len(bids))
            self._events.append(event)
            n += 1
        return n

    def events_slice(self, start: int, stop: int | None = None) -> list[Any]:
        """The retained events for log positions ``[start, stop)``."""
        lo = start - self._dropped
        if lo < 0:
            raise ValueError(
                f"event {start} was compacted away (oldest retained: "
                f"{self._dropped})"
            )
        hi = None if stop is None else stop - self._dropped
        return self._events[lo:hi]

    def window(self, start: int, stop: int | None = None) -> InternedStream:
        """An :class:`InternedStream` over log positions ``[start, stop)``.

        Dense ids are rebased to first-seen order *within the window*, so
        the result equals a fresh ``intern_stream`` of the same slice.
        """
        lo = start - self._dropped
        if lo < 0:
            raise ValueError(
                f"event {start} was compacted away (oldest retained: "
                f"{self._dropped})"
            )
        hi = len(self._events) if stop is None else stop - self._dropped
        if not 0 <= lo <= hi <= len(self._events):
            raise ValueError(
                f"window [{start}, {stop}) outside the retained log "
                f"[{self._dropped}, {self.events_seen})"
            )
        offsets = self._offsets
        req_lo, req_hi = offsets[lo], offsets[hi]
        old_bids = self._bids
        remap: dict[int, int] = {}
        new_keys: list[Any] = []
        bids = array("i")
        append = bids.append
        # key_of is materialized lazily: only ids first seen in the
        # window need their (stripe, unit) key recovered.
        key_of: tuple[Any, ...] | None = None
        for i in range(req_lo, req_hi):
            old = old_bids[i]
            new = remap.get(old)
            if new is None:
                if key_of is None:
                    key_of = tuple(self._index)
                new = remap[old] = len(new_keys)
                new_keys.append(key_of[old])
            append(new)
        new_offsets = array("i", (offsets[i] - req_lo for i in range(lo, hi + 1)))
        return InternedStream(
            self.backend,
            self.hint,
            tuple(new_keys),
            bids,
            self._hints[req_lo:req_hi],
            new_offsets,
        )

    def compact(self, keep_last: int) -> int:
        """Drop all but the last ``keep_last`` events; returns how many went.

        Rebases the retained suffix through :meth:`window`'s machinery, so
        every later ``window``/``snapshot`` call sees exactly the state a
        fresh interner fed only the suffix would hold.  The block-key
        index is rebuilt from the suffix, releasing keys only the dropped
        prefix touched.
        """
        excess = len(self._events) - max(keep_last, 0)
        if excess <= 0:
            return 0
        rebased = self.window(self._dropped + excess)
        self._index = {key: i for i, key in enumerate(rebased.keys)}
        self._bids = rebased.bids
        self._hints = rebased.hints
        self._offsets = rebased.offsets
        self._events = self._events[excess:]
        self._dropped += excess
        return excess

    def snapshot(self) -> InternedStream:
        """The whole retained log as one :class:`InternedStream`."""
        return InternedStream(
            self.backend,
            self.hint,
            tuple(self._index),
            array("i", self._bids),
            array("i", self._hints),
            array("i", self._offsets),
        )


@dataclass
class ReplayConfig:
    """One grid cell: the replay parameters of a ``simulate_trace`` call."""

    policy: str = "fbf"
    capacity_blocks: int = 64
    workers: int = 1
    policy_factory: Callable[[int], CachePolicy] | None = None
    policy_kwargs: dict | None = None
    hint: str = "priority"
    sanitize: bool = False


def _is_plain(config: ReplayConfig, policies: Collection[str]) -> bool:
    """A plain registry cell of one of ``policies``.

    Every fast path (the stack-distance profile, the saturation shortcut,
    the fleet) takes only these.  Anything that could perturb decisions
    or needs the stepped machinery (a custom factory, constructor kwargs,
    the sanitizer wrapper) steps.
    """
    return (
        config.policy in policies
        and config.policy_factory is None
        and not config.policy_kwargs
        and not config.sanitize
    )


def _row(
    stream: InternedStream,
    config: ReplayConfig,
    workers: int,
    per_worker: int,
    hits: int,
    misses: int,
    policy: str | None = None,
) -> TraceSimResult:
    """The grid pass's row for ``config`` over ``stream``, labelled
    ``policy`` (default ``config.policy``)."""
    backend = stream.backend
    return TraceSimResult(
        policy=config.policy if policy is None else policy,
        scheme_mode=backend.scheme_label,
        code=backend.code_label,
        p=backend.p,
        capacity_blocks=config.capacity_blocks,
        workers=workers,
        per_worker_blocks=per_worker,
        n_errors=stream.n_events,
        requests=hits + misses,
        hits=hits,
        disk_reads=misses,
    )


def _replay_stepped(
    stream: InternedStream,
    config: ReplayConfig,
    worker_distincts: Sequence[int] | None = None,
) -> TraceSimResult:
    """Step one configuration over the decoded stream (any policy).

    ``worker_distincts`` (per-worker working-set sizes, only passed for
    plain :data:`SATURATION_SAFE_POLICIES` configs) lets individual
    workers skip the replay when their outcome is forced: a worker whose
    slice covers its whole working set never evicts, and one with zero
    reuse never hits — both give exactly ``hits = requests - distinct``.
    """
    workers, per_worker = effective_partition(
        config.capacity_blocks, config.workers, stream.n_events
    )
    kwargs = config.policy_kwargs or {}
    if config.policy_factory is not None:
        factory = config.policy_factory
    else:
        factory = lambda cap: make_policy(config.policy, cap, **kwargs)
    if config.sanitize:
        # Imported here for the same reason as simulate_trace: repro.checks
        # imports the event kernel, which cycles through repro.sim.
        from ..checks.sanitizer import SimSanitizer

        base_factory = factory
        factory = lambda cap: SimSanitizer(base_factory(cap))

    hint_free = (
        config.policy_factory is None
        and not config.sanitize
        and config.policy in HINT_FREE_POLICIES
    )
    hits = misses = 0
    policies: list[CachePolicy] = []
    for w, (bids, hints) in enumerate(stream.worker_substreams(workers)):
        if worker_distincts is not None:
            distinct = worker_distincts[w]
            if (0 < per_worker and distinct <= per_worker) or distinct == len(bids):
                hits += len(bids) - distinct
                misses += distinct
                continue
        cache = factory(per_worker)
        policies.append(cache)
        # One batch call per worker: the policy's request_many replays
        # its substream in a single inlined loop over the interned ids;
        # hint-free policies skip the hint array entirely.
        cache.request_many(bids, None if hint_free else hints)

    if not policies:
        # every worker was skipped; a probe instance supplies the label
        policies.append(factory(per_worker))
    hits += sum(p.stats.hits for p in policies)
    misses += sum(p.stats.misses for p in policies)
    label = None
    if config.policy_factory is not None:
        label = getattr(policies[0], "name", "custom")
    return _row(stream, config, workers, per_worker, hits, misses, label)


def _replay_lru_fast(
    stream: InternedStream,
    config: ReplayConfig,
    profiles: dict[int, list],
    profile_factory: Callable[[Sequence[int]], Any] = StackDistanceProfile,
) -> TraceSimResult:
    """LRU via reuse distances: hits at any capacity, no stepping.

    ``profile_factory`` selects the profile flavor: the exact Fenwick
    :class:`~repro.engine.stackdist.StackDistanceProfile` (default) or a
    SHARDS :class:`~repro.engine.stackdist.SampledStackDistanceProfile`
    bound to a sampling rate — anything with ``hits_at(capacity)``.
    """
    workers, per_worker = effective_partition(
        config.capacity_blocks, config.workers, stream.n_events
    )
    per_worker_profiles = profiles.get(workers)
    if per_worker_profiles is None:
        per_worker_profiles = profiles[workers] = [
            profile_factory(bids)
            for bids, _ in stream.worker_substreams(workers)
        ]
    hits = sum(p.hits_at(per_worker) for p in per_worker_profiles)
    misses = stream.total_requests - hits
    return _row(stream, config, workers, per_worker, hits, misses)


#: The fleet kernel that solves each vector policy.  LFU and FBF share
#: the bucket kernel's step loop, so the shape rule counts their lanes
#: together.
_KERNEL_OF = {
    "fifo": "fifo", "lru": "lru", "lfu": "bucket", "fbf": "bucket", "arc": "arc",
}

#: Fleet break-even per kernel, in unsaturated lanes per step
#: (``lane_steps / steps``, DESIGN §14).  A fleet step costs a fixed
#: number of numpy dispatches however many lanes it carries, so the
#: fleet beats stepping (for LRU: the Fenwick profile) only once enough
#: lanes share each step.  Both costs move with host speed; their ratio
#: does not.
_FLEET_BREAK_EVEN = {"fifo": 80.0, "lru": 200.0, "bucket": 200.0, "arc": 420.0}


def _vector_cells(
    configs: Sequence[ReplayConfig],
    stream_for: Callable[[str], InternedStream],
    lru_on_fleet: bool,
) -> dict[int, tuple[str, int, int, str]]:
    """Every cell the fleet can take: index -> (hint, workers, size, policy).

    ``size`` is the per-worker capacity.  Zero-size slices step, and
    plain LRU joins only when ``lru_on_fleet`` (otherwise a reuse-distance
    profile owns it).
    """
    from .vector import VECTOR_POLICIES

    cells: dict[int, tuple[str, int, int, str]] = {}
    for i, config in enumerate(configs):
        if not _is_plain(config, VECTOR_POLICIES):
            continue
        if config.policy == "lru" and not lru_on_fleet:
            continue
        workers, per_worker = effective_partition(
            config.capacity_blocks, config.workers,
            stream_for(config.hint).n_events,
        )
        if per_worker >= 1:
            cells[i] = (config.hint, workers, per_worker, config.policy)
    return cells


def _shape_rule(
    cells: dict[int, tuple[str, int, int, str]],
    stream_for: Callable[[str], InternedStream],
    distincts_for: Callable[[InternedStream, int], Sequence[int]],
) -> dict[int, tuple[str, int, int, str]]:
    """The cells whose ``(hint, workers)`` job runs a kernel the fleet wins.

    Per job and kernel, ``steps`` is the longest worker substream and
    ``lane_steps`` sums the substream lengths over the unsaturated
    (worker, size) lanes; the kernel's cells go to the fleet iff
    ``lane_steps / steps`` reaches :data:`_FLEET_BREAK_EVEN`.
    """
    jobs: dict[tuple[str, int, str], dict[int, tuple[str, int, int, str]]] = {}
    for i, cell in cells.items():
        hint, workers, _, policy = cell
        jobs.setdefault((hint, workers, _KERNEL_OF[policy]), {})[i] = cell
    chosen: dict[int, tuple[str, int, int, str]] = {}
    for (hint, workers, kernel), members in jobs.items():
        st = stream_for(hint)
        lengths = [len(bids) for bids, _ in st.worker_substreams(workers)]
        need = _FLEET_BREAK_EVEN[kernel] * max(lengths)
        lanes = sorted({(policy, size) for _, _, size, policy in members.values()})
        # With every lane unsaturated the job still falls short: small
        # jobs stop here, before the distinct counts are needed.
        if len(lanes) * sum(lengths) < need:
            continue
        distincts = distincts_for(st, workers)
        lane_steps = sum(
            n for _, size in lanes for n, d in zip(lengths, distincts) if size < d
        )
        if lane_steps >= need:
            chosen.update(members)
    return chosen


def _solve_cells(
    configs: Sequence[ReplayConfig],
    cells: dict[int, tuple[str, int, int, str]],
    stream_for: Callable[[str], InternedStream],
) -> dict[int, TraceSimResult]:
    """Solve ``cells`` through the fleet; rows by config index.

    Cells become one :class:`~repro.engine.vector.VectorFleet` job per
    ``(hint, workers)`` pair; jobs that need the same policies share one
    fleet, and so one batched step loop per policy family.  Rows are
    bit-identical to :func:`_replay_stepped` (property-tested).
    """
    if not cells:
        return {}
    from .vector import VectorFleet

    jobs: dict[tuple[str, int], tuple[set[int], set[str]]] = {}
    for hint, workers, size, policy in cells.values():
        sizes, pols = jobs.setdefault((hint, workers), (set(), set()))
        sizes.add(size)
        pols.add(policy)
    fleets: dict[tuple[str, ...], list[tuple[str, int]]] = {}
    for key, (_, pols) in jobs.items():
        fleets.setdefault(tuple(sorted(pols)), []).append(key)
    solved: dict[tuple[str, int], dict] = {}
    for pols, keys in fleets.items():
        fleet = VectorFleet()
        for key in keys:
            fleet.add(stream_for(key[0]), key[1], jobs[key][0])
        for key, out in zip(keys, fleet.solve(pols)):
            solved[key] = out
    rows: dict[int, TraceSimResult] = {}
    for i, (hint, workers, per_worker, policy) in cells.items():
        st = stream_for(hint)
        hits = solved[(hint, workers)][policy][per_worker]
        rows[i] = _row(
            st, configs[i], workers, per_worker, hits, st.total_requests - hits
        )
    return rows


def _replay_vector_rows(
    configs: Sequence[ReplayConfig],
    stream_for: Callable[[str], InternedStream],
    lru_fast_path: bool,
) -> dict[int, TraceSimResult]:
    """Solve every vector-eligible config through the fleet, whatever its
    shape; rows by index.

    The equivalence tests' and the replay bench's lever: the grid pass
    itself sends only the cells :func:`_shape_rule` picks.  True keeps
    plain LRU on the reuse-distance profile path, False routes it
    through the fleet's rank-histogram kernel.
    """
    return _solve_cells(
        configs, _vector_cells(configs, stream_for, not lru_fast_path), stream_for
    )


def simulate_grid_pass(
    backend: CodeBackend,
    events: Sequence[Any],
    configs: Iterable[ReplayConfig],
    plan_cache: PlanCache | None = None,
    stream: InternedStream | None = None,
    lru_fast_path: bool = True,
    stackdist: str = "exact",
    shards_rate: float = 0.01,
) -> list[TraceSimResult]:
    """Replay every configuration over one decoded stream, in one pass.

    Returns one :class:`~repro.engine.tracesim.TraceSimResult` per
    config, in config order, each bit-for-bit equal to the row the
    per-point ``simulate_trace(backend, events, ...)`` call would
    produce.  The stream is decoded once per distinct hint model (block
    ids are hint-independent, so the LRU reuse-distance profiles and
    per-worker working-set sizes are shared across hints); pass
    ``stream`` to reuse an already-interned stream for its hint.

    Three exact fast paths skip per-request stepping
    (``lru_fast_path=False`` disables all three — the equivalence
    tests' lever):

    * the numpy :class:`~repro.engine.vector.VectorFleet`, for the plain
      FIFO/LRU/LFU/ARC/FBF cells of every ``(hint, workers)`` job whose
      shape :func:`_shape_rule` says the fleet wins — enough unsaturated
      lanes per step to pay back its fixed numpy cost per step;
    * plain LRU at any capacity, via the Mattson reuse-distance profile;
    * *saturated* cells of any :data:`SATURATION_SAFE_POLICIES` policy —
      when every worker's capacity slice covers its substream's whole
      working set, no policy ever evicts and the hit count is exactly
      requests minus distinct blocks.

    Cells the fleet refuses (custom factories, kwargs, the sanitizer,
    zero-size slices) step.  ``stackdist="sampled"`` swaps the plain-LRU
    profile's exact Fenwick tree for the SHARDS sampled one at
    ``shards_rate`` and keeps plain LRU off the fleet — the one knob
    that trades row exactness (bounded hit-ratio error, O(sample)
    memory) for scale.
    """
    configs = list(configs)
    if stackdist not in ("exact", "sampled"):
        raise ValueError(
            f"stackdist must be 'exact' or 'sampled', got {stackdist!r}"
        )
    if not 0.0 < shards_rate <= 1.0:
        raise ValueError(f"shards_rate must be in (0, 1], got {shards_rate}")
    if stackdist == "sampled":
        profile_factory = lambda bids: SampledStackDistanceProfile(
            bids, rate=shards_rate
        )
    else:
        profile_factory = StackDistanceProfile
    obs_on = _obs.ENABLED
    if obs_on:
        pass_span = _obs.span(
            "engine.grid_pass",
            {"code": backend.code_label, "n_configs": len(configs)},
        )
        pass_span.__enter__()
        n_lru_fast = n_stepped = n_vector = 0
    streams: dict[str, InternedStream] = {}
    if stream is not None:
        if stream.backend is not backend:
            raise ValueError("stream was interned for a different backend")
        streams[stream.hint] = stream

    def stream_for(hint: str) -> InternedStream:
        cached = streams.get(hint)
        if cached is None:
            cached = streams[hint] = intern_stream(
                backend, events, hint=hint, plan_cache=plan_cache
            )
        return cached

    # workers -> per-worker-substream reuse-distance profiles, shared by
    # every plain-LRU config in the group (ids are hint-independent).
    lru_profiles: dict[int, list[StackDistanceProfile]] = {}
    # workers -> per-worker distinct-block counts (the saturation check
    # and the shape rule).
    worker_distincts: dict[int, list[int]] = {}

    def distincts_for(st: InternedStream, workers: int) -> list[int]:
        cached = worker_distincts.get(workers)
        if cached is None:
            cached = worker_distincts[workers] = [
                len(set(bids)) for bids, _ in st.worker_substreams(workers)
            ]
        return cached

    vector_rows: dict[int, TraceSimResult] = {}
    if lru_fast_path:
        cells = _vector_cells(configs, stream_for, stackdist == "exact")
        vector_rows = _solve_cells(
            configs, _shape_rule(cells, stream_for, distincts_for), stream_for
        )
    results: list[TraceSimResult] = []
    for i, config in enumerate(configs):
        row = vector_rows.get(i)
        if row is not None:
            results.append(row)
            if obs_on:
                n_vector += 1
            continue
        st = stream_for(config.hint)
        if lru_fast_path and _is_plain(config, ("lru",)):
            results.append(
                _replay_lru_fast(st, config, lru_profiles, profile_factory)
            )
            if obs_on:
                n_lru_fast += 1
            continue
        distincts = None
        if lru_fast_path and _is_plain(config, SATURATION_SAFE_POLICIES):
            workers, _ = effective_partition(
                config.capacity_blocks, config.workers, st.n_events
            )
            distincts = distincts_for(st, workers)
        results.append(_replay_stepped(st, config, worker_distincts=distincts))
        if obs_on:
            n_stepped += 1
    if obs_on:
        pass_span["lru_fast_rows"] = n_lru_fast
        pass_span["stepped_rows"] = n_stepped
        pass_span["vector_rows"] = n_vector
        pass_span.__exit__(None, None, None)
        _obs.counter("engine.grid.passes").inc()
        _obs.counter("engine.grid.configs").inc(len(configs))
        _obs.counter("engine.grid.lru_fast_rows").inc(n_lru_fast)
        _obs.counter("engine.grid.stepped_rows").inc(n_stepped)
        _obs.counter("engine.grid.vector_rows").inc(n_vector)
    return results

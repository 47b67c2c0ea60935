"""The one decoder: ``intern_stream`` and ``StreamInterner``, bit for bit.

``intern_stream`` is one :meth:`StreamInterner.extend` over the sorted
trace, so the decode itself is pinned against a reference written
straight from the plans.  The incremental interner exists so the serve
layer can replay a sliding window without re-interning it; that is only
sound if ``window(start, stop)`` is indistinguishable from
``intern_stream`` over the same slice — same keys, same dense ids, same
hints, same offsets — regardless of how the events were batched on the
way in, and regardless of whether :meth:`compact` has dropped a consumed
prefix in between.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import PlanCache, intern_stream, make_backend, simulate_trace
from repro.engine.stream import ReplayConfig, StreamInterner, simulate_grid_pass


def _events(n: int, seed: int = 42, code: str = "tip", p: int = 5):
    return make_backend(code, p).generate_events(n, seed)


def _streams_equal(left, right) -> None:
    assert left.keys == right.keys
    assert left.bids == right.bids
    assert left.hints == right.hints
    assert left.offsets == right.offsets
    assert left.hint == right.hint
    assert left.total_requests == right.total_requests


def _decode_from_plans(backend, events, hint):
    """The stream written straight from the plans: every step's reads in
    issue order, each ``(stripe, unit)`` numbered when first seen, hinted
    by its share count (capped at 3 for Table II's priority)."""
    ids: dict = {}
    bids, hints, offsets = [], [], [0]
    for event in sorted(events):
        plan = backend.build_plan(event)
        shares: dict = {}
        for step in plan.steps:
            for unit in step.reads:
                shares[unit] = shares.get(unit, 0) + 1
        for step in plan.steps:
            for unit in step.reads:
                bids.append(ids.setdefault((event.stripe, unit), len(ids)))
                share = shares[unit]
                hints.append(min(share, 3) if hint == "priority" else share)
        offsets.append(len(bids))
    return tuple(ids), bids, hints, offsets


class TestDecode:
    @given(
        spec=st.sampled_from(
            (("tip", 5), ("star", 5), ("hdd1", 5), ("triple-star", 5),
             ("lrc(12,2,2)", 0))
        ),
        hint=st.sampled_from(("priority", "share")),
        n_events=st.integers(0, 60),
        seed=st.integers(0, 2**16),
        shift=st.integers(0, 1 << 62),
    )
    # Stripes as large as 2^62: keys hold Python ints, never fixed-width codes.
    @example(spec=("tip", 5), hint="priority", n_events=30, seed=42, shift=1 << 62)
    @settings(max_examples=40, deadline=None)
    def test_intern_stream_equals_a_decode_from_the_plans(
        self, spec, hint, n_events, seed, shift
    ):
        backend = make_backend(*spec)
        events = [
            replace(e, stripe=e.stripe + shift)
            for e in backend.generate_events(max(n_events, 1), seed)[:n_events]
        ]
        plans = PlanCache(backend)
        stream = intern_stream(backend, events, hint=hint, plan_cache=plans)
        assert sum(plans.counts()) == n_events  # one get per event
        keys, bids, hints, offsets = _decode_from_plans(backend, events, hint)
        assert stream.keys == keys
        assert list(stream.bids) == bids
        assert list(stream.hints) == hints
        assert list(stream.offsets) == offsets
        assert stream.hint == hint and stream.n_events == n_events


class TestWindowEquivalence:
    @given(
        batching=st.lists(st.integers(1, 17), min_size=1, max_size=6),
        hint=st.sampled_from(("priority", "share")),
        start=st.integers(0, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_window_matches_fresh_intern(self, batching, hint, start):
        backend = make_backend("tip", 5)
        events = _events(40)
        interner = StreamInterner(backend, hint=hint)
        fed = 0
        for size in batching:
            interner.extend(events[fed:fed + size])
            fed = min(fed + size, len(events))
        interner.extend(events[fed:])
        fresh = intern_stream(backend, events[start:], hint=hint)
        _streams_equal(interner.window(start), fresh)

    def test_window_slice_matches_fresh_intern(self):
        backend = make_backend("star", 5)
        events = _events(30, code="star")
        interner = StreamInterner(backend)
        interner.extend(events)
        for start, stop in ((0, 30), (5, 25), (12, 13), (29, 30)):
            fresh = intern_stream(backend, events[start:stop])
            _streams_equal(interner.window(start, stop), fresh)

    def test_events_slice_round_trips(self):
        backend = make_backend("tip", 5)
        events = _events(20)
        interner = StreamInterner(backend)
        interner.extend(events[:11])
        interner.extend(events[11:])
        assert interner.events_slice(0) == events
        assert interner.events_slice(4, 9) == events[4:9]


class TestCompaction:
    def test_compact_preserves_window_identity(self):
        backend = make_backend("tip", 5)
        events = _events(48)
        interner = StreamInterner(backend)
        interner.extend(events)
        before = interner.window(30)
        dropped = interner.compact(keep_last=18)
        assert dropped == 30
        assert interner.first_event == 30
        assert interner.events_seen == 48
        _streams_equal(interner.window(30), before)
        _streams_equal(
            interner.window(30), intern_stream(backend, events[30:])
        )

    def test_compact_equals_fresh_interner_of_suffix(self):
        backend = make_backend("hdd1", 5)
        events = _events(36, code="hdd1")
        interner = StreamInterner(backend)
        interner.extend(events)
        interner.compact(keep_last=12)
        suffix = StreamInterner(backend)
        suffix.extend(events[24:])
        _streams_equal(interner.snapshot(), suffix.snapshot())
        assert interner.n_blocks == suffix.n_blocks

    def test_window_before_first_event_rejected(self):
        interner = StreamInterner(make_backend("tip", 5))
        interner.extend(_events(20))
        interner.compact(keep_last=5)
        with pytest.raises(ValueError, match="compacted away"):
            interner.window(3)


class TestReplayThroughWindows:
    def test_grid_pass_over_window_equals_per_point(self):
        """The serve evaluation path — grid pass on a window stream —
        equals offline per-point simulate_trace on the same slice."""
        backend = make_backend("tip", 5)
        events = _events(32)
        interner = StreamInterner(backend)
        interner.extend(events[:17])
        interner.extend(events[17:])
        configs = [
            ReplayConfig(policy=p, capacity_blocks=c, workers=4)
            for p in ("fbf", "lru", "arc")
            for c in (8, 64)
        ]
        rows = simulate_grid_pass(
            backend,
            interner.events_slice(10),
            configs,
            plan_cache=interner.plan_cache,
            stream=interner.window(10),
        )
        for config, row in zip(configs, rows):
            assert row == simulate_trace(
                backend,
                events[10:],
                policy=config.policy,
                capacity_blocks=config.capacity_blocks,
                workers=config.workers,
            )

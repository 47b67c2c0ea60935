"""StreamInterner's contract: windows equal fresh interning, bit for bit.

The incremental interner exists so the serve layer can replay a sliding
window without re-interning it; that is only sound if ``window(start,
stop)`` is indistinguishable from ``intern_stream`` over the same slice
— same keys, same dense ids, same hints, same offsets — regardless of
how the events were batched on the way in, and regardless of whether
:meth:`compact` has dropped a consumed prefix in between.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import intern_stream, make_backend, simulate_trace
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


class TestPairCodeOverflow:
    def test_huge_stripes_intern_through_the_interner_loop(self, monkeypatch):
        """Stripes too large for int64 pair codes take StreamInterner's
        loop: the same stream, with every key's stripe shifted."""
        backend = make_backend("tip", 5)
        events = _events(30)
        base = intern_stream(backend, events)
        shift = 1 << 62  # >= (1 << 62) // n_units for any unit count
        extended = []
        extend = StreamInterner.extend
        monkeypatch.setattr(
            StreamInterner,
            "extend",
            lambda self, batch: extended.append(1) or extend(self, batch),
        )
        huge = intern_stream(
            backend, [replace(e, stripe=e.stripe + shift) for e in events]
        )
        assert extended == [1]
        assert huge.bids == base.bids
        assert huge.hints == base.hints
        assert huge.offsets == base.offsets
        assert huge.keys == tuple((stripe + shift, unit) for stripe, unit in base.keys)

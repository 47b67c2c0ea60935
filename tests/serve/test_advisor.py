"""The advisor's core contract: advice IS the offline winner, bit for bit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import PlanCache, XORBackend, make_backend, simulate_grid_pass
from repro.engine.stream import ReplayConfig
from repro.serve import ArraySpec, CacheAdvisor, ServeConfig, SyntheticSource, pick_winner
from repro.utils import parse_size


def _config(**overrides) -> ServeConfig:
    base = dict(
        code="tip",
        p=5,
        workers=4,
        cache_mbs=(2.0, 8.0),
        policies=("fbf", "lru", "arc"),
        window_events=48,
        batch_events=12,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _offline_rows(advisor: CacheAdvisor):
    """Recompute the window grid the offline way, from first principles."""
    config = advisor.config
    backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
    block = parse_size(config.chunk_size)
    grid = [
        ReplayConfig(
            policy=policy,
            capacity_blocks=int(mb * 1024 * 1024) // block,
            workers=config.workers,
            hint=config.hint,
        )
        for policy in config.policies
        for mb in config.cache_mbs
    ]
    return simulate_grid_pass(backend, advisor.window_events(), grid)


class TestAdviseMatchesOffline:
    def test_evaluate_rows_equal_offline_grid_pass(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        for batch in source.batches(5):
            advisor.ingest(batch)
        assert advisor.evaluate() == _offline_rows(advisor)

    def test_advice_is_the_offline_winner_bit_for_bit(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12, seed=7)
        for batch in source.batches(6):
            advisor.ingest(batch)
        advice = advisor.advise()
        winner = pick_winner(_offline_rows(advisor))
        assert advice.policy == winner.policy
        assert advice.capacity_blocks == winner.capacity_blocks
        assert advice.hit_ratio == winner.hit_ratio  # exact, not approx
        assert advice.evaluated == len(advisor.config.policies) * len(
            advisor.config.cache_mbs
        )

    def test_equality_survives_compaction(self):
        # window=48: feeding 120 events drops the first 72 from the log.
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12, seed=3)
        for batch in source.batches(10):
            advisor.ingest(batch)
        assert advisor.first_event == 72  # compaction really ran
        assert advisor.evaluate() == _offline_rows(advisor)

    def test_out_of_order_windows_replay_in_time_order(self):
        """Window membership is arrival order, but every window replays in
        time order, as the offline call does, whatever order batches
        arrive in."""
        for seed in range(20):
            advisor = CacheAdvisor(_config())
            batches = list(SyntheticSource("tip", 5, chunk=12, seed=seed).batches(4))
            for i in (1, 0, 3, 2):
                advisor.ingest(batches[i])
            assert advisor.out_of_order == 2
            assert advisor.window_events() == batches[1] + batches[0] + batches[3] + batches[2]
            assert advisor.evaluate() == _offline_rows(advisor), f"seed {seed}"

    def test_evaluation_memoized_until_window_moves(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        advisor.ingest(source.next_batch())
        first = advisor.evaluate()
        assert advisor.evaluate() is first
        assert advisor.evaluations == 1
        advisor.ingest(source.next_batch())
        assert advisor.evaluate() is not first
        assert advisor.evaluations == 2


class TestState:
    def test_ingest_makes_no_plan_lookup(self, monkeypatch):
        calls = {"get": 0, "build_plan": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(PlanCache, "get")
        counting(XORBackend, "build_plan")
        advisor = CacheAdvisor(_config())
        for batch in SyntheticSource("tip", 5, chunk=12, seed=4).batches(20):
            advisor.ingest(batch)
        assert advisor.events_seen == 240
        assert advisor.first_event > 0  # compaction ran
        assert calls == {"get": 0, "build_plan": 0}
        advisor.evaluate()
        assert calls["get"] == len(advisor.window_events())
        assert calls["build_plan"] > 0

    def test_out_of_layout_batch_is_refused_whole(self):
        advisor = CacheAdvisor(_config())  # TIP p=5: 6 disks, 4 rows
        source = SyntheticSource("tip", 5, chunk=12)
        advisor.ingest(source.next_batch())
        good = source.next_batch()
        for bad in (replace(good[0], disk=99), replace(good[0], start_row=2, length=3)):
            with pytest.raises(ValueError, match="disk 99|exceed 4 rows"):
                advisor.ingest(good[1:] + [bad])
            assert (advisor.events_seen, advisor.batches) == (12, 1)
        assert advisor.evaluate() == _offline_rows(advisor)


class TestPickWinner:
    def test_ranking_prefers_hit_ratio_then_capacity_then_name(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        for batch in source.batches(4):
            advisor.ingest(batch)
        rows = advisor.evaluate()
        winner = pick_winner(rows)
        best = max(row.hit_ratio for row in rows)
        assert winner.hit_ratio == best
        contenders = [row for row in rows if row.hit_ratio == best]
        assert winner.capacity_blocks == min(
            row.capacity_blocks for row in contenders
        )

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            pick_winner([])


class TestGuards:
    def test_wrong_array_spec_rejected(self):
        advisor = CacheAdvisor(_config())
        advisor.ingest(SyntheticSource("tip", 5, chunk=12).next_batch())
        with pytest.raises(ValueError, match="advisor serves"):
            advisor.advise(ArraySpec(code="star", p=5))

    def test_non_xor_code_rejected_eagerly(self):
        with pytest.raises(ValueError, match="XOR array codes"):
            CacheAdvisor(_config(code="lrc(12,2,2)", p=0))

    def test_undersized_capacity_rejected_eagerly(self):
        # 2 MB / 32KB = 64 blocks < 128 workers: every worker needs a slice.
        with pytest.raises(ValueError, match="fewer than"):
            CacheAdvisor(_config(workers=128, cache_mbs=(2.0,)))

    def test_out_of_order_batch_counted_but_accepted(self):
        advisor = CacheAdvisor(_config())
        source = SyntheticSource("tip", 5, chunk=12)
        first = source.next_batch()
        second = source.next_batch()
        advisor.ingest(second)
        advisor.ingest(first)  # older than the retained tail
        assert advisor.out_of_order == 1
        assert advisor.events_seen == 24

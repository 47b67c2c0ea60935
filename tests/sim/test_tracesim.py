"""Tests for the fast trace-driven cache simulator on the XOR codes."""

import pytest

from repro.codes import make_code
from repro.core import PriorityDictionary, generate_plan
from repro.engine import (
    PlanCache,
    XORBackend,
    make_backend,
    run_timed_replay,
    simulate_cache_trace,
    simulate_trace,
)
from repro.sim.reconstruction import SimConfig, run_reconstruction
from repro.workloads import ErrorTraceConfig, generate_errors


@pytest.fixture
def errors(tip7):
    return generate_errors(tip7, ErrorTraceConfig(n_errors=25, seed=4))


def _plans(layout, scheme_mode="fbf"):
    return PlanCache(XORBackend(layout, scheme_mode))


class TestPlanCache:
    def test_memoizes_by_shape(self, tip7, errors):
        pc = _plans(tip7)
        a = pc.get(errors[0])
        b = pc.get(errors[0])
        assert a is b

    def test_plans_match_direct_generation(self, tip7, errors):
        """The engine plan's own Table II priorities equal the
        PriorityDictionary of the directly generated plan."""
        pc = _plans(tip7)
        for e in errors[:5]:
            plan = pc.get(e)
            direct = generate_plan(tip7, e.cells(tip7), "fbf")
            assert plan.request_sequence == direct.request_sequence
            assert plan.source.request_sequence == direct.request_sequence
            assert plan.priorities == dict(PriorityDictionary(direct))

    def test_stats_counts_hits_misses_entries(self, tip7, errors):
        pc = _plans(tip7)
        assert pc.stats() == {"hits": 0, "misses": 0, "entries": 0}
        pc.get(errors[0])
        pc.get(errors[0])
        stats = pc.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == len(pc) == 1

    def test_shared_across_runs_accumulates(self, tip7, errors):
        """One PlanCache serving a whole sweep group: the second replay
        hits every shape the first one planned."""
        pc = _plans(tip7)
        simulate_trace(pc.backend, errors, policy="lru", capacity_blocks=32, plan_cache=pc)
        planned = pc.stats()["misses"]
        simulate_trace(pc.backend, errors, policy="fbf", capacity_blocks=64, plan_cache=pc)
        stats = pc.stats()
        assert stats["misses"] == planned  # no new shapes on the re-run
        assert stats["hits"] >= planned


class TestSimulateCacheTrace:
    def test_request_count_matches_plans(self, tip7, errors):
        pc = _plans(tip7)
        expected = sum(pc.get(e).total_requests for e in errors)
        res = simulate_trace(
            pc.backend, errors, policy="lru", capacity_blocks=32, plan_cache=pc
        )
        assert res.requests == expected
        assert res.hits + res.disk_reads == res.requests

    def test_zero_capacity_all_misses(self, tip7, errors):
        res = simulate_cache_trace(tip7, errors, policy="lru", capacity_blocks=0)
        assert res.hits == 0
        assert res.hit_ratio == 0.0

    def test_infinite_cache_hits_all_shared_reads(self, tip7, errors):
        pc = _plans(tip7)
        shared = sum(pc.get(e).total_requests - pc.get(e).unique_reads for e in errors)
        res = simulate_trace(
            pc.backend, errors, policy="lru", capacity_blocks=10**6, plan_cache=pc
        )
        assert res.hits == shared

    def test_validation(self, tip7, errors):
        with pytest.raises(ValueError):
            simulate_cache_trace(tip7, errors, capacity_blocks=-1)
        with pytest.raises(ValueError):
            simulate_cache_trace(tip7, errors, workers=0)

    def test_plan_cache_layout_mismatch_rejected(self, tip7, errors):
        pc = _plans(make_code("star", 5))
        with pytest.raises(ValueError, match="different backend"):
            simulate_trace(XORBackend(tip7, "fbf"), errors, plan_cache=pc)

    def test_worker_partitioning_changes_results(self, tip7, errors):
        one = simulate_cache_trace(tip7, errors, capacity_blocks=64, workers=1)
        many = simulate_cache_trace(tip7, errors, capacity_blocks=64, workers=8)
        assert one.requests == many.requests  # same streams, split differently

    def test_hint_validation(self, tip7, errors):
        with pytest.raises(ValueError, match="hint"):
            simulate_cache_trace(tip7, errors, hint="frequency")

    def test_share_hint_feeds_raw_counts(self, tip7, errors):
        """With hint='share' and n_queues>3, requests land above Queue3
        on adjuster-free TIP only if counts exceed 3 (they don't), so the
        two hint modes agree there — but both run cleanly."""
        from repro.core.fbf_cache import FBFCache

        a = simulate_cache_trace(
            tip7, errors, capacity_blocks=32, hint="priority",
            policy_factory=lambda cap: FBFCache(cap, n_queues=5),
        )
        b = simulate_cache_trace(
            tip7, errors, capacity_blocks=32, hint="share",
            policy_factory=lambda cap: FBFCache(cap, n_queues=5),
        )
        assert a.requests == b.requests

    def test_typical_scheme_has_zero_hits(self, tip7, errors):
        """All-horizontal recovery shares nothing, so nothing can hit."""
        res = simulate_cache_trace(
            tip7, errors, policy="lru", capacity_blocks=64, scheme_mode="typical"
        )
        assert res.hits == 0


class TestAgreementWithEventSim:
    def test_hit_counts_match_des(self, tip7, errors):
        """The untimed replay and the DES must agree on cache behaviour
        when chain reads are issued serially (same request order)."""
        capacity = 64
        workers = 4
        fast = simulate_cache_trace(
            tip7, errors, policy="fbf", capacity_blocks=capacity, workers=workers
        )
        rep = run_reconstruction(
            tip7,
            errors,
            SimConfig(
                policy="fbf",
                cache_size=capacity * 32 * 1024,
                workers=workers,
                parallel_chain_reads=False,
            ),
        )
        assert rep.cache_hits == fast.hits
        assert rep.disk_reads == fast.disk_reads

    def test_fewer_events_than_workers_partition_alike(self):
        """With fewer events than SOR workers, the DES and the untimed
        replay run the same ``min(workers, events)`` workers, each with
        the same slice of the whole cache, so their hit counts agree."""
        for name, p in (("tip", 7), ("star", 5), ("hdd1", 7)):
            backend = make_backend(name, p)
            for n_events in (3, 5, 7):
                events = backend.generate_events(n_events, 11)
                for policy in ("lru", "fbf", "arc"):
                    for blocks in (16, 64, 256):
                        config = SimConfig(
                            policy=policy, cache_size=blocks * 32 * 1024, workers=8
                        )
                        des = run_timed_replay(backend, events, config)
                        fast = simulate_trace(
                            backend, events, policy=policy,
                            capacity_blocks=blocks, workers=8,
                        )
                        cell = (name, n_events, policy, blocks)
                        assert des.cache_hits == fast.hits, cell
                        assert des.disk_reads == fast.disk_reads, cell

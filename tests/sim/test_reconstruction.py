"""Tests for serial/SOR reconstruction runs."""

import pytest

from repro.codes import make_code
from repro.engine import effective_partition
from repro.sim import SimConfig, run_reconstruction
from repro.workloads import ErrorTraceConfig, PartialStripeError, generate_errors


@pytest.fixture
def errors(tip7):
    return generate_errors(tip7, ErrorTraceConfig(n_errors=20, seed=9))


class TestSimConfig:
    def test_defaults_match_paper(self):
        cfg = SimConfig()
        assert cfg.chunk_bytes == 32 * 1024
        assert cfg.hit_time == 0.0005
        assert cfg.disk_latency == 0.010

    def test_cache_partitioning(self):
        cfg = SimConfig(cache_size="2MB", chunk_size="32KB", workers=8)
        assert cfg.cache_blocks_total == 64
        assert effective_partition(cfg.cache_blocks_total, cfg.workers, 20) == (8, 8)
        # Only min(workers, events) workers run, and they split the whole cache.
        assert effective_partition(cfg.cache_blocks_total, cfg.workers, 3) == (3, 21)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            SimConfig(workers=0)


class TestRunReconstruction:
    def test_rejects_empty_batch(self, tip7):
        with pytest.raises(ValueError):
            run_reconstruction(tip7, [], SimConfig())

    def test_report_totals(self, tip7, errors):
        rep = run_reconstruction(tip7, errors, SimConfig(workers=4))
        assert rep.n_errors == len(errors)
        assert rep.chunks_recovered == sum(e.length for e in errors)
        assert rep.disk_writes == rep.chunks_recovered
        assert rep.cache_hits + rep.cache_misses == rep.total_requests
        assert rep.disk_reads == rep.cache_misses
        assert rep.reconstruction_time > 0
        assert 0 < rep.avg_response_time <= rep.max_response_time

    def test_deterministic(self, tip7, errors):
        a = run_reconstruction(tip7, errors, SimConfig(workers=4))
        b = run_reconstruction(tip7, errors, SimConfig(workers=4))
        assert a.reconstruction_time == b.reconstruction_time
        assert a.cache_hits == b.cache_hits

    def test_more_workers_finish_sooner(self, tip7, errors):
        slow = run_reconstruction(tip7, errors, SimConfig(workers=1, cache_size="8MB"))
        fast = run_reconstruction(tip7, errors, SimConfig(workers=8, cache_size="8MB"))
        assert fast.reconstruction_time < slow.reconstruction_time

    def test_larger_cache_fewer_reads(self, tip7, errors):
        small = run_reconstruction(tip7, errors, SimConfig(cache_size="256KB", workers=4))
        large = run_reconstruction(tip7, errors, SimConfig(cache_size="32MB", workers=4))
        assert large.disk_reads <= small.disk_reads
        assert large.hit_ratio >= small.hit_ratio

    def test_fbf_beats_lru_when_cache_tight(self, tip7, errors):
        cfg = dict(cache_size="1MB", workers=8)
        fbf = run_reconstruction(tip7, errors, SimConfig(policy="fbf", **cfg))
        lru = run_reconstruction(tip7, errors, SimConfig(policy="lru", **cfg))
        assert fbf.hit_ratio >= lru.hit_ratio
        assert fbf.reconstruction_time <= lru.reconstruction_time

    def test_policy_factory_override(self, tip7, errors):
        from repro.cache import LRUCache

        rep = run_reconstruction(
            tip7, errors, SimConfig(workers=2), policy_factory=lambda cap: LRUCache(cap)
        )
        assert rep.policy == "lru"

    def test_online_mode_respects_arrival_times(self, tip7):
        errs = [
            PartialStripeError(time=100.0, stripe=1, disk=0, start_row=0, length=1),
            PartialStripeError(time=200.0, stripe=2, disk=0, start_row=0, length=1),
        ]
        rep = run_reconstruction(
            tip7, errs, SimConfig(workers=1, respect_arrival_times=True)
        )
        # recovery can't finish before the last arrival minus the first
        assert rep.reconstruction_time >= 100.0

    def test_overhead_percent_bounded(self, tip7, errors):
        rep = run_reconstruction(tip7, errors, SimConfig(workers=4))
        assert 0 <= rep.overhead_percent < 100


class TestDiskStats:
    def test_report_carries_per_disk_stats(self, tip7, errors):
        rep = run_reconstruction(tip7, errors, SimConfig(workers=4))
        assert len(rep.disk_stats) == tip7.num_disks
        total_accesses = sum(n for _, _, n in rep.disk_stats)
        assert total_accesses == rep.disk_reads + rep.disk_writes

    def test_utilization_bounded(self, tip7, errors):
        rep = run_reconstruction(tip7, errors, SimConfig(workers=4))
        utils = rep.disk_utilization()
        assert len(utils) == tip7.num_disks
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utils)

    def test_failed_disk_sees_only_spare_writes(self, tip7):
        from repro.workloads import PartialStripeError

        errors = [
            PartialStripeError(time=0, stripe=s, disk=3, start_row=0, length=4)
            for s in range(5)
        ]
        rep = run_reconstruction(tip7, errors, SimConfig(workers=2))
        busy, wait, accesses = rep.disk_stats[3]
        assert accesses == rep.disk_writes  # 20 spare writes, zero reads

    def test_more_workers_higher_utilization(self, tip7, errors):
        slow = run_reconstruction(tip7, errors, SimConfig(workers=1))
        fast = run_reconstruction(tip7, errors, SimConfig(workers=8))
        assert max(fast.disk_utilization()) > max(slow.disk_utilization())


class TestCrossCodeConsistency:
    def test_all_codes_run(self, code_name, prime):
        layout = make_code(code_name, prime)
        errors = generate_errors(layout, ErrorTraceConfig(n_errors=6, seed=2))
        rep = run_reconstruction(layout, errors, SimConfig(workers=2))
        assert rep.code == layout.name
        assert rep.chunks_recovered == sum(e.length for e in errors)

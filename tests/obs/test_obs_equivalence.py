"""The obs overhead contract: enabling instrumentation never changes rows.

Every simulated value — hit ratios, disk reads, virtual-time metrics —
must be bit-identical with observability on and off; obs may only add
wall-clock cost (bounded separately by the replay-bench time gate).
"""

from __future__ import annotations

from dataclasses import replace

from repro import api
from repro.obs import runtime


def _small_scale():
    return replace(api.QUICK, n_errors=6, workers=2, cache_mbs=(0.25, 1.0))


def _fig8_rows():
    grid = api.experiment_grid("fig8", _small_scale())
    return api.run_grid(grid).points


class TestRowEquality:
    def test_fig8_grid_rows_identical(self):
        runtime.disable()
        rows_off = _fig8_rows()
        runtime.enable(fresh=True)
        rows_on = _fig8_rows()
        runtime.disable()
        assert rows_on == rows_off

    def test_simulate_trace_identical(self):
        backend = api.make_backend("tip", 7)
        events = backend.generate_events(12, 42)
        kwargs = dict(policy="fbf", capacity_blocks=64, workers=4)
        runtime.disable()
        row_off = api.simulate_trace(backend, events, **kwargs)
        runtime.enable(fresh=True)
        row_on = api.simulate_trace(backend, events, **kwargs)
        runtime.disable()
        assert row_on == row_off

    def test_grid_pass_identical(self):
        backend = api.make_backend("star", 5)
        events = backend.generate_events(10, 7)
        configs = [
            api.ReplayConfig(policy=policy, capacity_blocks=cap, workers=2)
            for policy in ("fbf", "lru", "arc")
            for cap in (16, 64)
        ]
        runtime.disable()
        rows_off = api.simulate_grid_pass(backend, events, configs)
        runtime.enable(fresh=True)
        rows_on = api.simulate_grid_pass(backend, events, configs)
        runtime.disable()
        assert rows_on == rows_off

    def test_timed_kernel_replay_identical(self):
        from repro.engine.timed import run_timed_replay
        from repro.sim import SimConfig

        backend = api.make_backend("tip", 7)
        events = backend.generate_events(6, 3)
        config = SimConfig(workers=4)
        runtime.disable()
        rep_off = run_timed_replay(backend, events, config)
        runtime.enable(fresh=True)
        rep_on = run_timed_replay(backend, events, config)
        runtime.disable()
        assert rep_on.hit_ratio == rep_off.hit_ratio
        assert rep_on.disk_reads == rep_off.disk_reads
        assert rep_on.reconstruction_time == rep_off.reconstruction_time
        assert rep_on.avg_response_time == rep_off.avg_response_time


class TestCollectedMetrics:
    def test_grid_run_populates_engine_and_bench_layers(self):
        registry = runtime.enable(fresh=True)
        result = api.run_grid(api.experiment_grid("fig8", _small_scale()))
        runtime.disable()
        snap = registry.snapshot()
        assert snap["counters"]["bench.points"] == result.n_points
        assert snap["counters"]["engine.grid.configs"] == result.n_points
        assert snap["counters"]["engine.plan_cache.misses"] > 0
        assert snap["counters"]["bench.plan_cache.misses"] == (
            result.plan_cache_misses
        )
        assert "bench.run_grid" in snap["spans"]
        assert "engine.grid_pass" in snap["spans"]
        assert snap["histograms"]["bench.point_seconds"]["count"] == result.n_points

    def test_fork_join_plan_builds_reach_the_engine_layer(self):
        # Batched des groups build their plans in ForkJoinGroup's Table IV
        # timing loop; the engine layer must count the same builds.
        registry = runtime.enable(fresh=True)
        result = api.run_grid(api.experiment_grid("fig10", _small_scale()))
        runtime.disable()
        counters = registry.snapshot()["counters"]
        assert counters["bench.des.fast_rows"] > 0
        assert result.plan_cache_misses > 0
        assert counters["engine.plan_cache.misses"] == result.plan_cache_misses
        assert counters["engine.plan_cache.misses"] == counters["bench.plan_cache.misses"]

    def test_kernel_run_populates_kernel_layer(self):
        from repro.engine.timed import run_timed_replay
        from repro.sim import SimConfig

        backend = api.make_backend("tip", 7)
        events = backend.generate_events(6, 3)
        registry = runtime.enable(fresh=True)
        run_timed_replay(backend, events, SimConfig(workers=4))
        runtime.disable()
        snap = registry.snapshot()
        assert snap["counters"]["kernel.events_dispatched"] > 0
        assert snap["counters"]["kernel.runs"] >= 1
        assert "kernel.run" in snap["spans"]
        # SOR workers contend for disks, so some requests must queue.
        assert snap["histograms"]["kernel.resource.wait_vtime"]["count"] > 0

    def test_plan_cache_counts_surface_through_run_grid(self):
        runtime.disable()
        result = api.run_grid(api.experiment_grid("fig8", _small_scale()))
        assert result.plan_cache_hits + result.plan_cache_misses > 0

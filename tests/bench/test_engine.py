"""Tests for the parallel sweep engine (determinism contract + cache)."""

import json
from dataclasses import replace

import pytest

from repro.bench import (
    ENGINE_CACHE_VERSION,
    EngineConfig,
    GridPoint,
    ResultCache,
    Scale,
    SweepPoint,
    experiment_grid,
    rows_equivalent,
    run_grid,
    write_bench_json,
)
from repro.bench.engine import bench_payload

TINY = Scale(
    n_errors=8,
    workers=4,
    cache_mbs=(0.25, 1.0),
    seed=3,
    codes=("tip",),
    ps_main=(5,),
    ps_tip=(5,),
)

SERIAL = EngineConfig(workers=0)


def tiny_grid(name: str):
    return experiment_grid(name, TINY)


class TestGridPoint:
    def test_hashable_and_frozen(self):
        a = tiny_grid("fig8")[0]
        b = tiny_grid("fig8")[0]
        assert a == b and hash(a) == hash(b)

    def test_cache_key_stable_and_sensitive(self):
        a = tiny_grid("fig8")[0]
        assert a.cache_key() == a.cache_key()
        from dataclasses import replace

        assert a.cache_key() != replace(a, seed=a.seed + 1).cache_key()
        assert a.cache_key() != a.cache_key(salt="other-version")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GridPoint(kind="nope", experiment="x", code="tip", p=5,
                      policy="fbf", cache_mb=1.0)

    def test_demotion_requires_flag(self):
        with pytest.raises(ValueError, match="demote_on_hit"):
            GridPoint(kind="demotion", experiment="x", code="tip", p=5,
                      policy="fbf", cache_mb=1.0)


class TestEngineConfig:
    def test_auto_resolves_positive(self):
        assert EngineConfig(workers="auto").resolved_workers() >= 1

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=-1)
        with pytest.raises(ValueError):
            EngineConfig(workers="many")


class TestReplayBackendConfig:
    def test_replay_backend_option_is_gone(self):
        # The grid pass picks the fleet per job shape; there is no switch.
        with pytest.raises(TypeError, match="replay_backend"):
            EngineConfig(replay_backend="numpy")

    def test_rejects_bad_stackdist(self):
        with pytest.raises(ValueError, match="stackdist"):
            EngineConfig(stackdist="guessed")

    def test_rejects_bad_shards_rate(self):
        with pytest.raises(ValueError, match="shards_rate"):
            EngineConfig(stackdist="sampled", shards_rate=0.0)

    def test_exact_keeps_base_salt(self):
        assert EngineConfig().replay_salt() == ENGINE_CACHE_VERSION

    def test_sampled_salts_by_rate(self):
        a = EngineConfig(stackdist="sampled", shards_rate=0.01)
        b = EngineConfig(stackdist="sampled", shards_rate=0.05)
        assert a.replay_salt() != ENGINE_CACHE_VERSION
        assert a.replay_salt() != b.replay_salt()

    def test_numpy_rows_equal_python_through_run_grid(self):
        # 128 SOR workers over 300 events: wide enough that the grid
        # pass hands FIFO and LFU/FBF to the numpy fleet.
        from repro.obs import runtime

        grid = experiment_grid("fig8", Scale(
            n_errors=300, workers=128, cache_mbs=(8, 16, 32), seed=3,
            codes=("tip",), ps_main=(7,),
        ))
        registry = runtime.enable(fresh=True)
        try:
            rows = run_grid(grid, SERIAL)
        finally:
            runtime.disable()
        assert registry.snapshot()["counters"]["engine.grid.vector_rows"] > 0
        reference = run_grid(grid, EngineConfig(workers=0, batch=False))
        assert rows.points == reference.points


class TestParallelSerialEquivalence:
    """engine(workers=N) must reproduce engine(workers=0) row for row."""

    @pytest.mark.parametrize(
        "experiment", ["fig8", "fig10", "ablation-scheme", "ablation-demotion"]
    )
    def test_each_family(self, experiment):
        grid = tiny_grid(experiment)
        serial = run_grid(grid, SERIAL)
        parallel = run_grid(grid, EngineConfig(workers=4))
        assert serial.workers == 0 and parallel.workers >= 1
        assert rows_equivalent(serial.points, parallel.points)
        # trace replays carry no measured columns -> fully identical
        if experiment != "fig10":
            assert serial.points == parallel.points

    def test_trace_rows_survive_pickle_equality(self):
        # regression: nan defaults must compare equal across transports
        grid = tiny_grid("fig8")[:1]
        import pickle

        row = run_grid(grid, SERIAL).points[0]
        assert pickle.loads(pickle.dumps(row)) == row


class TestBatchedDispatch:
    """batch=True groups hit-ratio cells into one interned-stream pass."""

    @pytest.mark.parametrize(
        "experiment", ["fig8", "fig9", "ablation-scheme", "ablation-demotion"]
    )
    def test_batched_rows_equal_golden(self, experiment):
        grid = tiny_grid(experiment)
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        batched = run_grid(grid, SERIAL)  # batch defaults to True
        assert golden.points == batched.points

    def test_parallel_batched_rows_equal_golden(self):
        grid = tiny_grid("fig8")
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        parallel = run_grid(grid, EngineConfig(workers=4))
        assert golden.points == parallel.points

    @pytest.mark.parametrize("experiment", ["fig10", "fig11", "table4"])
    def test_des_groups_equal_the_des(self, experiment):
        # Batched des groups replay on the fork-join model; batch=False
        # runs the DES cell by cell.  The measured Table IV columns differ.
        grid = tiny_grid(experiment)
        batched = run_grid(grid, SERIAL)
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        assert rows_equivalent(batched.points, golden.points)

    def test_pooled_des_groups_equal_the_des(self):
        grid = experiment_grid("fig10", replace(TINY, codes=("tip", "star")))
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        pooled = run_grid(grid, EngineConfig(workers=2))
        assert pooled.workers == 2
        assert rows_equivalent(pooled.points, golden.points)

    def test_batched_preserves_order_timings_and_progress(self):
        grid = tiny_grid("fig8")
        seen = []
        result = run_grid(
            grid, SERIAL, on_progress=lambda done, total: seen.append((done, total))
        )
        assert [(t.policy, t.cache_mb) for t in result.timings] == [
            (g.policy, g.cache_mb) for g in grid
        ]
        assert seen == [(i + 1, len(grid)) for i in range(len(grid))]
        assert all(t.seconds > 0 for t in result.timings)

    def test_batched_populates_result_cache(self, tmp_path):
        grid = tiny_grid("fig8")
        cold = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert cold.cache_misses == len(grid)
        warm = run_grid(
            grid, EngineConfig(workers=0, cache_dir=tmp_path, batch=False)
        )
        assert (warm.cache_hits, warm.cache_misses) == (len(grid), 0)
        assert warm.points == cold.points


class TestResultCache:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        grid = tiny_grid("fig8")
        cold = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, len(grid))
        warm = run_grid(grid, EngineConfig(workers=2, cache_dir=tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (len(grid), 0)
        assert warm.points == cold.points
        assert all(t.cached for t in warm.timings)

    def test_salt_bump_invalidates(self, tmp_path):
        grid = tiny_grid("fig8")[:2]
        run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        stale = ResultCache(tmp_path, salt=ENGINE_CACHE_VERSION + "-next")
        assert stale.get(grid[0]) is None

    def test_round_trip_preserves_row(self, tmp_path):
        grid = tiny_grid("fig10")[:1]
        result = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        cached = ResultCache(tmp_path).get(grid[0])
        assert cached == result.points[0]
        assert isinstance(cached, SweepPoint)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        grid = tiny_grid("fig8")[:1]
        cache = ResultCache(tmp_path)
        path = cache._path(grid[0].cache_key())
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(grid[0]) is None
        result = run_grid(grid, EngineConfig(workers=0, cache_dir=tmp_path))
        assert result.cache_misses == 1
        assert cache.get(grid[0]) == result.points[0]


class TestEngineResult:
    def test_canonical_order_and_stats(self):
        grid = tiny_grid("fig9")
        result = run_grid(grid, SERIAL)
        assert [(t.policy, t.cache_mb) for t in result.timings] == [
            (g.policy, g.cache_mb) for g in grid
        ]
        assert result.n_points == len(grid)
        assert result.compute_s > 0
        assert result.wall_s > 0

    def test_progress_callback(self):
        grid = tiny_grid("fig9")[:3]
        seen = []
        run_grid(grid, SERIAL, on_progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestPlanCacheSurfacing:
    def test_serial_run_reports_plan_activity(self):
        result = run_grid(tiny_grid("fig8"), SERIAL)
        assert result.plan_cache_misses > 0
        # Every task plans into its own fresh PlanCache, so a second run
        # in the same process reports the same plan work.
        again = run_grid(tiny_grid("fig8"), SERIAL)
        assert (again.plan_cache_hits, again.plan_cache_misses) == (
            result.plan_cache_hits, result.plan_cache_misses
        )
        assert again.points == result.points

    def test_a_rerun_reports_the_same_rows_and_plan_counts(self):
        # Nothing outlives a task, so the counters depend on the grid
        # alone, on the per-point path as on the batched one.
        from repro.bench import QUICK

        grid = experiment_grid("ablation-demotion", QUICK)
        golden = EngineConfig(workers=0, batch=False)
        first = run_grid(grid, golden)
        again = run_grid(grid, golden)
        assert again.points == first.points
        assert (first.plan_cache_hits, first.plan_cache_misses) == (534, 42)
        assert (again.plan_cache_hits, again.plan_cache_misses) == (534, 42)

    def test_two_group_grid_reports_every_task_plan_delta(self):
        # Each task reports the counts of the one PlanCache it built:
        # (8, 88) is the sum over the two groups' fresh caches.
        from dataclasses import replace

        from repro.bench import QUICK
        from repro.engine import PlanCache, intern_stream, make_backend

        scale = replace(QUICK, codes=("tip",), ps_main=(7, 11))
        result = run_grid(experiment_grid("fig8", scale), SERIAL)
        assert (result.plan_cache_hits, result.plan_cache_misses) == (8, 88)
        expected = [0, 0]
        for p in scale.ps_main:
            backend = make_backend("tip", p)
            plans = PlanCache(backend)
            intern_stream(
                backend, backend.generate_events(scale.n_errors, scale.seed),
                plan_cache=plans,
            )
            expected = [a + b for a, b in zip(expected, plans.counts())]
        assert [result.plan_cache_hits, result.plan_cache_misses] == expected

    def test_payload_carries_plan_counts(self):
        result = run_grid(tiny_grid("fig8"), SERIAL)
        payload = bench_payload("fig8", "quick", result)
        assert payload["plan_cache_misses"] == result.plan_cache_misses
        assert payload["plan_cache_hits"] == result.plan_cache_hits


class TestRemovedConfigKwarg:
    def test_config_kwarg_is_gone(self):
        grid = tiny_grid("fig9")[:2]
        with pytest.raises(TypeError):
            run_grid(grid, config=SERIAL)


class TestBenchJson:
    def test_payload_schema(self, tmp_path):
        grid = tiny_grid("fig9")[:2]
        result = run_grid(grid, SERIAL)
        payload = bench_payload("fig9", "quick", result, {"serial_identical": True})
        for key in (
            "schema", "experiment", "scale", "wall_s", "n_points", "workers",
            "cache_hits", "cache_misses", "speedup_estimate", "per_point",
            "engine_version", "git_rev", "manifest",
        ):
            assert key in payload
        assert payload["manifest"]["git_rev"] == payload["git_rev"]
        assert {"python", "numpy", "cpu_model", "nproc"} <= set(payload["manifest"])
        assert payload["serial_identical"] is True
        assert len(payload["per_point"]) == 2
        path = write_bench_json(tmp_path / "BENCH_fig9.json", "fig9", "quick", result)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["n_points"] == 2


def _observed(grid, engine):
    """Run ``grid`` with obs on; returns its result and the obs counters."""
    from repro import obs

    registry = obs.enable(fresh=True)
    try:
        result = run_grid(grid, engine)
    finally:
        obs.disable()
    return result, registry.snapshot()["counters"]


class TestDesObservability:
    """The fork-join and DES cell counts add up to the des cells computed."""

    @pytest.mark.parametrize("batch", [True, False])
    def test_counters_reconcile(self, batch):
        grid = tiny_grid("fig10") + tiny_grid("fig8") + tiny_grid("table4")
        n_des = sum(point.kind == "des" for point in grid)
        _, counters = _observed(grid, EngineConfig(workers=0, batch=batch))
        fast = counters.get("bench.des.fast_rows", 0)
        kernel = counters.get("bench.des.kernel_rows", 0)
        assert fast + kernel == n_des
        assert (fast, kernel) == ((n_des, 0) if batch else (0, n_des))

    def test_fork_join_layer_counts_its_cells_replays_and_workers(self):
        # 64 MB holds every worker's working set: saturated cells force.
        scale = replace(TINY, cache_mbs=(0.25, 64.0))
        grid = [p for name in ("fig10", "fig11", "table4") for p in experiment_grid(name, scale)]
        observed, counters = _observed(grid, SERIAL)
        cells = counters["engine.forkjoin.cells"]
        assert cells == counters["bench.des.fast_rows"] == len(grid)
        # The flag memo: cells whose flags and timings agree share a replay.
        assert 0 < counters["engine.forkjoin.replays"] <= cells
        stepped = counters["engine.forkjoin.workers_stepped"]
        forced = counters["engine.forkjoin.workers_forced"]
        assert stepped > 0 and forced > 0
        assert stepped + forced == sum(min(p.sor_workers, p.n_errors) for p in grid)
        assert rows_equivalent(observed.points, run_grid(grid, SERIAL).points)

    def test_only_stepped_workers_build_a_policy(self, monkeypatch):
        # A cell builds one policy per stepped worker, or one to check its
        # kwargs when every worker is forced.
        from repro import obs
        from repro.engine import forkjoin

        make_policy, run = forkjoin.make_policy, forkjoin.ForkJoinGroup.run
        built = []
        stepped_per_cell = []

        def counting_make_policy(*args, **kwargs):
            built.append(args[0])
            return make_policy(*args, **kwargs)

        def counting_run(group, config):
            stepped = obs.counter("engine.forkjoin.workers_stepped")
            before = stepped.value
            report = run(group, config)
            stepped_per_cell.append(stepped.value - before)
            return report

        monkeypatch.setattr(forkjoin, "make_policy", counting_make_policy)
        monkeypatch.setattr(forkjoin.ForkJoinGroup, "run", counting_run)
        # 64 MB holds every worker's working set: saturated cells force.
        scale = replace(TINY, cache_mbs=(0.25, 64.0))
        grid = experiment_grid("fig10", scale)
        _, counters = _observed(grid, SERIAL)
        assert len(stepped_per_cell) == counters["engine.forkjoin.cells"] == len(grid)
        assert 0 in stepped_per_cell and max(stepped_per_cell) > 1
        assert len(built) == sum(max(n, 1) for n in stepped_per_cell)

    @pytest.mark.parametrize(
        "change",
        [
            {"disk_model": "hdd"},
            {"disk_scheduler": "scan"},
            {"parallel_chain_reads": False},
            {"sanitize": True},
            {"verify_payloads": True},
            {"response_quantiles": True},
            {"respect_arrival_times": True},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_cells_outside_the_model_take_the_des(self, monkeypatch, change):
        from repro.bench import engine

        des_config = engine._des_config
        monkeypatch.setattr(
            engine, "_des_config", lambda point: replace(des_config(point), **change)
        )
        grid = tiny_grid("fig10")
        batched, counters = _observed(grid, SERIAL)
        assert counters["bench.des.kernel_rows"] == len(grid)
        assert "bench.des.fast_rows" not in counters
        golden = run_grid(grid, EngineConfig(workers=0, batch=False))
        assert rows_equivalent(batched.points, golden.points)


class TestDesPlanCounts:
    def test_batched_des_groups_report_their_fork_join_plans(self):
        from repro.engine import make_backend
        from repro.engine.forkjoin import ForkJoinGroup
        from repro.sim import SimConfig

        grid = experiment_grid("fig10", replace(TINY, codes=("tip", "star")))
        groups = {
            (p.code, p.p, p.n_errors, p.seed, p.sor_workers, p.chunk_size)
            for p in grid
        }
        assert len(groups) == 2
        expected = 0
        for code, p, n_errors, seed, workers, chunk_size in groups:
            backend = make_backend(code, p)
            group = ForkJoinGroup(
                backend,
                backend.generate_events(n_errors, seed),
                SimConfig(workers=workers, chunk_size=chunk_size),
            )
            expected += len(group.plan_samples)
        result, counters = _observed(grid, SERIAL)
        assert result.plan_cache_misses == expected > 0
        assert counters["bench.plan_cache.misses"] == expected


class TestFailedGridObs:
    # Four SOR workers cannot split a one-block cache: the replay raises.
    GRID = experiment_grid("fig8", replace(TINY, workers=4, cache_mbs=(0.03125,)))

    @pytest.mark.parametrize("batch", [True, False])
    def test_a_failed_grid_closes_its_span_and_counts(self, batch):
        from repro import obs

        registry = obs.enable(fresh=True)
        try:
            with pytest.raises(ValueError, match="exceeds capacity_blocks"):
                run_grid(self.GRID, EngineConfig(workers=0, batch=batch))
        finally:
            obs.disable()
        snapshot = registry.snapshot()
        assert snapshot["spans"]["bench.run_grid"]["count"] == 1
        assert snapshot["counters"]["bench.grids.failed"] == 1
        assert "bench.grids" not in snapshot["counters"]
        [span] = [s for s in registry.spans if s.name == "bench.run_grid"]
        assert span.attrs["error"] == "ValueError"

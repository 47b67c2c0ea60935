"""EnginePool: one process pool, many grids — rows identical to serial."""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import EngineConfig, Scale, engine, experiment_grid, rows_equivalent, run_grid
from repro.bench.engine import EnginePool, EngineWorkerError

TINY = Scale(
    n_errors=6,
    workers=2,
    cache_mbs=(0.25,),
    seed=5,
    codes=("tip",),
    ps_main=(5,),
    ps_tip=(5,),
)


class TestLifecycle:
    def test_lazy_until_first_use_then_reusable(self):
        pool = EnginePool(workers=1)
        assert not pool.active
        assert pool.resolved_workers() == 1
        with pool:
            assert pool.executor() is pool.executor()  # one executor, reused
            assert pool.active
        assert not pool.active
        # the handle survives close(): next use builds a fresh executor
        assert pool.executor() is not None
        pool.close()

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EnginePool(workers="sometimes")
        with pytest.raises(ValueError):
            EnginePool(workers=-1)

    def test_zero_workers_has_no_executor(self):
        pool = EnginePool(workers=0)
        with pytest.raises(RuntimeError):
            pool.executor()


class TestRunGridReuse:
    def test_two_grids_one_pool_rows_match_serial(self):
        grid_a = experiment_grid("fig8", TINY)
        grid_b = experiment_grid("fig9", TINY)
        with EnginePool(workers=2) as pool:
            pooled_a = run_grid(grid_a, EngineConfig(workers=1), pool=pool)
            pooled_b = run_grid(grid_b, EngineConfig(workers=1), pool=pool)
        serial_a = run_grid(grid_a, EngineConfig(workers=0))
        serial_b = run_grid(grid_b, EngineConfig(workers=0))
        assert rows_equivalent(pooled_a.points, serial_a.points)
        assert rows_equivalent(pooled_b.points, serial_b.points)
        # the pool's fan-out, not the EngineConfig's, is what actually ran
        assert pooled_a.workers == 2


_TIMED_TASK = engine._timed_task


def _die_on_star(points, engine):
    """A pool task that kills its worker process on STAR cells."""
    if points[0].code == "star":
        os._exit(1)
    return _TIMED_TASK(points, engine)


@pytest.mark.skipif(
    sys.platform != "linux"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="patching the task needs forked workers",
)
class TestDeadWorker:
    # STAR's group is the grid's first task, so it is the first without a
    # result whichever order the two workers finish in.
    GRID = experiment_grid("fig8", Scale(
        n_errors=6, workers=2, cache_mbs=(0.25,), seed=5,
        codes=("star", "tip"), ps_main=(5,),
    ))
    FORKED = EngineConfig(workers=2, start_method="fork")

    def test_error_names_the_point_and_the_pool_recovers(self, monkeypatch):
        monkeypatch.setattr(engine, "_timed_task", _die_on_star)
        with EnginePool(workers=2, start_method="fork") as pool:
            with pytest.raises(EngineWorkerError) as info:
                run_grid(self.GRID, self.FORKED, pool=pool)
            assert isinstance(info.value.__cause__, BrokenProcessPool)
            assert "fig8 star p=5 fifo 0.25 MB" in str(info.value)
            assert "of 2 tasks unfinished" in str(info.value)
            assert not pool.active  # the broken executor was dropped
            monkeypatch.undo()
            pooled = run_grid(self.GRID, self.FORKED, pool=pool)
        serial = run_grid(self.GRID, EngineConfig(workers=0))
        assert rows_equivalent(pooled.points, serial.points)

    def test_grid_without_a_pool_names_the_point(self, monkeypatch):
        monkeypatch.setattr(engine, "_timed_task", _die_on_star)
        with pytest.raises(EngineWorkerError, match="fig8 star p=5"):
            run_grid(self.GRID, self.FORKED)

    def test_a_dead_worker_is_recorded_in_obs(self, monkeypatch):
        from repro import obs

        monkeypatch.setattr(engine, "_timed_task", _die_on_star)
        registry = obs.enable(fresh=True)
        try:
            with pytest.raises(EngineWorkerError):
                run_grid(self.GRID, self.FORKED)
        finally:
            obs.disable()
        assert registry.snapshot()["counters"]["bench.grids.failed"] == 1
        [span] = [s for s in registry.spans if s.name == "bench.run_grid"]
        assert span.attrs["error"] == "EngineWorkerError"

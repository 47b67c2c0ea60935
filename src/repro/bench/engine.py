"""Parallel sweep engine: fan a figure/table grid out across processes.

The paper's evaluation is an embarrassingly parallel grid — every
``(code, p, policy, cache size)`` cell is an independent deterministic
simulation — so the engine decomposes a sweep into flat, hashable
:class:`GridPoint` tasks, executes them on a ``ProcessPoolExecutor`` and
reassembles :class:`~repro.bench.experiments.SweepPoint` rows in the
original (canonical) grid order.  Because every simulation is a pure
function of its ``GridPoint``, the parallel result is identical to the
serial one, row for row.

Four layers keep runs cheap:

* **one task per group** — the cells of a ``(code, p, n_errors, seed,
  scheme)`` group are one task, which builds the backend (via the
  unified :mod:`repro.engine` registry), the failure trace and one
  :class:`~repro.engine.tracesim.PlanCache` for all of them and drops
  them when it returns; a cluster cell is a task of its own.  Nothing
  outlives a task, so a grid's rows and counters never depend on what
  the process ran before;
* **persistent result cache** — each computed row is stored under a
  SHA-256 key of the point's full parameter vector plus a code-version
  salt (:data:`ENGINE_CACHE_VERSION`); re-running a sweep only computes
  points whose parameters (or the salt) changed;
* **single-pass group dispatch** — hit-ratio cells (``trace`` and
  ``demotion`` kinds) sharing one ``(code, p, scheme, trace)`` group are
  replayed together through :func:`~repro.engine.stream.
  simulate_grid_pass`: the request stream is decoded and interned once
  and every (policy x capacity) cell steps over it, bit-for-bit equal to
  the per-point rows; timed (``des``) cells sharing a trace replay on the
  exact fork-join model of :mod:`repro.engine.forkjoin`, equal to the DES
  in every simulated column (``EngineConfig.batch=False``, which the
  CLI's ``--check-serial`` golden run uses, runs the same tasks through
  the per-point path and the DES);
* **process-pool fan-out** — ``workers="auto"`` uses ``os.cpu_count()``,
  ``workers=0`` is an in-process serial fallback for debugging.  The
  worker count only schedules work; it never parameterises a simulation
  (simlint DET004 enforces this repo-wide).  A worker that dies mid-grid
  raises :class:`EngineWorkerError`, naming the first point left without
  a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..obs import runtime as _obs
from .perf import stamp, write_json

if TYPE_CHECKING:  # annotation-only
    from ..engine.backend import CodeBackend
    from ..engine.stream import ReplayConfig
    from ..engine.tracesim import PlanCache, TraceSimResult
    from ..sim.reconstruction import ReconstructionReport, SimConfig
    from .experiments import SweepPoint

__all__ = [
    "ENGINE_CACHE_VERSION",
    "GridPoint",
    "EngineConfig",
    "EnginePool",
    "EngineWorkerError",
    "PointTiming",
    "EngineResult",
    "ResultCache",
    "default_cache_dir",
    "run_grid",
]

#: Version salt mixed into every cache key.  Bump it whenever a change to
#: the simulator, the policies, the codes, or the workload generator can
#: alter any SweepPoint value — stale rows must never be served.
ENGINE_CACHE_VERSION = "2"  # v2: GridPoint grew cluster fields (redundancy/limplock)

_POINT_KINDS = ("trace", "des", "demotion", "cluster")


@dataclass(frozen=True)
class GridPoint:
    """One grid cell, described declaratively so it ships to any process.

    A point carries *every* input its simulation depends on; nothing is
    closed over.  That makes it hashable (deduplication), picklable
    (process fan-out) and content-addressable (the persistent cache).
    """

    kind: str  #: "trace" (fig8/9 replay), "des" (event sim), "demotion"
    experiment: str
    code: str  #: registry name, e.g. "tip" (SweepPoint carries layout.name)
    p: int
    policy: str  #: policy registry name, or the ablation label
    cache_mb: float
    scheme_mode: str = "fbf"
    n_errors: int = 48
    seed: int = 42
    sor_workers: int = 32  #: the paper's SOR worker count (simulated!)
    chunk_size: str = "32KB"
    demote_on_hit: bool | None = None  #: only for kind="demotion"
    redundancy: str | None = None  #: "ec"/"rep", only for kind="cluster"
    limplock: bool = False  #: fail-slow node injection, kind="cluster"

    def __post_init__(self) -> None:
        if self.kind not in _POINT_KINDS:
            raise ValueError(f"kind must be one of {_POINT_KINDS}, got {self.kind!r}")
        if self.kind == "demotion" and self.demote_on_hit is None:
            raise ValueError("demotion points require demote_on_hit")
        if self.kind == "cluster" and self.redundancy not in ("ec", "rep"):
            raise ValueError("cluster points require redundancy 'ec' or 'rep'")

    def cache_key(self, salt: str = ENGINE_CACHE_VERSION) -> str:
        """Content address: SHA-256 over the canonical parameter vector."""
        payload = json.dumps(
            {"v": salt, **asdict(self)}, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Workers:
    """The ``workers`` vocabulary :class:`EngineConfig` and
    :class:`EnginePool` share: an int >= 0, or ``"auto"`` for
    ``os.cpu_count()``."""

    workers: int | str

    def _check_workers(self) -> None:
        if self.workers != "auto" and (
            isinstance(self.workers, str) or self.workers < 0
        ):
            raise ValueError(
                f"workers must be an int >= 0 or 'auto', got {self.workers!r}"
            )

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            return os.cpu_count() or 1
        return int(self.workers)


@dataclass(frozen=True)
class EngineConfig(_Workers):
    """How to execute a grid: fan-out width and result-cache location.

    ``workers=0`` runs in-process (serial debugging fallback); ``"auto"``
    resolves to ``os.cpu_count()``.  ``cache_dir=None`` disables the
    persistent cache.  ``batch=False`` (the CLI's ``--check-serial``
    golden run) computes every cell of a task through the per-point
    golden path: per-point replay, and the DES for timed cells.
    """

    workers: int | str = 0
    cache_dir: str | Path | None = None
    #: multiprocessing start method ("spawn"/"fork"/"forkserver");
    #: None = platform default.  The worker is a top-level function, so
    #: every method is safe.
    start_method: str | None = None
    #: replay hit-ratio cells of one (code, p, scheme, trace) group in a
    #: single interned-stream pass (bit-for-bit equal to per-point rows),
    #: and same-trace des cells on the fork-join replay (equal to the DES
    #: in every simulated column).
    batch: bool = True
    #: plain-LRU stack-distance profile flavor: "exact" (Fenwick) or
    #: "sampled" (SHARDS at shards_rate — approximate rows, bounded
    #: error, O(sample) memory; cached under a distinct salt).
    stackdist: str = "exact"
    shards_rate: float = 0.01

    def __post_init__(self) -> None:
        self._check_workers()
        if self.stackdist not in ("exact", "sampled"):
            raise ValueError(
                f"stackdist must be 'exact' or 'sampled', got {self.stackdist!r}"
            )
        if not 0.0 < self.shards_rate <= 1.0:
            raise ValueError(
                f"shards_rate must be in (0, 1], got {self.shards_rate}"
            )

    def replay_salt(self, base: str = ENGINE_CACHE_VERSION) -> str:
        """Result-cache salt: sampled rows never share exact rows' keys.

        Every exact replay path is bit-identical, so exact rows keep the
        base salt; SHARDS estimates are rate-dependent approximations and
        get their own namespace.
        """
        if self.stackdist == "sampled":
            return f"{base}+shards:{self.shards_rate!r}"
        return base


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-fbf`` (or ``~/.cache/repro-fbf``)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro-fbf"


class EnginePool(_Workers):
    """A reusable process-pool handle shared across :func:`run_grid` calls.

    ``run_grid`` without one uses a temporary pool per invocation — fine
    for one-shot sweeps, wasteful for a caller that runs many grids,
    which would pay process start-up each time.  An ``EnginePool`` keeps
    the executor alive across calls; its workers keep no memo between
    tasks, so there is nothing else to keep warm::

        with EnginePool(workers=4) as pool:
            for points in grids:
                run_grid(points, engine, pool=pool)

    The executor is created lazily on first use and torn down by
    :meth:`close` (or the context manager).  ``workers`` follows the
    :class:`EngineConfig` vocabulary (``"auto"`` = ``os.cpu_count()``);
    a pool resolved to zero workers is a valid no-op handle — callers
    fall back to their in-process path.  A worker that dies breaks the
    executor; :meth:`map` drops it, so the next call starts a fresh one.
    """

    def __init__(
        self, workers: int | str = "auto", start_method: str | None = None
    ):
        self.workers = workers
        self._check_workers()
        self.start_method = start_method
        self._executor: ProcessPoolExecutor | None = None

    @property
    def active(self) -> bool:
        """Has an executor been spun up (and not yet closed)?"""
        return self._executor is not None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, creating it on first use."""
        n = self.resolved_workers()
        if n < 1:
            raise RuntimeError("EnginePool resolved to 0 workers; use the "
                               "in-process path instead")
        if self._executor is None:
            import multiprocessing

            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=n, mp_context=context
            )
        return self._executor

    def map(self, fn, iterable, chunksize: int = 1):
        """``executor.map``; a ``BrokenProcessPool`` drops the executor."""
        try:
            yield from self.executor().map(fn, iterable, chunksize=chunksize)
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Shut the executor down (idempotent); the handle stays reusable."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EngineWorkerError(RuntimeError):
    """A pool worker died before every task of a grid had its result."""


class ResultCache:
    """Content-addressed store of computed rows: one JSON file per point.

    Files live at ``<dir>/<key[:2]>/<key>.json`` (sharded so directory
    listings stay cheap at FULL scale).  Writes are atomic (temp file +
    ``os.replace``), so a crashed or parallel run never leaves a torn
    entry.
    """

    def __init__(self, directory: str | Path, salt: str = ENGINE_CACHE_VERSION):
        self.directory = Path(directory)
        self.salt = salt

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, point: GridPoint) -> "SweepPoint | None":
        from .experiments import SweepPoint

        path = self._path(point.cache_key(self.salt))
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        row = payload.get("row")
        if not isinstance(row, dict):
            return None
        try:
            return SweepPoint(**row)
        except TypeError:  # schema drift without a salt bump: treat as miss
            return None

    def put(self, point: GridPoint, row: "SweepPoint") -> None:
        key = point.cache_key(self.salt)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "point": asdict(point), "row": asdict(row)}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


@dataclass(frozen=True)
class PointTiming:
    """Per-point provenance for BENCH reports."""

    key: str
    experiment: str
    code: str
    p: int
    policy: str
    cache_mb: float
    seconds: float
    cached: bool


@dataclass
class EngineResult:
    """Rows in canonical grid order plus execution statistics.

    ``cache_hits``/``cache_misses`` count the persistent *result* cache;
    ``plan_cache_hits``/``plan_cache_misses`` sum the ``(hits, misses)``
    of the one :class:`~repro.engine.tracesim.PlanCache` each compute
    task built (summed across pool workers): a hit-ratio group's, or a
    batched ``des`` group's :class:`~repro.engine.forkjoin.ForkJoinGroup`
    cache.  Cells on the DES (``batch=False``) and cluster cells plan
    privately and add zero.
    """

    points: "list[SweepPoint]"
    wall_s: float
    workers: int
    cache_hits: int
    cache_misses: int
    timings: list[PointTiming] = field(default_factory=list)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def compute_s(self) -> float:
        """Serial-equivalent compute time (sum of per-point times)."""
        return sum(t.seconds for t in self.timings)

    @property
    def speedup_estimate(self) -> float:
        """compute_s / wall_s — effective parallelism incl. cache effect."""
        return self.compute_s / self.wall_s if self.wall_s > 0 else 0.0


# -- worker side --------------------------------------------------------------
#
# A task builds what its cells share -- the backend, the failure trace and
# one PlanCache -- and drops it when it returns.  Nothing outlives a task,
# so a task's rows and plan counts depend on its cells alone, never on
# what the process computed before.


def _replay_config(point: GridPoint) -> "ReplayConfig":
    """A hit-ratio cell's (``trace`` or ``demotion``) replay parameters."""
    from ..engine.stream import ReplayConfig
    from ..utils import parse_size

    capacity = int(point.cache_mb * 1024 * 1024) // parse_size(point.chunk_size)
    if point.kind == "demotion":
        from ..core.fbf_cache import FBFCache

        demote = bool(point.demote_on_hit)
        return ReplayConfig(
            capacity_blocks=capacity,
            workers=point.sor_workers,
            policy_factory=lambda cap, d=demote: FBFCache(cap, demote_on_hit=d),
        )
    return ReplayConfig(
        policy=point.policy, capacity_blocks=capacity, workers=point.sor_workers
    )


def _replay_row(point: GridPoint, res: "TraceSimResult") -> "SweepPoint":
    from .experiments import SweepPoint

    return SweepPoint(
        experiment=point.experiment,
        code=res.code,
        p=point.p,
        policy=point.policy,
        cache_mb=point.cache_mb,
        hit_ratio=res.hit_ratio,
        disk_reads=res.disk_reads,
        scheme_mode=point.scheme_mode,
    )


def _des_config(point: GridPoint) -> "SimConfig":
    from ..sim.reconstruction import SimConfig

    return SimConfig(
        policy=point.policy,
        cache_size=int(point.cache_mb * 1024 * 1024),
        chunk_size=point.chunk_size,
        scheme_mode=point.scheme_mode,
        workers=point.sor_workers,
    )


def _des_row(point: GridPoint, rep: "ReconstructionReport") -> "SweepPoint":
    from .experiments import SweepPoint

    return SweepPoint(
        experiment=point.experiment,
        code=rep.code,
        p=point.p,
        policy=point.policy,
        cache_mb=point.cache_mb,
        hit_ratio=rep.hit_ratio,
        disk_reads=rep.disk_reads,
        avg_response_time=rep.avg_response_time,
        reconstruction_time=rep.reconstruction_time,
        overhead_ms=rep.overhead_mean_s * 1000.0,
        overhead_percent=rep.overhead_percent,
        scheme_mode=point.scheme_mode,
    )


def _cluster_row(point: GridPoint) -> "SweepPoint":
    """A cluster cell: its own topology-backed run, with its own trace."""
    from ..sim.cluster import ClusterSpec, run_cluster_recovery
    from .experiments import SweepPoint

    rep = run_cluster_recovery(
        ClusterSpec(
            redundancy=point.redundancy or "ec",
            code=point.code,
            p=point.p,
            policy=point.policy,
            cache_size=int(point.cache_mb * 1024 * 1024),
            scheme_mode=point.scheme_mode,
            n_errors=point.n_errors,
            seed=point.seed,
            workers=point.sor_workers,
            chunk_size=point.chunk_size,
            limplock=point.limplock,
        )
    )
    return SweepPoint(
        experiment=point.experiment,
        code=rep.code,
        p=point.p,
        policy=point.policy,
        cache_mb=point.cache_mb,
        hit_ratio=rep.hit_ratio,
        disk_reads=rep.disk_reads,
        avg_response_time=rep.avg_response_time,
        reconstruction_time=rep.recovery_time,
        scheme_mode=point.scheme_mode,
        redundancy=rep.redundancy,
        limplock=rep.limplock,
        cross_rack_mb=rep.cross_rack_mb,
        p99_response_time=rep.p99_response_time,
    )


def _task_key(point: GridPoint) -> tuple:
    """Points with equal keys are computed together by :func:`compute_group`.

    They replay the same failure trace; a ``des`` group's fork-join
    skeleton also depends on the SOR worker count and the chunk size.
    """
    key = (point.code, point.p, point.scheme_mode, point.n_errors, point.seed)
    if point.kind == "des":
        return ("des", *key, point.sor_workers, point.chunk_size)
    return key


def compute_point(
    point: GridPoint, backend: "CodeBackend", events: Sequence, plans: "PlanCache"
) -> "SweepPoint":
    """One cell on the per-point golden path, over its task's setup.

    A hit-ratio cell is one ``simulate_trace`` call with the task's
    ``plans``; a ``des`` cell runs the DES, which plans privately.
    """
    if point.kind == "des":
        from ..engine.timed import run_timed_replay

        rep = run_timed_replay(backend, events, _des_config(point))
        if _obs.ENABLED:
            _obs.counter("bench.des.kernel_rows").inc()
        return _des_row(point, rep)
    from ..engine.tracesim import simulate_trace

    config = _replay_config(point)
    return _replay_row(
        point, simulate_trace(backend, events, plan_cache=plans, **vars(config))
    )


def compute_group(
    points: "Sequence[GridPoint]", engine: EngineConfig
) -> "tuple[list[SweepPoint], tuple[int, int]]":
    """Compute one task: the cells sharing a :func:`_task_key`, or one
    cluster cell.

    The task builds its backend, failure trace and plans here and drops
    them on return.  With ``engine.batch`` hit-ratio cells
    (``trace``/``demotion``) run in one grid pass and ``des`` cells on
    the exact fork-join replay; without it, and for any ``des`` cell
    outside the fork-join model, each cell takes :func:`compute_point`.
    Rows come back in ``points`` order, equal on both paths in every
    simulated column (the grid-pass and fork-join differential tests pin
    this down), together with the ``(hits, misses)`` of the task's one
    PlanCache: the grid's, or the fork-join group's.  The DES and
    cluster cells plan privately and count nothing.
    """
    first = points[0]
    if first.kind == "cluster":
        return [_cluster_row(first)], (0, 0)
    # Imported here, inside the task: loading the bench engine stays cheap.
    from ..engine.registry import make_backend
    from ..engine.tracesim import PlanCache

    backend = make_backend(first.code, first.p, scheme_mode=first.scheme_mode)
    events = backend.generate_events(first.n_errors, first.seed)
    if not engine.batch:
        plans = PlanCache(backend)
        rows = [compute_point(point, backend, events, plans) for point in points]
        return rows, plans.counts()
    if first.kind == "des":
        from ..engine.forkjoin import ForkJoinGroup, eligible

        configs = [_des_config(point) for point in points]
        group = ForkJoinGroup(backend, events, configs[0])
        rows = []
        for point, config in zip(points, configs):
            if group.has_reads and eligible(config):
                rows.append(_des_row(point, group.run(config)))
                if _obs.ENABLED:
                    _obs.counter("bench.des.fast_rows").inc()
            else:
                rows.append(compute_point(point, backend, events, group.plans))
        return rows, group.plans.counts()
    from ..engine.stream import simulate_grid_pass

    plans = PlanCache(backend)
    results = simulate_grid_pass(
        backend,
        events,
        [_replay_config(point) for point in points],
        plan_cache=plans,
        stackdist=engine.stackdist,
        shards_rate=engine.shards_rate,
    )
    rows = [_replay_row(point, res) for point, res in zip(points, results)]
    return rows, plans.counts()


def _timed_task(
    points: "tuple[GridPoint, ...]", engine: EngineConfig
) -> "tuple[list[SweepPoint], float, tuple[int, int]]":
    """Pool entry point: one task's rows, compute seconds and plan counts.

    The plan counts are the task's own ``(hits, misses)``, additive
    across tasks and pool workers.
    """
    t0 = time.perf_counter()
    rows, plan_counts = compute_group(points, engine)
    return rows, time.perf_counter() - t0, plan_counts


# -- driver side --------------------------------------------------------------

def run_grid(
    points: Sequence[GridPoint],
    engine: EngineConfig | None = None,
    on_progress: Callable[[int, int], None] | None = None,
    pool: EnginePool | None = None,
) -> EngineResult:
    """Execute ``points`` and return rows in the same (canonical) order.

    Output is independent of ``engine``: the worker count and the cache
    only affect *when and where* cells are computed, never their values.
    ``on_progress(done, total)`` is called after every completed point.
    ``pool`` reuses a live :class:`EnginePool` executor instead of
    spawning one per call (its worker count overrides ``engine.workers``);
    the pool outlives this call — the caller closes it.  With obs on, a
    grid that raises still closes its ``bench.run_grid`` span, tagged
    with the exception class, and counts ``bench.grids.failed``.
    """
    engine = engine or EngineConfig()
    obs_on = _obs.ENABLED
    if not obs_on:
        return _execute_grid(points, engine, on_progress, pool)
    grid_span = _obs.span("bench.run_grid", {"points": len(points)})
    grid_span.__enter__()
    try:
        result = _execute_grid(points, engine, on_progress, pool)
        grid_span["result_cache_hits"] = result.cache_hits
    except BaseException as exc:
        grid_span["error"] = type(exc).__name__
        _obs.counter("bench.grids.failed").inc()
        raise
    finally:
        grid_span.__exit__(None, None, None)
    _obs.counter("bench.grids").inc()
    _obs.counter("bench.points").inc(len(points))
    _obs.counter("bench.result_cache.hits").inc(result.cache_hits)
    _obs.counter("bench.result_cache.misses").inc(result.cache_misses)
    _obs.counter("bench.plan_cache.hits").inc(result.plan_cache_hits)
    _obs.counter("bench.plan_cache.misses").inc(result.plan_cache_misses)
    point_seconds = _obs.histogram("bench.point_seconds")
    for t in result.timings:
        if not t.cached:
            point_seconds.observe(t.seconds)
    _obs.gauge("bench.workers").set(result.workers)
    if result.wall_s > 0:
        _obs.gauge("bench.utilization").set(
            result.compute_s / (result.wall_s * max(1, result.workers))
        )
    return result


def _execute_grid(
    points: Sequence[GridPoint],
    engine: EngineConfig,
    on_progress: Callable[[int, int], None] | None,
    pool: EnginePool | None,
) -> EngineResult:
    """:func:`run_grid`'s body: result cache, task grouping, fan-out."""
    t_start = time.perf_counter()
    total = len(points)
    cache = (
        ResultCache(engine.cache_dir, salt=engine.replay_salt())
        if engine.cache_dir is not None
        else None
    )

    rows: list = [None] * total
    timings: list[PointTiming | None] = [None] * total
    done = 0

    def record(i: int, row, seconds: float, cached: bool) -> None:
        nonlocal done
        rows[i] = row
        timings[i] = PointTiming(
            key=points[i].cache_key(),
            experiment=points[i].experiment,
            code=points[i].code,
            p=points[i].p,
            policy=points[i].policy,
            cache_mb=points[i].cache_mb,
            seconds=seconds,
            cached=cached,
        )
        done += 1
        if on_progress is not None:
            on_progress(done, total)

    misses: list[int] = []
    if cache is not None:
        for i, point in enumerate(points):
            row = cache.get(point)
            if row is None:
                misses.append(i)
            else:
                record(i, row, 0.0, cached=True)
    else:
        misses = list(range(total))
    hits = total - len(misses)

    # A task is a list of point indices computed together by
    # compute_group: the cells sharing a _task_key, or one cluster cell.
    # batch only chooses how a task computes its cells.
    tasks: list[list[int]] = []
    groups: dict[tuple, list[int]] = {}
    for i in misses:
        point = points[i]
        if point.kind == "cluster":
            tasks.append([i])
            continue
        key = _task_key(point)
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
            tasks.append(group)
        group.append(i)

    plan_hits = plan_misses = 0

    def record_task(indices: "list[int]", task_result) -> None:
        nonlocal plan_hits, plan_misses
        task_rows, seconds, (task_hits, task_misses) = task_result
        plan_hits += task_hits
        plan_misses += task_misses
        # Split the task's time evenly so per-point timings stay additive.
        for i, row in zip(indices, task_rows):
            if cache is not None:
                cache.put(points[i], row)
            record(i, row, seconds / len(indices), cached=False)

    n_workers = (
        pool.resolved_workers() if pool is not None else engine.resolved_workers()
    )
    if n_workers == 0 or len(tasks) <= 1:
        for indices in tasks:
            record_task(indices, _timed_task(tuple(points[i] for i in indices), engine))
    else:
        n_workers = min(n_workers, len(tasks))
        chunksize = max(1, len(tasks) // (n_workers * 4))
        todo = [tuple(points[i] for i in indices) for indices in tasks]
        runner = pool if pool is not None else EnginePool(n_workers, engine.start_method)
        finished = 0
        try:
            mapped = runner.map(
                partial(_timed_task, engine=engine), todo, chunksize=chunksize
            )
            for indices, results in zip(tasks, mapped):
                record_task(indices, results)
                finished += 1
        except BrokenProcessPool as exc:
            point = points[tasks[finished][0]]
            raise EngineWorkerError(
                f"a pool worker died with {len(tasks) - finished} of "
                f"{len(tasks)} tasks unfinished; the first is "
                f"{point.experiment} {point.code} p={point.p} "
                f"{point.policy} {point.cache_mb} MB"
            ) from exc
        finally:
            if runner is not pool:
                runner.close()

    return EngineResult(
        points=rows,
        wall_s=time.perf_counter() - t_start,
        workers=n_workers,
        cache_hits=hits,
        cache_misses=len(misses),
        timings=[t for t in timings if t is not None],
        plan_cache_hits=plan_hits,
        plan_cache_misses=plan_misses,
    )


# -- BENCH report -------------------------------------------------------------

def bench_payload(
    experiment: str,
    scale_name: str,
    result: EngineResult,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """The machine-readable ``BENCH_<experiment>.json`` document."""
    payload: dict = {
        "schema": 1,
        "experiment": experiment,
        "scale": scale_name,
        "engine_version": ENGINE_CACHE_VERSION,
        **stamp(),
        "wall_s": result.wall_s,
        "compute_s": result.compute_s,
        "speedup_estimate": result.speedup_estimate,
        "n_points": result.n_points,
        "workers": result.workers,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "plan_cache_hits": result.plan_cache_hits,
        "plan_cache_misses": result.plan_cache_misses,
        "per_point": [asdict(t) for t in result.timings],
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench_json(
    path: str | Path,
    experiment: str,
    scale_name: str,
    result: EngineResult,
    extra: Mapping[str, object] | None = None,
) -> Path:
    return write_json(path, bench_payload(experiment, scale_name, result, extra))

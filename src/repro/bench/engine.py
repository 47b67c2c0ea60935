"""Parallel sweep engine: fan a figure/table grid out across processes.

The paper's evaluation is an embarrassingly parallel grid — every
``(code, p, policy, cache size)`` cell is an independent deterministic
simulation — so the engine decomposes a sweep into flat, hashable
:class:`GridPoint` tasks, executes them on a ``ProcessPoolExecutor`` and
reassembles :class:`~repro.bench.experiments.SweepPoint` rows in the
original (canonical) grid order.  Because every simulation is a pure
function of its ``GridPoint``, the parallel result is identical to the
serial one, row for row.

Three layers keep repeated runs cheap:

* **per-group prepare** — backend construction (via the unified
  :mod:`repro.engine` registry), failure-trace generation and the
  :class:`~repro.engine.tracesim.PlanCache` are shared by every point of
  a ``(code, p, n_errors, seed[, scheme])`` group.  Each worker process
  memoises them, so a group costs one setup per process instead of one
  per point (the serial path shares a single memo, matching the old
  nested-loop behaviour exactly);
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
  CLI's ``--check-serial`` golden run uses, restores the per-point path
  and the DES);
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


@dataclass(frozen=True)
class EngineConfig:
    """How to execute a grid: fan-out width and result-cache location.

    ``workers=0`` runs in-process (serial debugging fallback); ``"auto"``
    resolves to ``os.cpu_count()``.  ``cache_dir=None`` disables the
    persistent cache.  ``batch=False`` (the CLI's ``--check-serial``
    golden run) disables group dispatch and computes every cell through
    the per-point golden path: per-point replay, and the DES for timed
    cells.
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
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ValueError(f"workers must be an int >= 0 or 'auto', got {self.workers!r}")
        elif self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
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

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            return os.cpu_count() or 1
        return int(self.workers)


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-fbf`` (or ``~/.cache/repro-fbf``)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro-fbf"


class EnginePool:
    """A reusable process-pool handle shared across :func:`run_grid` calls.

    ``run_grid`` without one uses a temporary pool per invocation — fine
    for one-shot sweeps, wasteful for a long-lived
    caller (the serve layer) that replays a grid every few seconds:
    process spawn plus per-process memo warm-up would dominate.  An
    ``EnginePool`` keeps the executor, and therefore the workers' warm
    memos, alive across calls: every backend, plus the failure trace,
    ``PlanCache`` and interned stream of the last sweep group each
    worker computed (a caller that replays one group keeps it warm)::

        with EnginePool(workers=4) as pool:
            for window in windows:
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
        if isinstance(workers, str):
            if workers != "auto":
                raise ValueError(
                    f"workers must be an int >= 0 or 'auto', got {workers!r}"
                )
        elif workers < 0:
            raise ValueError(
                f"workers must be an int >= 0 or 'auto', got {workers!r}"
            )
        self.workers = workers
        self.start_method = start_method
        self._executor: ProcessPoolExecutor | None = None

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            return os.cpu_count() or 1
        return int(self.workers)

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
    ``plan_cache_hits``/``plan_cache_misses`` aggregate the in-memory
    :class:`~repro.engine.tracesim.PlanCache` memo deltas reported back
    by every compute task (summed across pool workers).  DES-kind points
    plan privately (the controller's memo, or their fork-join group's own
    cache), so they contribute zero here by construction.
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
# Module-level memos keyed by value tuples: in a pool worker they amortise
# the per-(code, p) setup across every point that process executes; in
# the serial fallback they reproduce the old nested-loop sharing (one
# backend/event-trace/PlanCache per sweep group).  All cached objects are
# deterministic functions of their keys, so sharing never changes results.
# Grids visit their cells group by group, so the trace, plan and stream
# memos hold only the latest group: a finished group's plans and interned
# stream are freed when the next group starts.  Backends are a few KB
# each and stay, so a group never loses the "fbf" backend its failure
# trace comes from.

_BACKENDS: dict = {}
_EVENTS: dict = {}
_PLANS: dict = {}
_STREAMS: dict = {}


def _latest(memo: dict, key: tuple, build: Callable[[], object]):
    """``memo[key]``, built on a miss after dropping every other entry."""
    value = memo.get(key)
    if value is None:
        memo.clear()
        value = memo[key] = build()
    return value


def _reset_worker_state() -> None:
    """Drop the per-process memos (test isolation / leak control)."""
    _BACKENDS.clear()
    _EVENTS.clear()
    _PLANS.clear()
    _STREAMS.clear()


def _backend_for(code: str, p: int, scheme_mode: str):
    from ..engine.registry import make_backend

    key = (code, p, scheme_mode)
    backend = _BACKENDS.get(key)
    if backend is None:
        backend = _BACKENDS[key] = make_backend(code, p, scheme_mode=scheme_mode)
    return backend


def _events_for(code: str, p: int, n_errors: int, seed: int):
    # Failure traces depend only on the code, never on the scheme mode,
    # so the memo key omits it (any scheme's backend generates them).
    return _latest(
        _EVENTS,
        (code, p, n_errors, seed),
        lambda: _backend_for(code, p, "fbf").generate_events(n_errors, seed),
    )


def _plans_for(code: str, p: int, scheme_mode: str):
    from ..engine.tracesim import PlanCache

    return _latest(
        _PLANS,
        (code, p, scheme_mode),
        lambda: PlanCache(_backend_for(code, p, scheme_mode)),
    )


def _stream_for(code: str, p: int, scheme_mode: str, n_errors: int, seed: int):
    from ..engine.stream import intern_stream

    return _latest(
        _STREAMS,
        (code, p, scheme_mode, n_errors, seed),
        lambda: intern_stream(
            _backend_for(code, p, scheme_mode),
            _events_for(code, p, n_errors, seed),
            plan_cache=_plans_for(code, p, scheme_mode),
        ),
    )


def _blocks_for(cache_mb: float, chunk_size: str) -> int:
    from ..utils import parse_size

    return int(cache_mb * 1024 * 1024) // parse_size(chunk_size)


def compute_point(point: GridPoint) -> "SweepPoint":
    """Run one grid cell; pure function of ``point`` (spawn-safe)."""
    from .experiments import SweepPoint

    backend = _backend_for(point.code, point.p, point.scheme_mode)
    events = _events_for(point.code, point.p, point.n_errors, point.seed)

    if point.kind == "trace":
        from ..engine.tracesim import simulate_trace

        res = simulate_trace(
            backend,
            events,
            policy=point.policy,
            capacity_blocks=_blocks_for(point.cache_mb, point.chunk_size),
            workers=point.sor_workers,
            plan_cache=_plans_for(point.code, point.p, point.scheme_mode),
        )
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

    if point.kind == "demotion":
        from ..core.fbf_cache import FBFCache
        from ..engine.tracesim import simulate_trace

        demote = bool(point.demote_on_hit)
        res = simulate_trace(
            backend,
            events,
            capacity_blocks=_blocks_for(point.cache_mb, point.chunk_size),
            workers=point.sor_workers,
            plan_cache=_plans_for(point.code, point.p, point.scheme_mode),
            policy_factory=lambda cap, d=demote: FBFCache(cap, demote_on_hit=d),
        )
        return SweepPoint(
            experiment=point.experiment,
            code=res.code,
            p=point.p,
            policy=point.policy,
            cache_mb=point.cache_mb,
            hit_ratio=res.hit_ratio,
            disk_reads=res.disk_reads,
        )

    if point.kind == "cluster":
        from ..sim.cluster import ClusterSpec, run_cluster_recovery

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

    # kind == "des": the full event-driven simulation (timing metrics).
    from ..engine.timed import run_timed_replay

    rep = run_timed_replay(backend, events, _des_config(point))
    if _obs.ENABLED:
        _obs.counter("bench.des.kernel_rows").inc()
    return _des_row(point, rep)


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


def _timed_point(point: GridPoint) -> "tuple[SweepPoint, float]":
    """Pool entry point: compute one cell and report its compute time."""
    t0 = time.perf_counter()
    row = compute_point(point)
    return row, time.perf_counter() - t0


def _group_key(point: GridPoint) -> tuple:
    """Points with equal keys replay the same decoded request stream."""
    return (point.code, point.p, point.scheme_mode, point.n_errors, point.seed)


def _task_key(point: GridPoint) -> tuple:
    """Points with equal keys are computed together by :func:`compute_group`.

    A ``des`` group's fork-join skeleton also depends on the SOR worker
    count and the chunk size.
    """
    if point.kind == "des":
        return ("des", *_group_key(point), point.sor_workers, point.chunk_size)
    return _group_key(point)


def compute_group(
    points: "Sequence[GridPoint]",
    stackdist: str = "exact",
    shards_rate: float = 0.01,
) -> "list[SweepPoint]":
    """Run a group of cells sharing :func:`_task_key` in one pass.

    Hit-ratio cells (``kind="trace"`` or ``"demotion"``) step over one
    interned stream; ``des`` cells replay on the fork-join model
    (:func:`_compute_des_group`).  Rows are returned in ``points`` order
    and equal :func:`compute_point` on each cell in every simulated
    column — the equivalence the grid-pass and fork-join differential
    tests pin down.
    """
    if points[0].kind == "des":
        return _compute_des_group(points)
    from ..engine.stream import ReplayConfig, simulate_grid_pass
    from .experiments import SweepPoint

    first = points[0]
    configs = []
    for point in points:
        capacity = _blocks_for(point.cache_mb, point.chunk_size)
        if point.kind == "demotion":
            from ..core.fbf_cache import FBFCache

            demote = bool(point.demote_on_hit)
            configs.append(
                ReplayConfig(
                    capacity_blocks=capacity,
                    workers=point.sor_workers,
                    policy_factory=lambda cap, d=demote: FBFCache(
                        cap, demote_on_hit=d
                    ),
                )
            )
        else:
            configs.append(
                ReplayConfig(
                    policy=point.policy,
                    capacity_blocks=capacity,
                    workers=point.sor_workers,
                )
            )
    results = simulate_grid_pass(
        _backend_for(first.code, first.p, first.scheme_mode),
        _events_for(first.code, first.p, first.n_errors, first.seed),
        configs,
        plan_cache=_plans_for(first.code, first.p, first.scheme_mode),
        stream=_stream_for(
            first.code, first.p, first.scheme_mode, first.n_errors, first.seed
        ),
        stackdist=stackdist,
        shards_rate=shards_rate,
    )
    rows = []
    for point, res in zip(points, results):
        if point.kind == "demotion":
            rows.append(
                SweepPoint(
                    experiment=point.experiment,
                    code=res.code,
                    p=point.p,
                    policy=point.policy,
                    cache_mb=point.cache_mb,
                    hit_ratio=res.hit_ratio,
                    disk_reads=res.disk_reads,
                )
            )
        else:
            rows.append(
                SweepPoint(
                    experiment=point.experiment,
                    code=res.code,
                    p=point.p,
                    policy=point.policy,
                    cache_mb=point.cache_mb,
                    hit_ratio=res.hit_ratio,
                    disk_reads=res.disk_reads,
                    scheme_mode=point.scheme_mode,
                )
            )
    return rows


def _compute_des_group(points: "Sequence[GridPoint]") -> "list[SweepPoint]":
    """Same-trace ``des`` cells on the exact fork-join replay.

    The task owns the group's :class:`~repro.engine.forkjoin.ForkJoinGroup`
    and with it a fresh PlanCache, so Table IV's overhead still times one
    build per distinct shape.  A cell the model does not cover runs the
    DES through :func:`compute_point`.
    """
    # Imported here, inside the task: loading the bench engine stays cheap.
    from ..engine.forkjoin import ForkJoinGroup, eligible

    first = points[0]
    configs = [_des_config(point) for point in points]
    group = ForkJoinGroup(
        _backend_for(first.code, first.p, first.scheme_mode),
        _events_for(first.code, first.p, first.n_errors, first.seed),
        configs[0],
    )
    rows = []
    for point, config in zip(points, configs):
        if group.has_reads and eligible(config):
            rows.append(_des_row(point, group.run(config)))
            if _obs.ENABLED:
                _obs.counter("bench.des.fast_rows").inc()
        else:
            rows.append(compute_point(point))
    return rows


def _timed_task(
    points: "tuple[GridPoint, ...]",
    replay: "tuple[str, float]" = ("exact", 0.01),
    batch: bool = True,
) -> "tuple[list[tuple[SweepPoint, float]], tuple[int, int]]":
    """Pool entry point for a task: a group or a singleton.

    Singletons go through the per-point golden path, except that with
    ``batch`` a ``des`` group of one still takes the fork-join replay;
    larger groups take :func:`compute_group`.  Group compute time is
    split evenly across the group's cells so per-point timings stay
    additive.  The second element is this task's plan-cache ``(hits,
    misses)`` delta — additive across tasks and across pool workers, so
    the driver can surface the memo's effectiveness without sharing
    state between processes.  It is read off the one PlanCache the
    task's cells use (DES and cluster cells, and fork-join groups, plan
    privately and report zero), which stays in the one-group memo for
    the whole task.
    """
    first = points[0]
    plans = (
        _plans_for(first.code, first.p, first.scheme_mode)
        if first.kind in ("trace", "demotion")
        else None
    )
    before = plans.counts() if plans is not None else (0, 0)
    if len(points) == 1 and not (batch and first.kind == "des"):
        results = [_timed_point(first)]
    else:
        t0 = time.perf_counter()
        rows = compute_group(points, *replay)
        per_point = (time.perf_counter() - t0) / len(points)
        results = [(row, per_point) for row in rows]
    after = plans.counts() if plans is not None else (0, 0)
    return results, (after[0] - before[0], after[1] - before[1])


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
    replay = (engine.stackdist, engine.shards_rate)

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

    # A task is a list of point indices computed together: cells sharing
    # one decoded stream (hit-ratio cells) or one trace and skeleton (des
    # cells) become a group when batching is on; everything else (and
    # every cell with batch=False) is a singleton on the per-point golden
    # path.
    tasks: list[list[int]] = []
    if engine.batch:
        groups: dict[tuple, list[int]] = {}
        for i in misses:
            point = points[i]
            if point.kind in ("trace", "demotion", "des"):
                key = _task_key(point)
                group = groups.get(key)
                if group is None:
                    groups[key] = group = []
                    tasks.append(group)
                group.append(i)
            else:
                tasks.append([i])
    else:
        tasks = [[i] for i in misses]

    plan_hits = plan_misses = 0

    def record_task(indices: "list[int]", task_result) -> None:
        nonlocal plan_hits, plan_misses
        results, (task_hits, task_misses) = task_result
        plan_hits += task_hits
        plan_misses += task_misses
        for i, (row, seconds) in zip(indices, results):
            if cache is not None:
                cache.put(points[i], row)
            record(i, row, seconds, cached=False)

    n_workers = (
        pool.resolved_workers() if pool is not None else engine.resolved_workers()
    )
    if n_workers == 0 or len(tasks) <= 1:
        for indices in tasks:
            record_task(
                indices,
                _timed_task(
                    tuple(points[i] for i in indices), replay, engine.batch
                ),
            )
    else:
        n_workers = min(n_workers, len(tasks))
        chunksize = max(1, len(tasks) // (n_workers * 4))
        todo = [tuple(points[i] for i in indices) for indices in tasks]
        runner = pool if pool is not None else EnginePool(n_workers, engine.start_method)
        finished = 0
        try:
            mapped = runner.map(
                partial(_timed_task, replay=replay, batch=engine.batch),
                todo,
                chunksize=chunksize,
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

    resolved = (
        pool.resolved_workers() if pool is not None else engine.resolved_workers()
    )
    return EngineResult(
        points=rows,
        wall_s=time.perf_counter() - t_start,
        workers=0 if resolved == 0 else n_workers,
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

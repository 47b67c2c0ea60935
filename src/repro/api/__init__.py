"""``repro.api`` — the deprecated v1 facade, now a shim over ``api.v2``.

The public surface lives in the versioned namespaces (DESIGN.md §17):

* :mod:`repro.api.v2.replay` — backends, registries, trace replay;
* :mod:`repro.api.v2.bench` — grid execution and experiments;
* :mod:`repro.api.v2.cluster` — the rack-aware cluster scenario;
* :mod:`repro.api.v2.serve` — the always-on cache-advisor service;
* :mod:`repro.obs` — observability (unversioned).

Every v1 spelling still resolves — ``api.simulate_trace`` is *the same
object* as ``api.v2.replay.simulate_trace`` — but the first access of
each name emits one :class:`DeprecationWarning` naming its v2 home.
Per the deprecation policy (DESIGN.md §12), the old spellings keep
working for one release behind the warning before removal.

Typical v2 use::

    from repro.api.v2 import bench, replay

    backend = replay.make_backend("tip", 7)
    events = backend.generate_events(100, seed=42)
    row = replay.simulate_trace(backend, events, policy="fbf",
                                capacity_blocks=256, workers=32)

    request = bench.GridRequest(
        points=bench.experiment_grid("fig8", bench.QUICK),
        engine_workers="auto",
    )
    result = bench.run_grid(request)
"""

from __future__ import annotations

import importlib
import warnings

__all__ = [
    # replay engine
    "simulate_trace",
    "TraceSimResult",
    "PlanCache",
    "effective_partition",
    "intern_stream",
    "InternedStream",
    "ReplayConfig",
    "simulate_grid_pass",
    # vector backend + stack-distance profiles
    "VECTOR_POLICIES",
    "VectorFleet",
    "VectorReplay",
    "StackDistanceProfile",
    "SampledStackDistanceProfile",
    # registries
    "available_codes",
    "make_code",
    "available_policies",
    "make_policy",
    "PAPER_BASELINES",
    "available_backends",
    "make_backend",
    "register_backend",
    "CodeBackend",
    "EnginePlan",
    "PriorityModel",
    # sweep engine
    "run_grid",
    "GridPoint",
    "EngineConfig",
    "EngineResult",
    "PointTiming",
    "ResultCache",
    "ENGINE_CACHE_VERSION",
    "default_cache_dir",
    "experiment_grid",
    "rows_equivalent",
    "EXPERIMENT_NAMES",
    "Scale",
    "QUICK",
    "FULL",
    "SweepPoint",
    # rack-aware cluster scenario
    "ClusterReport",
    "ClusterSpec",
    "TopologySpec",
    "cluster_grid",
    "run_cluster_recovery",
    # observability
    "obs",
]

_REPLAY = "repro.api.v2.replay"
_BENCH = "repro.api.v2.bench"
_CLUSTER = "repro.api.v2.cluster"

#: v1 export -> the v2 module that now owns it.  ``None`` marks names
#: that resolve to a whole module rather than an attribute of one.
_V2_HOMES: dict[str, tuple[str, str | None]] = {
    "simulate_trace": (_REPLAY, "simulate_trace"),
    "TraceSimResult": (_REPLAY, "TraceSimResult"),
    "PlanCache": (_REPLAY, "PlanCache"),
    "effective_partition": (_REPLAY, "effective_partition"),
    "intern_stream": (_REPLAY, "intern_stream"),
    "InternedStream": (_REPLAY, "InternedStream"),
    "ReplayConfig": (_REPLAY, "ReplayConfig"),
    "simulate_grid_pass": (_REPLAY, "simulate_grid_pass"),
    "VECTOR_POLICIES": (_REPLAY, "VECTOR_POLICIES"),
    "VectorFleet": (_REPLAY, "VectorFleet"),
    "VectorReplay": (_REPLAY, "VectorReplay"),
    "StackDistanceProfile": (_REPLAY, "StackDistanceProfile"),
    "SampledStackDistanceProfile": (_REPLAY, "SampledStackDistanceProfile"),
    "available_codes": (_REPLAY, "available_codes"),
    "make_code": (_REPLAY, "make_code"),
    "available_policies": (_REPLAY, "available_policies"),
    "make_policy": (_REPLAY, "make_policy"),
    "PAPER_BASELINES": (_REPLAY, "PAPER_BASELINES"),
    "available_backends": (_REPLAY, "available_backends"),
    "make_backend": (_REPLAY, "make_backend"),
    "register_backend": (_REPLAY, "register_backend"),
    "CodeBackend": (_REPLAY, "CodeBackend"),
    "EnginePlan": (_REPLAY, "EnginePlan"),
    "PriorityModel": (_REPLAY, "PriorityModel"),
    "run_grid": (_BENCH, "run_grid"),
    "GridPoint": (_BENCH, "GridPoint"),
    "EngineConfig": (_BENCH, "EngineConfig"),
    "EngineResult": (_BENCH, "EngineResult"),
    "PointTiming": (_BENCH, "PointTiming"),
    "ResultCache": (_BENCH, "ResultCache"),
    "ENGINE_CACHE_VERSION": (_BENCH, "ENGINE_CACHE_VERSION"),
    "default_cache_dir": (_BENCH, "default_cache_dir"),
    "experiment_grid": (_BENCH, "experiment_grid"),
    "rows_equivalent": (_BENCH, "rows_equivalent"),
    "EXPERIMENT_NAMES": (_BENCH, "EXPERIMENT_NAMES"),
    "Scale": (_BENCH, "Scale"),
    "QUICK": (_BENCH, "QUICK"),
    "FULL": (_BENCH, "FULL"),
    "SweepPoint": (_BENCH, "SweepPoint"),
    "ClusterReport": (_CLUSTER, "ClusterReport"),
    "ClusterSpec": (_CLUSTER, "ClusterSpec"),
    "TopologySpec": (_CLUSTER, "TopologySpec"),
    "cluster_grid": (_CLUSTER, "cluster_grid"),
    "run_cluster_recovery": (_CLUSTER, "run_cluster_recovery"),
    "obs": ("repro.obs", None),
}

#: Names that already warned this process — one warning per name, not
#: per access (tests reset this set to re-arm the warnings).
_warned: set[str] = set()


def __getattr__(name: str):
    home = _V2_HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    module_name, attr = home
    if name not in _warned:
        _warned.add(name)
        v2_spelling = f"{module_name}.{attr}" if attr else module_name
        warnings.warn(
            f"repro.api.{name} is deprecated; use {v2_spelling} "
            "(the flat v1 facade will be removed one release after 2.0)",
            DeprecationWarning,
            stacklevel=2,
        )
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

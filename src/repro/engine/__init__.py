"""The pluggable recovery-engine core (DESIGN.md §10).

One engine, N code backends: every simulator in this repo — the fast
untimed trace replay and the timed event-kernel replay — is written once
against the :class:`~repro.engine.backend.CodeBackend` protocol, and the
four XOR 3DFT codes plus the LRC code plug in as adapters.

* :mod:`repro.engine.backend` — the protocols: ``CodeBackend``,
  ``EnginePlan``/``RecoveryStep``, ``PriorityModel``.
* :mod:`repro.engine.backends` — the adapters: :class:`XORBackend`
  (TIP/HDD1/STAR/Triple-STAR over :func:`repro.core.generate_plan`),
  :class:`LRCBackend` (:func:`repro.lrc.plan_lrc_recovery`).
* :mod:`repro.engine.registry` — name -> backend resolution
  (``make_backend("tip", 7)``, ``make_backend("lrc(12,2,2)")``).
* :mod:`repro.engine.tracesim` — the untimed replay:
  :func:`simulate_trace` (and its XOR-layout spelling
  :func:`simulate_cache_trace`), :class:`PlanCache`, the one plan memo,
  and :class:`TraceSimResult`.
* :mod:`repro.engine.stream` — the single-pass grid replay (DESIGN.md
  §11): :func:`intern_stream`, :func:`simulate_grid_pass`.
* :mod:`repro.engine.stackdist` — Mattson reuse-distance profiling, the
  LRU all-capacities fast path behind the grid replay, exact (Fenwick)
  and SHARDS-sampled.
* :mod:`repro.engine.vector` — the numpy vector replay:
  :class:`VectorReplay`/:class:`VectorFleet` batch whole (policy x
  capacity x worker) grids into array kernels, bit-identical to the
  stepped replay; the grid pass uses them for jobs wide enough to win.
* :mod:`repro.engine.timed` — the timed replay:
  :func:`run_timed_replay`.
* :mod:`repro.engine.forkjoin` — the exact fork-join replay of the timed
  replay's default model, which the bench engine runs same-trace timed
  cells on (the DES stays its reference).
"""

from .backend import (
    MAX_PRIORITY,
    CodeBackend,
    EnginePlan,
    PriorityModel,
    RecoveryStep,
    SharePriorityModel,
    TablePriorityModel,
    Unit,
    make_priority_model,
)
from .backends import LRCBackend, XORBackend
from .registry import available_backends, make_backend, register_backend
from .stackdist import SampledStackDistanceProfile, StackDistanceProfile
from .stream import InternedStream, ReplayConfig, intern_stream, simulate_grid_pass
from .timed import run_timed_replay
from .vector import VECTOR_POLICIES, VectorFleet, VectorReplay
from .tracesim import (
    PlanCache,
    TraceSimResult,
    effective_partition,
    simulate_cache_trace,
    simulate_trace,
)

__all__ = [
    "MAX_PRIORITY",
    "CodeBackend",
    "EnginePlan",
    "PriorityModel",
    "RecoveryStep",
    "SharePriorityModel",
    "TablePriorityModel",
    "Unit",
    "make_priority_model",
    "LRCBackend",
    "XORBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "run_timed_replay",
    "PlanCache",
    "TraceSimResult",
    "simulate_trace",
    "simulate_cache_trace",
    "effective_partition",
    "InternedStream",
    "ReplayConfig",
    "intern_stream",
    "simulate_grid_pass",
    "StackDistanceProfile",
    "SampledStackDistanceProfile",
    "VECTOR_POLICIES",
    "VectorFleet",
    "VectorReplay",
]

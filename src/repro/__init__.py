"""repro — Favorable Block First (FBF), an ICPP 2017 reproduction.

A recovery-aware buffer-cache scheme that accelerates partial stripe
recovery of triple-disk-failure-tolerant (3DFT) erasure-coded arrays,
together with everything needed to evaluate it: four 3DFT codes (STAR,
Triple-STAR, TIP, HDD1), classic replacement policies (FIFO/LRU/LFU/ARC
and more), a discrete-event storage simulator, synthetic error-trace
generation, and a benchmark harness regenerating every figure and table
of the paper.

Quick start::

    from repro import make_code, generate_plan, PriorityDictionary, FBFCache

    layout = make_code("tip", 7)                    # 8-disk TIP array
    plan = generate_plan(layout, [(r, 0) for r in range(5)])
    priorities = PriorityDictionary(plan)
    cache = FBFCache(capacity=8)
    for cell in plan.request_sequence:
        cache.request(cell, priority=priorities.lookup(cell))
    print(cache.stats.hit_ratio)
"""

from .cache import (
    ARCCache,
    CachePolicy,
    CacheStats,
    FIFOCache,
    LFUCache,
    LRUCache,
    PAPER_BASELINES,
    available_policies,
    make_policy,
)
from .codes import (
    CodeLayout,
    Direction,
    Encoder,
    ParityChain,
    available_codes,
    decode,
    make_code,
    verify_stripe,
)
from .core import (
    FBFCache,
    PriorityDictionary,
    RecoveryPlan,
    UnrecoverableError,
    generate_plan,
)
from .engine import simulate_cache_trace
from .sim import (
    ReconstructionReport,
    SimConfig,
    run_reconstruction,
)
from .workloads import (
    ErrorTraceConfig,
    PartialStripeError,
    generate_errors,
    read_trace,
    write_trace,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # repro.api (the stable facade) and repro.obs (observability) load
    # lazily: importing the root package must not pay for them, and obs
    # must stay import-light so instrumented modules can import it first.
    if name in ("api", "obs"):
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "api",
    "obs",
    # codes
    "CodeLayout",
    "Direction",
    "Encoder",
    "ParityChain",
    "available_codes",
    "decode",
    "make_code",
    "verify_stripe",
    # core
    "FBFCache",
    "PriorityDictionary",
    "RecoveryPlan",
    "UnrecoverableError",
    "generate_plan",
    # cache
    "ARCCache",
    "CachePolicy",
    "CacheStats",
    "FIFOCache",
    "LFUCache",
    "LRUCache",
    "PAPER_BASELINES",
    "available_policies",
    "make_policy",
    # sim
    "ReconstructionReport",
    "SimConfig",
    "run_reconstruction",
    "simulate_cache_trace",
    # workloads
    "ErrorTraceConfig",
    "PartialStripeError",
    "generate_errors",
    "read_trace",
    "write_trace",
]

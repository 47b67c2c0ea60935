"""The simlint self-benchmark: cold vs warm-cache analysis wall time.

The engine's caching contract (``engine.py``) is that a warm re-run over
an unchanged tree analyzes zero files, so ``repro-fbf check`` in a
pre-commit hook or editor loop costs file-stat time, not re-parse time.
This bench measures both runs over the real ``src`` tree and writes a
``BENCH_simlint.json`` payload; the committed copy in ``benchmarks/`` is
the perf baseline, gated in CI by :data:`GATE` through the bench layer's
harness (:mod:`repro.bench.perf`), like the grid-replay bench:

* the warm run must analyze **zero** files (the functional half), and
  the tree must have no unbaselined errors;
* the cold/warm *speedup ratio* must stay within 10% of the committed
  baseline (ratios of two timings from the same machine and run, so the
  gate is machine-independent);
* optionally (``--time-tolerance``) the raw cold and warm wall times
  too, each against its own ceiling, for same-machine comparisons.

Run directly: ``python -m repro.checks.bench --out BENCH_simlint.json``
or ``--check benchmarks/BENCH_simlint.json`` for the CI gate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Sequence

from ..bench import perf
from .baseline import default_baseline_path
from .engine import CheckSettings, discover_usage_roots, run_engine
from .program_rules import ALL_PROGRAM_RULES
from .rules import ALL_RULES

__all__ = ["GATE", "run_simlint_bench"]


def run_simlint_bench(
    paths: Sequence[str] = ("src",),
    rounds: int = 3,
    jobs: int = 0,
) -> dict:
    """Time cold and warm full-rule runs; returns the BENCH payload."""
    with tempfile.TemporaryDirectory(prefix="simlint-bench-") as tmp:
        cache_path = Path(tmp) / "cache.json"
        settings = CheckSettings(
            paths=list(paths),
            rules=ALL_RULES,
            program_rules=ALL_PROGRAM_RULES,
            baseline_path=default_baseline_path(),
            cache_path=cache_path,
            jobs=jobs,
            usage_roots=discover_usage_roots(list(paths)),
        )

        last: dict[str, object] = {}

        def cold() -> None:
            cache_path.unlink(missing_ok=True)
            last["cold"] = run_engine(settings)

        def warm() -> None:
            last["warm"] = run_engine(settings)

        cold_s, warm_s = perf.best_of(rounds, cold, warm)
        cold_outcome = last["cold"]
        warm_outcome = last["warm"]

    return {
        "schema": 1,
        "kind": "simlint-microbench",
        **perf.stamp(),
        "paths": list(paths),
        "rounds": rounds,
        "jobs": jobs,
        "files_checked": warm_outcome.files_checked,
        "files_analyzed_cold": cold_outcome.files_analyzed,
        "files_analyzed_warm": warm_outcome.files_analyzed,
        "errors": len(warm_outcome.errors),
        "warnings": len(warm_outcome.warnings),
        "baselined": warm_outcome.baselined,
        "aggregate": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        },
    }


def _checks(payload: dict) -> dict[str, bool]:
    """The warm cache contract, and a tree with no unbaselined errors."""
    return {
        "warm_run_analyzed_nothing": payload["files_analyzed_warm"] == 0,
        "no_unbaselined_errors": payload["errors"] == 0,
    }


def _format_summary(payload: dict) -> str:
    agg = payload["aggregate"]
    return (
        f"simlint bench: {payload['files_checked']} files, "
        f"cold {agg['cold_s']:.2f}s ({payload['files_analyzed_cold']} analyzed), "
        f"warm {agg['warm_s']:.2f}s ({payload['files_analyzed_warm']} analyzed), "
        f"speedup {agg['speedup']:.1f}x"
    )


#: Each raw time has its own ceiling: a warm run that slows down is a
#: cache regression even when the cold run got faster.
GATE = perf.Gate(
    run=run_simlint_bench,
    summary=_format_summary,
    checks=_checks,
    ratio_floors=("speedup",),
    seconds=(("cold_s",), ("warm_s",)),
    rounds=3,
)


if __name__ == "__main__":
    raise SystemExit(perf.main(GATE))

"""The grid-replay microbench: batched single pass vs. per-point replay.

Times the Figure 8 hit-ratio grid (the paper's policies over the FULL
cache-size axis) through the default
:func:`~repro.engine.stream.simulate_grid_pass` (the batched axis,
which picks the numpy fleet or stepping per job shape) and through
per-point :func:`~repro.engine.simulate_trace`, on one core, for every
code family — and through the :class:`~repro.engine.vector.VectorFleet`
on every cell, the third timing axis.  The resulting
``BENCH_replay.json`` is committed as the perf baseline; CI re-runs the
bench (:data:`GATE`, through :mod:`repro.bench.perf`) and fails when

* the measured speedup (batched *or* numpy) falls more than 10%
  below the committed baseline (each is a ratio of two single-core
  timings from the same machine and run, so the check is
  machine-independent), or
* any row differs between the paths — the equivalence contract — or
* the SHARDS-sampled stack-distance profile strays more than the
  committed absolute hit-ratio error bound from the exact Fenwick one, or
* with ``--time-tolerance``, the batched plus per-point seconds, summed,
  exceed the baseline's sum by more than that fraction (raw seconds are
  machine-dependent, so only same-machine runs opt in).

A separate identity sweep covers *every* registry policy (including the
stepped-only ones) and both states of the LRU stack-distance lever, at a
smaller scale, so exactness is re-proven where the timed grid does not
reach.

Run directly: ``python -m repro.bench.replay_bench --out BENCH_replay.json``
or ``--check benchmarks/BENCH_replay.json`` for the CI gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from ..cache.registry import PAPER_BASELINES, available_policies
from ..engine import (
    PlanCache,
    SampledStackDistanceProfile,
    StackDistanceProfile,
    intern_stream,
    make_backend,
    simulate_grid_pass,
    simulate_trace,
)
from ..engine.stream import ReplayConfig, _replay_vector_rows
from . import perf
from .experiments import FULL

__all__ = ["DEFAULT_CODES", "GATE", "ReplayGroupResult", "run_replay_bench"]

#: One representative geometry per code family (Figure 8's five codes).
DEFAULT_CODES = (
    ("tip", 7),
    ("hdd1", 11),
    ("star", 13),
    ("triple-star", 11),
    ("lrc(12,2,2)", 0),
)

_CHUNK = 32 * 1024  # the paper's 32 KB chunk size


def _full_capacities() -> tuple[int, ...]:
    """FULL-scale Figure 8 cache axis in blocks (8 MB .. 2048 MB)."""
    return tuple(int(mb * 1024 * 1024) // _CHUNK for mb in FULL.cache_mbs)


@dataclass(frozen=True)
class ReplayGroupResult:
    """One (code, p) group: timings + the row-equality verdict."""

    code: str
    p: int
    n_configs: int
    batched_s: float
    per_point_s: float
    rows_identical: bool
    #: all-fleet axis (the numpy fleet on every cell)
    numpy_s: float
    numpy_rows_identical: bool

    @property
    def speedup(self) -> float:
        return self.per_point_s / self.batched_s if self.batched_s > 0 else 0.0

    @property
    def numpy_speedup(self) -> float:
        return self.per_point_s / self.numpy_s if self.numpy_s > 0 else 0.0


def _bench_group(
    code: str,
    p: int,
    policies: Sequence[str],
    capacities: Sequence[int],
    workers: int,
    n_errors: int,
    seed: int,
    rounds: int,
) -> ReplayGroupResult:
    backend = make_backend(code, p)
    events = backend.generate_events(n_errors, seed)
    plans = PlanCache(backend)
    for event in sorted(events):  # warm: measure replay, not planning
        plans.get(event)
    configs = [
        ReplayConfig(policy=policy, capacity_blocks=cap, workers=workers)
        for policy in policies
        for cap in capacities
    ]

    def batched():
        # no pre-interned stream: the batched timing pays for interning
        return simulate_grid_pass(backend, events, configs, plan_cache=plans)

    def vectored():
        # same protocol: the numpy timing pays for interning too
        stream = intern_stream(backend, events, plan_cache=plans)
        rows = _replay_vector_rows(configs, lambda hint: stream, False)
        return [rows.get(i) for i in range(len(configs))]

    def per_point():
        return [
            simulate_trace(
                backend,
                events,
                policy=c.policy,
                capacity_blocks=c.capacity_blocks,
                workers=c.workers,
                plan_cache=plans,
            )
            for c in configs
        ]

    reference = per_point()
    identical = batched() == reference
    numpy_identical = vectored() == reference
    batched_s, per_point_s, numpy_s = perf.best_of(
        rounds, batched, per_point, vectored
    )
    return ReplayGroupResult(
        code=backend.code_label,
        p=p,
        n_configs=len(configs),
        batched_s=batched_s,
        per_point_s=per_point_s,
        rows_identical=identical,
        numpy_s=numpy_s,
        numpy_rows_identical=numpy_identical,
    )


def _verify_identity(
    codes: Sequence[tuple[str, int]],
    workers: int = 32,
    n_errors: int = 24,
    seed: int = 7,
    capacities: Sequence[int] = (32, 64, 512),
) -> dict:
    """Exactness sweep: every registry policy, both fast-path states."""
    policies = sorted(available_policies())
    all_identical = True
    lru_fast_identical = True
    for code, p in codes:
        backend = make_backend(code, p)
        events = backend.generate_events(n_errors, seed)
        configs = [
            ReplayConfig(policy=policy, capacity_blocks=cap, workers=workers)
            for policy in policies
            for cap in capacities
        ]
        fast = simulate_grid_pass(backend, events, configs)
        stepped = simulate_grid_pass(backend, events, configs, lru_fast_path=False)
        expected = [
            simulate_trace(
                backend,
                events,
                policy=c.policy,
                capacity_blocks=c.capacity_blocks,
                workers=c.workers,
            )
            for c in configs
        ]
        all_identical = all_identical and fast == expected
        lru_fast_identical = lru_fast_identical and fast == stepped
    return {
        "codes": [code for code, _ in codes],
        "policies": policies,
        "workers": workers,
        "n_errors": n_errors,
        "capacities_blocks": list(capacities),
        "rows_identical": all_identical,
        "lru_fast_path_identical": lru_fast_identical,
    }


def _shards_check(
    codes: Sequence[tuple[str, int]],
    n_errors: int,
    seed: int,
    rate: float = 0.01,
    bound: float = 0.01,
) -> dict:
    """SHARDS evidence: sampled vs exact LRU hit ratios on full streams.

    Profiles each code's whole interned request stream (no SOR deal)
    with the exact Fenwick profile and the SHARDS profile at ``rate``,
    at ``n_errors`` ten times the timed axis: spatial sampling is a
    *scale* tool, and at the timed grid's stream sizes a 1% sample is
    tens of blocks — far too few to estimate anything.  The amplified
    stream (~0.5M requests for STAR) is the smallest regime the paper's
    100-1000x trace-scale claim starts in,
    and reports the worst absolute hit-ratio error across a capacity
    axis spanning the curve, plus the tracked-set evidence that memory
    is O(sample): ``peak_tracked`` blocks vs the stream's distinct
    blocks.  The committed ``within_bound`` verdict is CI-gated.
    """
    worst = 0.0
    groups = []
    min_requests = 300_000  # keep every code in the sampling regime
    for code, p in codes:
        backend = make_backend(code, p)
        events = backend.generate_events(n_errors, seed)
        stream = intern_stream(
            backend, events, plan_cache=PlanCache(backend)
        )
        requests = stream.total_requests
        if 0 < requests < min_requests:
            # Short-plan codes (TIP/LRC) produce far fewer requests per
            # error than STAR: amplify until the stream is large enough
            # that a 1% spatial sample has hundreds of blocks.
            scale = -(-min_requests // requests)
            events = backend.generate_events(scale * n_errors, seed)
            stream = intern_stream(
                backend, events, plan_cache=PlanCache(backend)
            )
        bids = stream.bids
        requests = len(bids)
        if requests == 0:
            continue
        exact = StackDistanceProfile(bids)
        sampled = SampledStackDistanceProfile(bids, rate=rate)
        n_blocks = stream.n_blocks
        caps = sorted({
            max(1, int(n_blocks * f))
            for f in (0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
        })
        err = max(
            abs(exact.hits_at(c) - sampled.estimated_hits_at(c)) / requests
            for c in caps
        )
        worst = max(worst, err)
        groups.append({
            "code": backend.code_label,
            "requests": requests,
            "distinct_blocks": n_blocks,
            "peak_tracked": sampled.peak_tracked,
            "tracked_fraction": sampled.peak_tracked / max(n_blocks, 1),
            "max_abs_hit_ratio_err": err,
        })
    return {
        "rate": rate,
        "bound": bound,
        "n_errors": n_errors,
        "capacities": "geometric over each stream's distinct blocks",
        "groups": groups,
        "max_abs_hit_ratio_err": worst,
        "within_bound": worst <= bound,
    }


def run_replay_bench(
    codes: Sequence[tuple[str, int]] = DEFAULT_CODES,
    policies: Sequence[str] = PAPER_BASELINES + ("fbf",),
    capacities: Sequence[int] | None = None,
    workers: int = 128,
    n_errors: int = 400,
    seed: int = 42,
    rounds: int = 2,
) -> dict:
    """Run the replay microbench and return the BENCH_replay payload."""
    if capacities is None:
        capacities = _full_capacities()
    groups = [
        _bench_group(
            code, p, policies, capacities, workers, n_errors, seed, rounds
        )
        for code, p in codes
    ]
    batched_s = sum(g.batched_s for g in groups)
    per_point_s = sum(g.per_point_s for g in groups)
    numpy_s = sum(g.numpy_s for g in groups)
    payload: dict = {
        "schema": 1,
        "kind": "replay-microbench",
        **perf.stamp(),
        "workers": workers,
        "n_errors": n_errors,
        "seed": seed,
        "rounds": rounds,
        "policies": list(policies),
        "capacities_blocks": list(capacities),
        "groups": [
            {**asdict(g), "speedup": g.speedup,
             "numpy_speedup": g.numpy_speedup}
            for g in groups
        ],
        "aggregate": {
            "batched_s": batched_s,
            "per_point_s": per_point_s,
            "speedup": per_point_s / batched_s if batched_s > 0 else 0.0,
            "numpy_s": numpy_s,
            "numpy_speedup": per_point_s / numpy_s if numpy_s > 0 else 0.0,
        },
    }
    payload["identity"] = _verify_identity(codes)
    payload["shards"] = _shards_check(codes, 10 * n_errors, seed)
    return payload


def _checks(payload: dict) -> dict[str, bool]:
    """Every replay path equals per-point, and SHARDS stays in bound."""
    checks = {}
    for g in payload["groups"]:
        checks[f"{g['code']}_rows_identical"] = g["rows_identical"]
        checks[f"{g['code']}_numpy_rows_identical"] = g["numpy_rows_identical"]
    identity = payload["identity"]
    checks["identity_rows_identical"] = identity["rows_identical"]
    checks["identity_lru_fast_path_identical"] = identity["lru_fast_path_identical"]
    checks["shards_within_bound"] = payload["shards"]["within_bound"]
    return checks


def _format_summary(payload: dict) -> str:
    lines = [
        f"{'group':>16} {'configs':>7} {'batched':>9} {'per-point':>9} "
        f"{'speedup':>8} {'numpy':>9} {'np-spdup':>8}"
    ]
    for g in payload["groups"]:
        lines.append(
            f"{g['code'] + ' p=' + str(g['p']):>16} {g['n_configs']:>7} "
            f"{g['batched_s']:>8.2f}s {g['per_point_s']:>8.2f}s "
            f"{g['speedup']:>7.2f}x "
            f"{g['numpy_s']:>8.2f}s {g['numpy_speedup']:>7.2f}x"
        )
    agg = payload["aggregate"]
    lines.append(
        f"{'aggregate':>16} {'':>7} {agg['batched_s']:>8.2f}s "
        f"{agg['per_point_s']:>8.2f}s {agg['speedup']:>7.2f}x "
        f"{agg['numpy_s']:>8.2f}s {agg['numpy_speedup']:>7.2f}x"
    )
    shards = payload["shards"]
    lines.append(
        f"SHARDS @ rate={shards['rate']:g}: max |hit-ratio err| = "
        f"{shards['max_abs_hit_ratio_err']:.5f} (bound {shards['bound']:.2f})"
    )
    return "\n".join(lines)


#: The time ceiling holds the batched and per-point seconds *summed*, the
#: whole pass that the obs zero-overhead contract (instrumentation off
#: costs nothing) is about; neither axis has a ceiling of its own.
GATE = perf.Gate(
    run=run_replay_bench,
    summary=_format_summary,
    checks=_checks,
    ratio_floors=("speedup", "numpy_speedup"),
    seconds=(("batched_s", "per_point_s"),),
    rounds=2,
)


if __name__ == "__main__":
    raise SystemExit(perf.main(GATE))

"""Microbenchmarks of the hot paths (real repeated-timing benchmarks).

Unlike the experiment benches (one deterministic run, pedantic mode),
these measure raw component throughput with pytest-benchmark's normal
statistics: the event kernel, each replacement policy's request path, the
stream decoder, the advisor's ingest, the recovery planner (the source of
Table IV's overhead), the GF(2) solver, and the stripe encoder.
"""

import time

import numpy as np
import pytest

from repro.cache import available_policies, make_policy
from repro.codes import Encoder, make_code
from repro.codes.gf2 import gf2_solve_map
from repro.core import PriorityDictionary, generate_plan
from repro.engine import PlanCache, XORBackend, intern_stream, make_backend, simulate_trace
from repro.sim.kernel import Environment


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_event_throughput(benchmark):
    """Time 10k chained timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.run(env.process(ticker()))
        return env.now

    assert benchmark(run) == 10_000.0


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_stepwise_throughput(benchmark):
    """The same 10k-timeout workload driven one peek()/step() at a time.

    This is the dispatch the inlined ``Environment.run`` loop replaced;
    comparing the two rows of the micro-kernel group shows the event-loop
    throughput delta of keeping the heap and ``heappop`` in locals.
    """

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker())
        while env.peek() != float("inf"):
            env.step()
        return env.now

    assert benchmark(run) == 10_000.0


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_resource_contention(benchmark):
    """1k processes contending for a capacity-2 resource."""

    def run():
        env = Environment()
        from repro.sim.kernel import Resource

        res = Resource(env, capacity=2)

        def worker():
            req = res.request()
            yield req
            yield env.timeout(1.0)
            res.release(req)

        procs = [env.process(worker()) for _ in range(1000)]
        env.run(env.all_of(procs))
        return env.now

    assert benchmark(run) == 500.0


def _cache_workload() -> list[int]:
    return np.random.default_rng(0).integers(0, 400, 5000).tolist()


@pytest.mark.benchmark(group="micro-cache")
@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_policy_request_throughput(benchmark, policy):
    """5k requests over a 9-block working set against a 64-block cache."""
    keys = _cache_workload()

    def run():
        cache = make_policy(policy, 64)
        for k in keys:
            cache.request(k, priority=(k % 3) + 1)
        return cache.stats.requests

    assert benchmark(run) == 5000


@pytest.mark.benchmark(group="micro-cache")
@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_policy_request_many_throughput(benchmark, policy):
    """The same 5k requests as one ``request_many`` batch, the path of the
    grid pass and the fork-join replay; its hit flags count the
    per-request path's hits."""
    keys = _cache_workload()
    priorities = [(k % 3) + 1 for k in keys]

    def run():
        return make_policy(policy, 64).request_many(keys, priorities)

    flags = benchmark(run)
    reference = make_policy(policy, 64)
    for k, priority in zip(keys, priorities):
        reference.request(k, priority=priority)
    assert len(flags) == 5000
    assert flags.count(1) == reference.stats.hits


def _tracesim_workload():
    """The pre-refactor baseline configuration (tip p=7, 40 errors,
    fbf policy, 64 blocks over 8 SOR workers, warm plan memo)."""
    layout = make_code("tip", 7)
    backend = XORBackend(layout, "fbf")
    errors = backend.generate_events(40, seed=42)
    plans = PlanCache(backend)
    for e in errors:  # warm: replay cost, not planning cost
        plans.get(e)
    return layout, backend, errors, plans


def _legacy_replay(layout, errors, memo):
    """The pre-unification ``simulate_cache_trace`` inner loop, inlined.

    Kept as the perf reference for the unified engine: same plan memo
    semantics (plan + PriorityDictionary per error shape), same SOR
    round-robin, same per-request priority lookup.
    """
    workers = 8
    policies = [make_policy("fbf", 64 // workers) for _ in range(workers)]
    for i, error in enumerate(sorted(errors)):
        cache = policies[i % workers]
        hit = memo.get(error.shape)
        if hit is None:
            plan = generate_plan(layout, error.cells(layout), "fbf")
            hit = memo[error.shape] = (plan, PriorityDictionary(plan))
        plan, priorities = hit
        stripe = error.stripe
        lookup = priorities.lookup
        for cell in plan.request_sequence:
            cache.request((stripe, cell), priority=lookup(cell))
    return sum(p.stats.hits for p in policies), sum(p.stats.misses for p in policies)


@pytest.mark.benchmark(group="micro-tracesim")
def test_unified_replay_throughput(benchmark):
    """The unified engine replay on the pre-refactor baseline workload."""
    _, backend, errors, plans = _tracesim_workload()

    def run():
        return simulate_trace(
            backend, errors, policy="fbf", capacity_blocks=64, workers=8,
            plan_cache=plans,
        )

    res = benchmark(run)
    assert res.requests == res.hits + res.disk_reads and res.requests > 0


@pytest.mark.benchmark(group="micro-tracesim")
def test_unified_replay_vs_legacy(benchmark):
    """Refactor perf gate: unified replay within 5% of the old loop.

    Both paths run min-of-N wall timings in one process (min is the
    stable estimator for a sub-millisecond loop); the benchmark row
    records the legacy reference so the two group rows stay comparable.
    """
    layout, backend, errors, plans = _tracesim_workload()
    legacy_memo = {}
    _legacy_replay(layout, errors, legacy_memo)  # warm the legacy memo

    legacy_counts = benchmark(_legacy_replay, layout, errors, legacy_memo)
    res = simulate_trace(
        backend, errors, policy="fbf", capacity_blocks=64, workers=8,
        plan_cache=plans,
    )
    assert (res.hits, res.disk_reads) == legacy_counts  # same decisions

    def best_of(fn, rounds=50):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    unified_s = best_of(
        lambda: simulate_trace(
            backend, errors, policy="fbf", capacity_blocks=64, workers=8,
            plan_cache=plans,
        )
    )
    legacy_s = best_of(lambda: _legacy_replay(layout, errors, legacy_memo))
    assert unified_s <= legacy_s * 1.05, (
        f"unified replay {unified_s * 1e3:.3f} ms vs legacy "
        f"{legacy_s * 1e3:.3f} ms (> 5% regression)"
    )


@pytest.mark.benchmark(group="micro-tracesim")
def test_intern_stream_throughput(benchmark):
    """The one decoder every replay shares: ``intern_stream`` over one
    FULL-scale Fig. 8 group (TIP p=13, 400 events) on a warm plan memo,
    so the row times interning, not planning."""
    from repro.bench import FULL

    backend = make_backend("tip", 13)
    events = backend.generate_events(FULL.n_errors, FULL.seed)
    plans = PlanCache(backend)
    requests = sum(plans.get(e).total_requests for e in events)

    stream = benchmark(intern_stream, backend, events, plan_cache=plans)
    assert stream.n_events == len(events) == 400
    assert stream.total_requests == requests


@pytest.mark.benchmark(group="micro-serve")
def test_advisor_ingest_throughput(benchmark):
    """``CacheAdvisor.ingest`` at the serve defaults (TIP p=7, 24-event
    batches, a 192-event window): 400 synthetic batches into a fresh
    advisor, whose log keeps only the window.  Ingest only sorts, checks
    the layout and appends, so the row is the serve loop's per-event
    advisor cost."""
    from repro.serve import CacheAdvisor, ServeConfig, SyntheticSource

    config = ServeConfig()
    source = SyntheticSource(config.code, config.p, seed=7, chunk=config.batch_events)
    batches = list(source.batches(400))

    def fresh():
        return (CacheAdvisor(config),), {}

    def run(advisor):
        for batch in batches:
            advisor.ingest(batch)
        return advisor

    advisor = benchmark.pedantic(run, setup=fresh, rounds=20)
    assert advisor.events_seen == 9600
    assert advisor.first_event == 9600 - config.window_events  # compaction ran


@pytest.mark.benchmark(group="micro-tracesim")
def test_grid_replay_speedup_and_identity(benchmark):
    """Perf gate for the single-pass grid replay (PR's headline number).

    Re-runs the committed ``BENCH_replay.json`` workload — the FULL-scale
    Figure 8 axis for all five codes — and asserts (a) batched rows are
    identical to per-point rows everywhere, including the all-policy /
    stack-distance identity sweep, (b) the single-core speedup is >= 3x,
    and (c) it has not regressed more than 10% against the committed
    baseline (speedups are same-machine timing ratios, so the comparison
    is machine-independent).
    """
    import json
    from pathlib import Path

    from repro.bench import perf
    from repro.bench.replay_bench import GATE, run_replay_bench

    payload = benchmark.pedantic(
        run_replay_bench, kwargs={"rounds": 1}, rounds=1, iterations=1
    )
    assert all(g["rows_identical"] for g in payload["groups"])
    assert payload["identity"]["rows_identical"]
    assert payload["identity"]["lru_fast_path_identical"]
    speedup = payload["aggregate"]["speedup"]
    assert speedup >= 3.0, f"grid replay speedup {speedup:.2f}x < 3x"

    baseline_path = Path(__file__).parent / "BENCH_replay.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    ok, message = perf.compare(GATE, payload, baseline)
    assert ok, message


@pytest.mark.benchmark(group="micro-planner")
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_planner_latency(benchmark, p):
    """Plan + priorities for a half-stripe error (Table IV's unit cost)."""
    layout = make_code("tip", p)
    failed = [(r, 0) for r in range(layout.rows // 2)]

    def run():
        plan = generate_plan(layout, failed, "fbf")
        return len(PriorityDictionary(plan))

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="micro-codes")
def test_gf2_solver(benchmark):
    """Solve-map for a full-column erasure of STAR p=13."""
    layout = make_code("star", 13)
    a, _ = layout.erasure_matrix(layout.cells_on_disk(0))

    def run():
        return gf2_solve_map(a).shape

    assert benchmark(run) == (12, 36)


@pytest.mark.benchmark(group="micro-codes")
def test_encoder_throughput(benchmark):
    """Encode a 32 KB-chunk STAR p=7 stripe."""
    layout = make_code("star", 7)
    encoder = Encoder(layout)
    rng = np.random.default_rng(0)
    stripe = encoder.random_stripe(32 * 1024, rng)
    for r, c in layout.parity_cells:
        stripe[r, c] = 0

    def run():
        encoder.encode(stripe)
        return stripe.shape[2]

    assert benchmark(run) == 32 * 1024

"""The batched grid replay's contract: rows equal per-point replay, bit for bit.

Hypothesis samples a backend, a bag of (policy x capacity x workers)
configurations (including sanitized ones and both hint models) and
asserts that :func:`~repro.engine.stream.simulate_grid_pass` returns
exactly the row per-point :func:`~repro.engine.simulate_trace` produces
for each — with the LRU/saturation fast paths both on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.registry import available_policies
from repro.engine import (
    PlanCache,
    intern_stream,
    make_backend,
    simulate_grid_pass,
    simulate_trace,
)
from repro.engine.stream import ReplayConfig

BACKEND_SPECS = (
    ("tip", 5),
    ("hdd1", 5),
    ("star", 5),
    ("triple-star", 5),
    ("lrc(6,2,2)", 0),
)

backends = st.sampled_from(BACKEND_SPECS)

configs = st.builds(
    ReplayConfig,
    policy=st.sampled_from(sorted(available_policies())),
    capacity_blocks=st.sampled_from((0, 1, 2, 4, 8, 16, 48, 512)),
    workers=st.sampled_from((1, 2, 4, 8)),
    hint=st.sampled_from(("priority", "share")),
    sanitize=st.booleans(),
)


def _valid(config: ReplayConfig, n_events: int) -> bool:
    """Drop combos the partition contract rejects (tested elsewhere)."""
    eff_workers = min(config.workers, n_events)
    return not 0 < config.capacity_blocks < eff_workers


@settings(max_examples=40, deadline=None)
@given(
    spec=backends,
    config_list=st.lists(configs, min_size=1, max_size=6),
    n_events=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
    fast_path=st.booleans(),
)
def test_grid_pass_rows_equal_per_point(
    spec, config_list, n_events, seed, fast_path
):
    name, p = spec
    backend = make_backend(name, p)
    events = backend.generate_events(n_events, seed)
    config_list = [c for c in config_list if _valid(c, n_events)]
    if not config_list:
        return

    rows = simulate_grid_pass(
        backend, events, config_list, lru_fast_path=fast_path
    )
    assert len(rows) == len(config_list)
    for config, row in zip(config_list, rows):
        expected = simulate_trace(
            backend,
            events,
            policy=config.policy,
            capacity_blocks=config.capacity_blocks,
            workers=config.workers,
            hint=config.hint,
            sanitize=config.sanitize,
        )
        assert row == expected, (config, row, expected)


@settings(max_examples=15, deadline=None)
@given(
    spec=st.sampled_from((("tip", 7), ("star", 5), ("lrc(6,2,2)", 0))),
    policies=st.sets(st.sampled_from(("fifo", "lru", "lfu", "arc", "fbf")),
                     min_size=1),
    sizes=st.lists(st.integers(min_value=1, max_value=48), min_size=1,
                   max_size=4, unique=True),
    workers=st.sampled_from((1, 2, 8, 32, 128)),
    n_events=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
    sanitize=st.booleans(),
)
# Both sides of the fleet's shape rule: a Fig. 8 FULL-like job (every
# kernel's lanes wide enough for the fleet) and a one-worker job.
@example(spec=("tip", 7), policies={"fifo", "lru", "lfu", "arc", "fbf"},
         sizes=[2, 4, 8, 16], workers=128, n_events=300, seed=1,
         sanitize=False)
@example(spec=("tip", 7), policies={"fifo", "lru", "lfu", "arc", "fbf"},
         sizes=[2, 4, 8, 16], workers=1, n_events=300, seed=1,
         sanitize=False)
def test_rows_equal_per_point_on_both_sides_of_the_shape_rule(
    spec, policies, sizes, workers, n_events, seed, sanitize
):
    name, p = spec
    backend = make_backend(name, p)
    events = backend.generate_events(n_events, seed)
    eff_workers = min(workers, n_events)
    # A sanitized FIFO cell rides along: the fleet refuses it, so it steps.
    config_list = [
        ReplayConfig(policy=policy, capacity_blocks=size * eff_workers,
                     workers=workers)
        for policy in sorted(policies)
        for size in sizes
    ] + [ReplayConfig(policy="fifo", capacity_blocks=sizes[0] * eff_workers,
                      workers=workers, sanitize=sanitize)]
    rows = simulate_grid_pass(backend, events, config_list)
    for config, row in zip(config_list, rows):
        assert row == simulate_trace(
            backend,
            events,
            policy=config.policy,
            capacity_blocks=config.capacity_blocks,
            workers=config.workers,
            sanitize=config.sanitize,
        ), config


def test_shared_stream_and_plan_cache_reused():
    backend = make_backend("tip", 7)
    events = backend.generate_events(6, 1)
    plans = PlanCache(backend)
    stream = intern_stream(backend, events, plan_cache=plans)
    grid = [
        ReplayConfig(policy=policy, capacity_blocks=cap, workers=4)
        for policy in ("lru", "fbf", "arc")
        for cap in (8, 64)
    ]
    rows = simulate_grid_pass(
        backend, events, grid, plan_cache=plans, stream=stream
    )
    for config, row in zip(grid, rows):
        assert row == simulate_trace(
            backend,
            events,
            policy=config.policy,
            capacity_blocks=config.capacity_blocks,
            workers=config.workers,
        )


def test_foreign_stream_rejected():
    backend = make_backend("tip", 5)
    other = make_backend("star", 5)
    events = backend.generate_events(3, 0)
    stream = intern_stream(other, other.generate_events(3, 0))
    with pytest.raises(ValueError, match="different backend"):
        simulate_grid_pass(backend, events, [ReplayConfig()], stream=stream)


def test_foreign_plan_cache_rejected():
    backend = make_backend("tip", 5)
    other = make_backend("star", 5)
    with pytest.raises(ValueError, match="different backend"):
        intern_stream(backend, backend.generate_events(3, 0), plan_cache=PlanCache(other))


def test_custom_factory_rows_match():
    from repro.core.fbf_cache import FBFCache

    backend = make_backend("hdd1", 7)
    events = backend.generate_events(5, 3)
    for demote in (True, False):
        factory = lambda cap, d=demote: FBFCache(cap, demote_on_hit=d)
        (row,) = simulate_grid_pass(
            backend,
            events,
            [ReplayConfig(capacity_blocks=32, workers=4, policy_factory=factory)],
        )
        assert row == simulate_trace(
            backend,
            events,
            capacity_blocks=32,
            workers=4,
            policy_factory=factory,
        )

"""The numpy fleet's contract: rows equal the stepped pass, bit for bit.

Hypothesis samples a backend and a bag of configurations — including
sanitized and factory-built ones the fleet must refuse — and asserts
that every row :func:`~repro.engine.stream._replay_vector_rows` solves
through the fleet, whatever the job's shape, equals the stepped row of
:func:`~repro.engine.stream.simulate_grid_pass` with its fast paths off.
The wiring tests pin down eligibility, degenerate-cell fallback, the
slot stride past 64 sizes, the shape rule's decisions, argument
validation, and the sampled-profile dispatch at ``rate=1.0`` (where
SHARDS is exact by construction).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.engine import (
    VECTOR_POLICIES,
    PlanCache,
    make_backend,
    simulate_grid_pass,
)
from repro.engine.stream import (
    ReplayConfig,
    _is_plain,
    _replay_vector_rows,
    intern_stream,
)

BACKEND_SPECS = (
    ("tip", 5),
    ("star", 5),
    ("triple-star", 5),
    ("lrc(6,2,2)", 0),
)

backends = st.sampled_from(BACKEND_SPECS)

configs = st.builds(
    ReplayConfig,
    policy=st.sampled_from(sorted(VECTOR_POLICIES)),
    capacity_blocks=st.sampled_from((0, 1, 2, 4, 8, 16, 48, 512)),
    workers=st.sampled_from((1, 2, 4, 8)),
    hint=st.sampled_from(("priority", "share")),
    sanitize=st.booleans(),
)


def _valid(config: ReplayConfig, n_events: int) -> bool:
    """Drop combos the partition contract rejects (tested elsewhere)."""
    eff_workers = min(config.workers, n_events)
    return not 0 < config.capacity_blocks < eff_workers


def _hint_streams(backend, events, plans=None):
    plans = plans if plans is not None else PlanCache(backend)
    memo = {}

    def stream_for(hint):
        if hint not in memo:
            memo[hint] = intern_stream(backend, events, hint=hint, plan_cache=plans)
        return memo[hint]

    return stream_for


@settings(max_examples=40, deadline=None)
@given(
    spec=backends,
    config_list=st.lists(configs, min_size=1, max_size=6),
    n_events=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
    fast_path=st.booleans(),
)
@example(
    # Regression: the longest worker's every cell saturated, so the lane
    # arena was shorter than that worker's substream and the request-matrix
    # copy in _Lanes broke on shape.
    spec=("lrc(6,2,2)", 0),
    config_list=[
        ReplayConfig(
            policy="arc",
            capacity_blocks=48,
            workers=2,
            hint="priority",
            sanitize=False,
        )
    ],
    n_events=9,
    seed=0,
    fast_path=False,
)
def test_numpy_rows_equal_python(spec, config_list, n_events, seed, fast_path):
    name, p = spec
    backend = make_backend(name, p)
    events = backend.generate_events(n_events, seed)
    config_list = [c for c in config_list if _valid(c, len(events))]
    if not config_list:
        return
    plans = PlanCache(backend)
    reference = simulate_grid_pass(
        backend, events, config_list, plan_cache=plans, lru_fast_path=False
    )
    rows = _replay_vector_rows(
        config_list, _hint_streams(backend, events, plans), fast_path
    )
    # The fleet takes every plain cell with a non-empty slice; plain LRU
    # only with fast_path off (on, the reuse-distance profile owns it).
    assert set(rows) == {
        i for i, c in enumerate(config_list)
        if _is_plain(c, VECTOR_POLICIES) and c.capacity_blocks > 0
        and not (fast_path and c.policy == "lru")
    }
    for i, row in rows.items():
        assert row == reference[i]


def test_fleet_takes_more_than_64_sizes():
    # 79 sizes at workers=4: more output slots per (job, policy) than a
    # fixed 64-slot stride would hold.
    backend = make_backend("tip", 7)
    events = backend.generate_events(200, 11)
    config_list = [
        ReplayConfig(policy=policy, capacity_blocks=4 * size, workers=4)
        for policy in ("fifo", "arc")
        for size in range(1, 80)
    ]
    rows = _replay_vector_rows(config_list, _hint_streams(backend, events), True)
    assert len(rows) == len(config_list)
    reference = simulate_grid_pass(
        backend, events, config_list, lru_fast_path=False
    )
    assert [rows[i] for i in range(len(config_list))] == reference


def test_sampled_rate_one_equals_exact():
    # At rate=1.0 every block is sampled with weight 1: the SHARDS
    # profile degenerates to the exact Mattson profile, so the sampled
    # grid pass must be bit-identical to the exact one.
    backend = make_backend("star", 5)
    events = backend.generate_events(12, 9)
    config_list = [
        ReplayConfig(policy="lru", capacity_blocks=cap, workers=4)
        for cap in (4, 16, 64, 512)
    ]
    plans = PlanCache(backend)
    exact = simulate_grid_pass(backend, events, config_list, plan_cache=plans)
    sampled = simulate_grid_pass(
        backend,
        events,
        config_list,
        plan_cache=plans,
        stackdist="sampled",
        shards_rate=1.0,
    )
    assert sampled == exact


class TestEligibility:
    def test_plain_policies_eligible(self):
        for policy in sorted(VECTOR_POLICIES):
            assert _is_plain(ReplayConfig(policy=policy), VECTOR_POLICIES)

    def test_sanitize_steps(self):
        assert not _is_plain(
            ReplayConfig(policy="lru", sanitize=True), VECTOR_POLICIES
        )

    def test_factory_steps(self):
        config = ReplayConfig(policy="lru", policy_factory=LRUCache)
        assert not _is_plain(config, VECTOR_POLICIES)

    def test_kwargs_step(self):
        config = ReplayConfig(
            policy="fbf", policy_kwargs={"demote_on_hit": True}
        )
        assert not _is_plain(config, VECTOR_POLICIES)


class TestVectorRows:
    def test_degenerate_capacity_falls_back(self):
        # capacity 0 -> per_worker 0: the fleet refuses the cell and the
        # stepped path owns it, so no row comes back for that index.
        backend = make_backend("tip", 5)
        events = backend.generate_events(4, 1)
        stream_for = _hint_streams(backend, events)
        rows = _replay_vector_rows(
            [ReplayConfig(policy="fifo", capacity_blocks=0, workers=2)],
            stream_for,
            True,
        )
        assert rows == {}

    def test_lru_ownership_flag(self):
        backend = make_backend("tip", 5)
        events = backend.generate_events(4, 1)
        stream_for = _hint_streams(backend, events)
        config = [ReplayConfig(policy="lru", capacity_blocks=8, workers=2)]
        assert _replay_vector_rows(config, stream_for, True) == {}
        taken = _replay_vector_rows(config, stream_for, False)
        assert set(taken) == {0}


class TestValidation:
    BACKEND = make_backend("tip", 5)
    EVENTS = BACKEND.generate_events(2, 0)
    CONFIGS = [ReplayConfig(policy="lru", capacity_blocks=4)]

    def _pass(self, **kwargs):
        return simulate_grid_pass(
            self.BACKEND, self.EVENTS, self.CONFIGS, **kwargs
        )

    def test_replay_backend_option_is_gone(self):
        with pytest.raises(TypeError, match="replay_backend"):
            self._pass(replay_backend="numpy")

    def test_bad_stackdist(self):
        with pytest.raises(ValueError, match="stackdist"):
            self._pass(stackdist="guessed")

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_bad_rate(self, rate):
        with pytest.raises(ValueError, match="shards_rate"):
            self._pass(stackdist="sampled", shards_rate=rate)


class TestFleetApi:
    def test_unknown_policy_rejected(self):
        from repro.engine import VectorFleet

        backend = make_backend("tip", 5)
        events = backend.generate_events(3, 2)
        stream = intern_stream(
            backend, events, plan_cache=PlanCache(backend)
        )
        fleet = VectorFleet()
        fleet.add(stream, 2, (4,))
        with pytest.raises(ValueError, match="mru"):
            fleet.solve(["mru"])


class TestShapeRule:
    """Which kernels the grid pass hands to the fleet, by job shape."""

    @staticmethod
    def _fleet_policies(name, p, n_events, workers, sizes):
        from repro.engine.stream import _shape_rule, _vector_cells

        backend = make_backend(name, p)
        events = backend.generate_events(n_events, 5)
        config_list = [
            ReplayConfig(policy=policy, capacity_blocks=size * workers,
                         workers=workers)
            for policy in sorted(VECTOR_POLICIES)
            for size in sizes
        ]
        stream_for = _hint_streams(backend, events)

        def distincts_for(st, w):
            return [len(set(bids)) for bids, _ in st.worker_substreams(w)]

        cells = _vector_cells(config_list, stream_for, True)
        chosen = _shape_rule(cells, stream_for, distincts_for)
        return {config_list[i].policy for i in chosen}

    def test_fig8_full_job_sends_fifo_and_bucket_to_the_fleet(self):
        # Fig. 8 FULL: 400 events, 128 SOR workers, 8 MB .. 2 GB caches
        # of 32 KB blocks split 128 ways.
        sizes = [(mb * 32) // 128 for mb in (8, 16, 32, 64, 128, 256, 512,
                                             1024, 2048)]
        chosen = self._fleet_policies("tip", 7, 400, 128, sizes)
        assert {"fifo", "lfu", "fbf"} <= chosen

    def test_one_worker_job_steps(self):
        sizes = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
        assert self._fleet_policies("tip", 7, 400, 1, sizes) == set()

    def test_lru_fast_path_off_steps_every_cell(self):
        from repro.obs import runtime

        backend = make_backend("tip", 7)
        events = backend.generate_events(400, 5)
        config_list = [
            ReplayConfig(policy=policy, capacity_blocks=cap, workers=128)
            for policy in sorted(VECTOR_POLICIES)
            for cap in (256, 1024)
        ]
        registry = runtime.enable(fresh=True)
        try:
            fast = simulate_grid_pass(backend, events, config_list)
            fleet_rows = registry.snapshot()["counters"]["engine.grid.vector_rows"]
            stepped = simulate_grid_pass(
                backend, events, config_list, lru_fast_path=False
            )
            counters = registry.snapshot()["counters"]
        finally:
            runtime.disable()
        assert fleet_rows > 0
        assert counters["engine.grid.vector_rows"] == fleet_rows
        assert fast == stepped

"""The numpy replay backend's contract: rows equal the python pass, bit for bit.

Hypothesis samples a backend and a bag of configurations — including
sanitized and factory-built ones the fleet must refuse and fall back to
stepping for — and asserts :func:`~repro.engine.stream.simulate_grid_pass`
returns the identical row list under ``replay_backend="numpy"``.  The
wiring tests pin down eligibility, degenerate-cell fallback, argument
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
    _is_vector_eligible,
    _replay_vector_rows,
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
        backend, events, config_list, plan_cache=plans, lru_fast_path=fast_path
    )
    rows = simulate_grid_pass(
        backend,
        events,
        config_list,
        plan_cache=plans,
        lru_fast_path=fast_path,
        replay_backend="numpy",
    )
    assert rows == reference


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
            assert _is_vector_eligible(ReplayConfig(policy=policy))

    def test_sanitize_steps(self):
        assert not _is_vector_eligible(ReplayConfig(policy="lru", sanitize=True))

    def test_factory_steps(self):
        config = ReplayConfig(policy="lru", policy_factory=LRUCache)
        assert not _is_vector_eligible(config)

    def test_kwargs_step(self):
        config = ReplayConfig(
            policy="fbf", policy_kwargs={"demote_on_hit": True}
        )
        assert not _is_vector_eligible(config)


class TestVectorRows:
    def _stream_for(self, backend, events):
        from repro.engine.stream import intern_stream

        plans = PlanCache(backend)
        memo = {}

        def stream_for(hint):
            if hint not in memo:
                memo[hint] = intern_stream(
                    backend, events, hint=hint, plan_cache=plans
                )
            return memo[hint]

        return stream_for

    def test_degenerate_capacity_falls_back(self):
        # capacity 0 -> per_worker 0: the fleet refuses the cell and the
        # stepped path owns it, so no row comes back for that index.
        backend = make_backend("tip", 5)
        events = backend.generate_events(4, 1)
        stream_for = self._stream_for(backend, events)
        rows = _replay_vector_rows(
            [ReplayConfig(policy="fifo", capacity_blocks=0, workers=2)],
            stream_for,
            True,
        )
        assert rows == {}

    def test_lru_ownership_flag(self):
        backend = make_backend("tip", 5)
        events = backend.generate_events(4, 1)
        stream_for = self._stream_for(backend, events)
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

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="replay_backend"):
            self._pass(replay_backend="cuda")

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
        from repro.engine.stream import intern_stream

        backend = make_backend("tip", 5)
        events = backend.generate_events(3, 2)
        stream = intern_stream(
            backend, events, plan_cache=PlanCache(backend)
        )
        fleet = VectorFleet()
        fleet.add(stream, 2, (4,))
        with pytest.raises(ValueError, match="mru"):
            fleet.solve(["mru"])

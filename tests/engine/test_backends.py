"""Unit tests for the engine contract: backends, registry, plans, caches."""

import pytest

from repro.codes import make_code
from repro.engine import (
    CodeBackend,
    EnginePlan,
    LRCBackend,
    MAX_PRIORITY,
    PlanCache,
    RecoveryStep,
    XORBackend,
    available_backends,
    make_backend,
    make_priority_model,
    register_backend,
    simulate_trace,
)
from repro.engine.registry import BACKENDS
from repro.lrc import LRCCode


class TestRegistry:
    @pytest.mark.parametrize("name", ["tip", "hdd1", "triple-star", "star"])
    def test_xor_backends_resolve(self, name):
        backend = make_backend(name, 7)
        assert isinstance(backend, CodeBackend)
        assert backend.p == 7
        assert backend.scheme_label == "fbf"

    def test_scheme_mode_forwarded(self):
        assert make_backend("tip", 7, scheme_mode="typical").scheme_label == "typical"

    def test_aliases(self):
        assert make_backend("triplestar", 7).code_label == \
            make_backend("triple-star", 7).code_label
        assert make_backend("TIP-Code", 7).code_label == \
            make_backend("tip", 7).code_label

    def test_lrc_default_and_parameterised(self):
        assert make_backend("lrc").code_label == LRCCode().name
        assert make_backend("lrc(12,2,2)").code_label == "LRC(12,2,2)"
        assert make_backend("lrc(6,2,2)").code_label == "LRC(6,2,2)"

    def test_lrc_ignores_p(self):
        assert make_backend("lrc(12,2,2)", 0).p == 0

    def test_xor_requires_p(self):
        with pytest.raises(ValueError, match="requires the prime"):
            make_backend("tip")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("raid6")

    def test_bad_lrc_spec(self):
        with pytest.raises(ValueError, match="LRC spec"):
            make_backend("lrc(12,2)")

    def test_available_backends_lists_all(self):
        names = available_backends()
        for name in ("tip", "hdd1", "triple-star", "star", "lrc"):
            assert name in names

    def test_register_round_trip(self):
        sentinel = XORBackend(make_code("tip", 5))
        register_backend("custom-code", lambda spec, p, mode: sentinel)
        try:
            assert make_backend("custom-code") is sentinel
            assert "custom-code" in available_backends()
        finally:
            del BACKENDS["custom-code"]
        with pytest.raises(ValueError):
            make_backend("custom-code")

    def test_every_registered_backend_round_trips(self):
        """Each registry name builds a backend that satisfies the protocol
        and produces replayable plans for its own events."""
        for name in available_backends():
            backend = make_backend(name, 7)
            assert isinstance(backend, CodeBackend)
            events = backend.generate_events(4, seed=3)
            assert len(events) == 4
            for event in events:
                plan = backend.build_plan(event)
                assert plan.steps and plan.request_sequence
                assert backend.plan_key(event) == backend.plan_key(event)


class TestEnginePlan:
    def test_derived_views(self):
        plan = EnginePlan(
            steps=(
                RecoveryStep(target="a", reads=("x", "y")),
                RecoveryStep(target="b", reads=("y", "z")),
                RecoveryStep(target="c", reads=("y", "x", "w")),
                RecoveryStep(target="d", reads=("y",)),
            )
        )
        assert plan.request_sequence == ("x", "y", "y", "z", "y", "x", "w", "y")
        assert plan.share_counts == {"x": 2, "y": 4, "z": 1, "w": 1}
        # Table II: share counts capped at MAX_PRIORITY, default 1.
        assert plan.priorities["y"] == MAX_PRIORITY
        assert plan.priority_of("x") == 2
        assert plan.priority_of("nope") == 1
        assert plan.targets == ("a", "b", "c", "d")
        assert plan.unique_reads == 4
        assert plan.total_requests == 8

    def test_source_excluded_from_equality(self):
        steps = (RecoveryStep(target="a", reads=("x",)),)
        assert EnginePlan(steps, source=object()) == EnginePlan(steps, source=None)


class TestPriorityModels:
    def test_unknown_hint(self):
        with pytest.raises(ValueError, match="hint"):
            make_priority_model("nope")

    def test_share_model_uncapped(self):
        plan = EnginePlan(
            steps=tuple(
                RecoveryStep(target=i, reads=("hot",)) for i in range(5)
            )
        )
        lookup = make_priority_model("share").bind(plan)
        assert lookup("hot") == 5  # raw share count, not capped at 3
        assert lookup("cold") == 1
        table = make_priority_model("priority").bind(plan)
        assert table("hot") == MAX_PRIORITY


class TestPlanCache:
    @pytest.fixture
    def backend(self):
        return make_backend("tip", 5)

    def test_memoizes_by_shape(self, backend):
        events = backend.generate_events(30, seed=1)
        cache = PlanCache(backend)
        plans = [cache.get(e) for e in events]
        again = [cache.get(e) for e in events]
        for a, b in zip(plans, again):
            assert a is b  # identity, not just equality
        stats = cache.stats()
        assert stats["misses"] == len(cache)
        assert stats["hits"] >= len(events)  # repeats + second pass

    def test_backend_mismatch_rejected(self, backend):
        other = make_backend("tip", 5)
        events = backend.generate_events(5, seed=1)
        with pytest.raises(ValueError, match="different backend"):
            simulate_trace(other, events, plan_cache=PlanCache(backend))


class TestUnifiedResult:
    """One result dataclass for every code (the old LRCTraceResult is gone)."""

    def test_code_field_distinguishes_worlds(self):
        xor = make_backend("tip", 5)
        lrc = make_backend("lrc(12,2,2)")
        rx = simulate_trace(xor, xor.generate_events(10, seed=2), capacity_blocks=16)
        rl = simulate_trace(lrc, lrc.generate_events(10, seed=2), capacity_blocks=16)
        assert type(rx) is type(rl)
        assert rx.code == "TIP" and rx.p == 5
        assert rl.code == "LRC(12,2,2)" and rl.p == 0
        for res in (rx, rl):
            assert res.requests == res.hits + res.disk_reads
            assert res.n_events == res.n_errors == 10

    def test_validation(self):
        backend = make_backend("tip", 5)
        events = backend.generate_events(5, seed=2)
        with pytest.raises(ValueError, match="capacity_blocks"):
            simulate_trace(backend, events, capacity_blocks=-1)
        with pytest.raises(ValueError, match="workers"):
            simulate_trace(backend, events, workers=0)
        with pytest.raises(ValueError, match="hint"):
            simulate_trace(backend, events, hint="nope")


class TestLRCBackendDetails:
    def test_steps_zip_failures_to_equations(self):
        backend = LRCBackend(LRCCode(12, 2, 2))
        for event in backend.generate_events(40, seed=7):
            plan = backend.build_plan(event)
            assert plan.targets == plan.source.failed
            assert len(plan.steps) == len(plan.source.equations)

    def test_datapath_unsupported(self):
        with pytest.raises(ValueError, match="verify_payloads"):
            LRCBackend().make_datapath(payload_size=64, seed=0)

    def test_xor_scheme_validation(self):
        with pytest.raises(ValueError, match="scheme mode"):
            XORBackend(make_code("tip", 5), "nope")

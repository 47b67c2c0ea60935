"""The kernel's same-time fast lane and Event/Timeout free-list pools.

Covers the PR-9 hot-path contract (DESIGN.md §16) from both directions:

* unit tests pin the mechanics — FIFO fast-lane ordering interleaved
  with the heap, ``schedule_now`` / ``timeout(0)`` equivalence, pool
  recycling gated on the refcount guard, exact-class-only pooling, and
  the rule that pooling is on exactly when ``_schedule`` is the stock
  one;
* a hypothesis differential test drives random process/resource/store/
  container workloads through the pooled fast-lane kernel and the
  frozen stepwise reference (plus the sanitized variant), under every
  ``until`` form and with obs on and off, and requires bit-identical
  traces, clocks, delivered values and dispatch counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.kernel_bench import ReferenceEnvironment
from repro.checks.sanitizer import SanitizedEnvironment
from repro.obs import runtime
from repro.sim.kernel import (
    Container,
    Environment,
    Event,
    Resource,
    SimulationError,
    Store,
    Timeout,
)


class TestFastLane:
    def test_schedule_now_fires_this_instant_in_fifo_order(self):
        env = Environment()
        seen: list[str] = []

        def proc(tag):
            value = yield env.schedule_now(tag)
            seen.append(value)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert seen == ["a", "b", "c"]
        assert env.now == 0.0

    def test_timeout0_and_schedule_now_interleave_in_schedule_order(self):
        """The two zero-delay spellings share one FIFO lane."""
        env = Environment()
        order: list[str] = []
        env.timeout(0.0).callbacks.append(lambda ev: order.append("t1"))
        env.schedule_now().callbacks.append(lambda ev: order.append("n1"))
        env.timeout(0.0).callbacks.append(lambda ev: order.append("t2"))
        env.schedule_now().callbacks.append(lambda ev: order.append("n2"))
        env.run()
        assert order == ["t1", "n1", "t2", "n2"]

    def test_fast_lane_respects_counter_order_against_heap(self):
        """An earlier-scheduled heap event at the same instant wins.

        At t=1 the timeout scheduled first must fire before the
        zero-delay event its sibling schedules — (when, counter) total
        order, not blanket fast-lane priority.
        """
        env = Environment()
        order: list[str] = []

        def early(ev):
            order.append("heap-early")

        def sibling(ev):
            order.append("sibling")
            env.schedule_now().callbacks.append(lambda e: order.append("fast"))

        env.timeout(1.0).callbacks.append(sibling)
        env.timeout(1.0).callbacks.append(early)
        env.run()
        # sibling fired first (scheduled first), then the heap event
        # already queued at t=1 with a smaller counter, then the fast one.
        assert order == ["sibling", "heap-early", "fast"]

    def test_peek_sees_fast_lane(self):
        env = Environment()
        env.timeout(5.0)
        assert env.peek() == 5.0
        env.schedule_now()
        assert env.peek() == env.now

    def test_run_until_deadline_drains_fast_lane(self):
        env = Environment()
        fired: list[float] = []
        env.schedule_now().callbacks.append(lambda ev: fired.append(env.now))
        env.timeout(3.0).callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=2.0)
        assert fired == [0.0]
        assert env.now == 2.0

    def test_schedule_now_delivers_value(self):
        env = Environment()
        got: list[object] = []

        def proc():
            got.append((yield env.schedule_now("payload")))

        env.process(proc())
        env.run()
        assert got == ["payload"]


class TestPools:
    def test_unreferenced_timeout_is_recycled(self):
        env = Environment()
        first = id(env.timeout(1.0))  # only the heap holds it
        env.run()
        assert len(env._timeout_pool) == 1
        again = env.timeout(1.0)
        assert id(again) == first
        assert env._timeout_pool == []

    def test_referenced_timeout_is_not_recycled(self):
        env = Environment()
        held = env.timeout(1.0)
        env.run()
        assert env._timeout_pool == []
        assert held.processed

    def test_recycled_timeout_is_pristine(self):
        env = Environment()
        env.timeout(1.0, value="old")
        env.run()
        t = env.timeout(2.0, value="new")
        assert t.delay == 2.0
        assert t.triggered and not t.processed
        assert t.callbacks == []
        got: list[object] = []
        t.callbacks.append(lambda ev: got.append(ev.value))
        env.run()
        assert got == ["new"]

    def test_event_pool_recycles_schedule_now(self):
        env = Environment()
        first = id(env.schedule_now())
        env.run()
        assert len(env._event_pool) == 1
        assert id(env.schedule_now()) == first

    def test_subclass_events_are_never_pooled(self):
        """Only exact Event/Timeout recycle; Requests etc. carry state."""
        env = Environment()
        res = Resource(env, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)

        env.process(proc())
        env.run()
        assert all(type(e) is Timeout for e in env._timeout_pool)
        assert all(type(e) is Event for e in env._event_pool)

    def test_pooling_off_keeps_pools_empty(self):
        class Custom(Environment):
            def _schedule(self, event, delay=0.0):
                super()._schedule(event, delay)

        env = Custom()
        env.timeout(1.0)
        env.schedule_now()
        env.run()
        assert env._timeout_pool == []
        assert env._event_pool == []

    def test_pool_counters_when_obs_enabled(self):
        runtime.enable(fresh=True)
        try:
            env = Environment()

            def proc():
                for _ in range(5):
                    yield env.timeout(1.0)

            env.process(proc())
            env.run()
            metrics = {m.name: m.value for m in runtime.registry().metrics()}
        finally:
            runtime.disable()
        assert metrics["kernel.pool.timeout_hits"] >= 3
        assert metrics["kernel.pool.timeout_misses"] >= 1

    def test_auto_guard_forces_pooling_off_for_custom_schedule(self):
        class Custom(Environment):
            def _schedule(self, event, delay=0.0):
                super()._schedule(event, delay)

        assert Custom()._pooling is False
        assert Environment()._pooling is True
        # Overriding step() alone keeps pooling: the stepwise loop still
        # routes scheduling through the stock _schedule.
        assert ReferenceEnvironment()._pooling is False  # heap-only _schedule
        assert SanitizedEnvironment()._pooling is True


# ---------------------------------------------------------------------------
# Differential property test: pooled fast-lane kernel vs the frozen
# stepwise reference, under every ``until`` form and with obs on and off.
# ---------------------------------------------------------------------------

# Exact binary fractions only: clocks must compare bit-identically.
_DELAYS = (0.0, 0.25, 0.5, 1.0, 2.5)

#: ``run(until=...)`` forms: quiescence, a deadline, an Event target that
#: may fire (the last worker's process), and one that never fires.
UNTIL_FORMS = ("none", "deadline", "process", "never")


@st.composite
def workload_specs(draw):
    n_procs = draw(st.integers(1, 6))
    specs = []
    for _ in range(n_procs):
        actions = draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
                    st.tuples(st.just("now"), st.integers(0, 99)),
                    st.tuples(st.just("resource"), st.sampled_from(_DELAYS)),
                    st.tuples(st.just("store_put"), st.integers(0, 99)),
                    st.just(("store_get", None)),
                    st.tuples(st.just("cont_put"), st.sampled_from((1.0, 2.0))),
                    st.just(("cont_get", None)),
                ),
                min_size=1,
                max_size=8,
            )
        )
        specs.append(actions)
    return specs


class _CountingReference(ReferenceEnvironment):
    """The reference kernel, counting its dispatches one step at a time."""

    def __init__(self):
        super().__init__()
        self.dispatched = 0

    def step(self) -> None:
        super().step()
        self.dispatched += 1


def _execute(env: Environment, specs, until: str) -> tuple:
    resource = Resource(env, capacity=2)
    store = Store(env)
    tank = Container(env, capacity=6.0, init=2.0)
    trace: list[tuple] = []

    def worker(pid, actions):
        for idx, (kind, arg) in enumerate(actions):
            if kind == "timeout":
                value = yield env.timeout(arg, value=(pid, idx))
            elif kind == "now":
                value = yield env.schedule_now(arg)
            elif kind == "resource":
                req = resource.request()
                yield req
                yield env.timeout(arg)
                resource.release(req)
                value = None
            elif kind == "store_put":
                store.put(arg)
                value = arg
            elif kind == "store_get":
                value = yield store.get()
            elif kind == "cont_put":
                yield tank.put(arg)
                value = arg
            else:  # cont_get
                yield tank.get(1.0)
                value = 1.0
            trace.append((pid, idx, kind, env.now, value))
        return pid

    procs = [env.process(worker(pid, actions)) for pid, actions in enumerate(specs)]
    # A consumer with no matching producer parks forever, which is a legal
    # workload: quiescence and deadlines simply leave it parked, while an
    # Event target it blocks must surface as a deadlock.
    bound = {
        "none": None,
        "deadline": 64.0,
        "process": procs[-1],
        "never": env.event(),
    }[until]
    try:
        outcome = ("returned", env.run(bound))
    except SimulationError as exc:
        outcome = ("raised", str(exc))
    return tuple(trace), outcome, env.now, env._counter


def _reference(specs, until: str) -> tuple[tuple, int]:
    ref = _CountingReference()
    expected = _execute(ref, specs, until)
    if until == "never":
        assert expected[1][0] == "raised"
    return expected, ref.dispatched


@given(workload_specs())
@settings(max_examples=60, deadline=None)
def test_pooled_fast_lane_matches_stepwise_reference(specs):
    for until in UNTIL_FORMS:
        expected, _ = _reference(specs, until)
        assert _execute(Environment(), specs, until) == expected
        assert _execute(SanitizedEnvironment(), specs, until) == expected


@given(workload_specs())
@settings(max_examples=30, deadline=None)
def test_obs_enabled_dispatch_is_bit_identical(specs):
    for until in UNTIL_FORMS:
        expected, dispatched = _reference(specs, until)
        for make_env in (Environment, SanitizedEnvironment):
            registry = runtime.enable(fresh=True)
            try:
                observed = _execute(make_env(), specs, until)
            finally:
                runtime.disable()
            assert observed == expected
            counters = registry.snapshot()["counters"]
            assert counters["kernel.events_dispatched"] == dispatched
            assert counters["kernel.runs"] == 1


def test_observed_run_never_calls_step():
    """Obs on, a plain Environment still takes the inlined loop."""
    env = Environment()
    stock_step = env.step
    steps = []

    def counting_step():
        steps.append(env.now)
        stock_step()

    # Instance-level: the class-level override check still sees the
    # stock step(), so only a stepwise loop would reach this wrapper.
    env.step = counting_step

    def proc():
        for _ in range(5):
            yield env.timeout(1.0)
            yield env.schedule_now()

    env.process(proc())
    registry = runtime.enable(fresh=True)
    try:
        env.run()
    finally:
        runtime.disable()
    assert steps == []
    snap = registry.snapshot()
    assert snap["counters"]["kernel.events_dispatched"] == env._counter == 12
    assert snap["gauges"]["kernel.virtual_time"] == env.now == 5.0
    assert "kernel.run" in snap["spans"]

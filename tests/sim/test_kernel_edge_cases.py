"""Edge-case tests for kernel semantics not covered elsewhere."""

import pytest

from repro.sim.kernel import Environment, SimulationError


class TestTimeoutValues:
    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc():
            got.append((yield env.timeout(3, value="payload")))

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_zero_delay_fires_this_instant(self):
        env = Environment()
        t = env.timeout(0)
        env.run()
        assert t.processed and env.now == 0.0


class TestProcessSemantics:
    def test_process_name_defaults(self):
        env = Environment()

        def my_proc():
            yield env.timeout(1)

        p = env.process(my_proc())
        assert p.name  # some non-empty label

    def test_explicit_name(self):
        env = Environment()

        def g():
            yield env.timeout(1)

        p = env.process(g(), name="worker-7")
        assert p.name == "worker-7"

    def test_exception_escapes_through_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise KeyError("inside process")

        p = env.process(bad())
        with pytest.raises(KeyError, match="inside process"):
            env.run(p)

    def test_exception_in_unawaited_process_propagates_at_step(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(bad())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_immediate_return(self):
        env = Environment()

        def instant():
            return 5
            yield  # pragma: no cover

        assert env.run(env.process(instant())) == 5

    def test_chained_immediate_events(self):
        """A process consuming several already-processed events resumes
        synchronously without re-entering the scheduler."""
        env = Environment()
        pre = [env.timeout(0, value=i) for i in range(3)]
        env.run()
        got = []

        def proc():
            for ev in pre:
                got.append((yield ev))

        env.run(env.process(proc()))
        assert got == [0, 1, 2]


class TestRunSemantics:
    def test_run_until_event_value(self):
        env = Environment()

        def producer():
            yield env.timeout(4)
            return {"answer": 42}

        assert env.run(env.process(producer())) == {"answer": 42}

    def test_run_to_quiescence_returns_none(self):
        env = Environment()
        env.timeout(1)
        assert env.run() is None
        assert env.now == 1.0

    def test_run_until_boundary_inclusive(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(5)
            fired.append(True)

        env.process(proc())
        env.run(until=5)
        assert fired  # events at exactly the deadline are processed

    def test_interleaved_run_calls(self):
        env = Environment()
        log = []

        def ticker():
            for i in range(4):
                yield env.timeout(2)
                log.append(i)

        env.process(ticker())
        env.run(until=3)
        assert log == [0]
        env.run(until=10)
        assert log == [0, 1, 2, 3]


class TestNaNTimes:
    """NaN passes a ``< 0`` check; it must be rejected, not scheduled."""

    def test_nan_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="delay"):
            env.timeout(float("nan"))

    def test_nan_delay_rejected_on_pool_hit(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        assert env._timeout_pool  # the next timeout() is a pool hit
        with pytest.raises(ValueError, match="delay"):
            env.timeout(float("nan"))

    def test_nan_delay_cannot_reorder_the_clock(self):
        env = Environment()
        resumed = []

        def sleeper(delay):
            yield env.timeout(delay)
            resumed.append(env.now)

        for delay in (2.0, float("nan"), 1.0, 3.0):
            env.process(sleeper(delay))
        with pytest.raises(ValueError, match="delay"):
            env.run()
        env.run()
        assert resumed == [1.0, 2.0, 3.0]

    def test_nan_deadline_rejected(self):
        env = Environment()
        fired = []
        env.timeout(1.0).callbacks.append(lambda ev: fired.append(env.now))
        with pytest.raises(ValueError, match="deadline"):
            env.run(until=float("nan"))
        assert env.now == 0.0
        env.run()
        assert fired == [1.0]

"""Unit tests for the simulation kernel's event types."""

import pytest

from repro.sim import Environment, Event


@pytest.fixture()
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = Event(env)
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        event = Event(env)
        with pytest.raises(RuntimeError):
            _ = event.value
        with pytest.raises(RuntimeError):
            _ = event.ok

    def test_succeed_attaches_value(self, env):
        event = Event(env).succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = Event(env).succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = Event(env)
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_attaches_exception(self, env):
        exc = ValueError("boom")
        event = Event(env).fail(exc)
        assert event.triggered
        assert not event.ok
        assert event.value is exc

    def test_none_is_a_valid_value(self, env):
        event = Event(env).succeed(None)
        assert event.triggered
        assert event.value is None

    def test_callbacks_run_on_processing(self, env):
        event = Event(env)
        seen = []
        event.add_callback(seen.append)
        event.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == [event]
        assert event.processed

    def test_callback_on_processed_event_runs_immediately(self, env):
        event = Event(env).succeed("x")
        env.run()
        seen = []
        event.add_callback(seen.append)
        assert seen == [event]


class TestTimeout:
    def test_fires_at_the_right_time(self, env):
        times = []
        t = env.timeout(2.5)
        t.add_callback(lambda e: times.append(env.now))
        env.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_allowed(self, env):
        t = env.timeout(0, value="now")
        env.run()
        assert t.processed
        assert t.value == "now"

    def test_carries_value(self, env):
        t = env.timeout(1, value={"k": 1})
        env.run()
        assert t.value == {"k": 1}

    def test_same_time_timeouts_fifo(self, env):
        order = []
        for name in "abc":
            env.timeout(1, value=name).add_callback(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        a = env.timeout(1, value="a")
        b = env.timeout(3, value="b")
        cond = env.all_of([a, b])
        env.run(cond)
        assert env.now == 3
        assert cond.value == {a: "a", b: "b"}

    def test_empty_condition_fires_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered
        assert cond.value == {}

    def test_condition_over_processed_events(self, env):
        a = env.timeout(1, value="a")
        env.run()
        cond = env.all_of([a])
        assert cond.triggered
        assert cond.value == {a: "a"}

    def test_condition_rejects_foreign_events(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([Event(other)])

    def test_all_of_failure_propagates(self, env):
        bad = Event(env)
        cond = env.all_of([bad, env.timeout(10)])
        bad.fail(ValueError("x"))

        def waiter():
            with pytest.raises(ValueError):
                yield cond
            return "handled"

        proc = env.process(waiter())
        env.run(proc)
        assert proc.value == "handled"

    def test_all_of_mixed_order(self, env):
        events = [env.timeout(d, value=d) for d in (3, 1, 2)]
        cond = env.all_of(events)
        env.run(cond)
        assert env.now == 3
        assert set(cond.value.values()) == {1, 2, 3}

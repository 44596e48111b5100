"""Unit tests for the environment's run loop and scheduling discipline."""

import pytest

from repro.sim import EmptySchedule, Environment, Event, Store, Timeout


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_run_until_time(self):
        env = Environment()
        env.timeout(10)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_exhausts_schedule(self):
        env = Environment()
        env.timeout(3)
        env.timeout(7)
        env.run()
        assert env.now == 7

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2

    def test_step_on_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()


class TestRunUntilEvent:
    def test_returns_event_value(self):
        env = Environment()

        def worker():
            yield env.timeout(5)
            return "payload"

        proc = env.process(worker())
        assert env.run(proc) == "payload"
        assert env.now == 5

    def test_until_already_processed_event(self):
        env = Environment()
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(t) == "v"

    def test_until_event_never_fires_raises(self):
        env = Environment()
        orphan = Event(env)
        env.timeout(1)
        with pytest.raises(RuntimeError, match="exhausted"):
            env.run(orphan)

    def test_stops_before_later_events(self):
        env = Environment()
        late = env.timeout(100)
        early = env.timeout(1)
        env.run(early)
        assert env.now == 1
        assert not late.processed
        env.run()
        assert late.processed


class TestFailurePropagation:
    def test_unhandled_failed_event_raises(self):
        env = Environment()
        Event(env).fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_handled_failure_in_process_is_silent(self):
        env = Environment()
        bad = Event(env)

        def waiter():
            try:
                yield bad
            except ValueError:
                return "caught"

        proc = env.process(waiter())
        bad.fail(ValueError("x"))
        assert env.run(proc) == "caught"


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build():
            env = Environment()
            log = []

            def worker(name, delays):
                for d in delays:
                    yield env.timeout(d)
                    log.append((name, env.now))

            env.process(worker("x", [1, 2, 3]))
            env.process(worker("y", [2, 2, 2]))
            env.run()
            return log

        assert build() == build()


class TestSuccessiveTimedRuns:
    """A run(until=<number>) stop event is disarmed however its run ends.

    A process failure escaping a timed run once left that run's stop
    event in the heap.  The next timed run then pushed a second stop at
    a possibly identical (time, priority, sentinel eid), and the heap
    tie-break fell through to comparing the Event objects (TypeError).
    """

    def test_second_timed_run_after_escaped_failure(self):
        env = Environment()

        def boom():
            yield env.timeout(0.5)
            raise RuntimeError("boom")

        env.process(boom())
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=1.0)
        env.timeout(0.2)
        env.run(until=1.0)  # same stop time: must not TypeError
        assert env.now == 1.0

    def test_successive_timed_runs_advance_the_clock(self):
        env = Environment()
        ticks = []

        def ticker():
            while True:
                yield env.timeout(0.25)
                ticks.append(env.now)

        env.process(ticker())
        env.run(until=1.0)
        assert env.now == 1.0
        env.run(until=2.0)
        assert env.now == 2.0
        # The stop at t=1.0 is urgent, so it fires before the tick due
        # at the same instant; that tick lands in the second run.
        assert ticks == [0.25 * i for i in range(1, 8)]

    def test_stop_events_sort_ahead_of_real_events(self):
        # Sentinel eids start far below any real eid: a stop pushed
        # *after* billions of events still wins a same-time tie.
        env = Environment()
        seen = []
        env.timeout(1.0).add_callback(lambda event: seen.append("tick"))
        env.run(until=1.0)
        assert env.now == 1.0
        assert seen == []  # the stop fired first; the tick is still queued
        env.run()
        assert seen == ["tick"]

    def test_timed_run_in_the_past_is_rejected(self):
        env = Environment()
        env.timeout(1.0)
        env.run(until=1.0)
        with pytest.raises(ValueError, match="in the past"):
            env.run(until=0.5)


class TestAbortedRunsLeaveNoStopArmed:
    """A run that raises takes its stop with it: a later run is not
    ended by a stop it never asked for."""

    @staticmethod
    def _aborted(env, until):
        def boom():
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(boom())
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=until)
        assert env.now == 1

    def test_after_an_aborted_timed_run(self):
        env = Environment()
        self._aborted(env, 5)
        late = env.timeout(10)
        env.run()
        assert late.processed and env.now == 11

    def test_after_an_aborted_run_until_event(self):
        env = Environment()
        stop = env.timeout(5)
        self._aborted(env, stop)
        late = env.timeout(10)
        env.run()
        assert stop.processed and late.processed and env.now == 11


class TestNanIsNotATime:
    def test_timeout(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
        assert env.peek() == float("inf")

    def test_timeout_constructed_directly(self):
        env = Environment()
        with pytest.raises(ValueError):
            Timeout(env, float("nan"))
        assert env.peek() == float("inf")

    def test_run_until(self):
        env = Environment()
        env.timeout(1)
        with pytest.raises(ValueError):
            env.run(until=float("nan"))
        assert env.now == 0 and env.peek() == 1

    def test_store_get_timeout(self):
        env = Environment()
        store = Store(env)
        with pytest.raises(ValueError):
            store.get(timeout_s=float("nan"))
        assert env.peek() == float("inf")


class TestInfinityIsNotADelay:
    """A timeout at ``inf`` would move the clock to ``inf`` once it
    fired, and every later ``run(until=t)`` would be "in the past"."""

    def test_timeout(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(float("inf"))
        assert env.peek() == float("inf")

    def test_timeout_constructed_directly(self):
        env = Environment()
        with pytest.raises(ValueError):
            Timeout(env, float("inf"))
        assert env.peek() == float("inf")

    def test_satisfied_infinite_get_leaves_the_clock_usable(self):
        env = Environment()
        store = Store(env)
        got = store.get(timeout_s=float("inf"))
        assert env.peek() == float("inf")   # no deadline armed
        env.timeout(1.0).add_callback(lambda _: store.try_put("x"))
        env.run()
        assert got.value == "x" and env.now == 1.0
        env.run(until=3.0)
        later = env.timeout(0.5)
        env.run()
        assert later.processed and env.now == 3.5

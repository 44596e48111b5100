"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Environment, Event


@pytest.fixture()
def env():
    return Environment()


class TestProcessBasics:
    def test_process_runs_to_completion(self, env):
        log = []

        def worker():
            log.append(env.now)
            yield env.timeout(2)
            log.append(env.now)
            return "done"

        proc = env.process(worker())
        result = env.run(proc)
        assert result == "done"
        assert log == [0, 2]

    def test_process_is_alive_until_return(self, env):
        def worker():
            yield env.timeout(1)

        proc = env.process(worker())
        assert not proc.triggered
        env.run()
        assert proc.triggered

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_non_event_fails_process(self, env):
        def worker():
            yield 42  # type: ignore[misc]

        proc = env.process(worker())
        with pytest.raises(TypeError):
            env.run(proc)

    def test_exception_in_process_propagates(self, env):
        def worker():
            yield env.timeout(1)
            raise RuntimeError("kaput")

        env.process(worker())
        with pytest.raises(RuntimeError, match="kaput"):
            env.run()

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(3)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 2

        proc = env.process(parent())
        assert env.run(proc) == 14
        assert env.now == 3

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((name, env.now))

        env.process(ticker("a", 1))
        env.process(ticker("b", 2))
        env.run()
        # At t=2 both fire; b's timeout was scheduled first (at t=0) so it
        # is processed first — same-time events are FIFO by schedule order.
        assert log == [
            ("a", 1), ("b", 2), ("a", 2), ("a", 3), ("b", 4), ("b", 6),
        ]

    def test_yield_already_processed_event_resumes_immediately(self, env):
        done = Event(env).succeed("early")
        env.run()

        def waiter():
            value = yield done
            return (value, env.now)

        proc = env.process(waiter())
        assert env.run(proc) == ("early", 0)

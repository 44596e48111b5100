"""Unit tests for Resource (CPU/mutex) semantics."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture()
def env():
    return Environment()


def hold(resource):
    """Generator: acquire ``resource``, yielding only if it must wait."""
    wait = resource.acquire()
    if wait is not None:
        yield wait


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env)
        assert res.acquire() is None
        assert res.count == 1

    def test_mutex_serialises_holders(self, env):
        res = Resource(env)
        log = []

        def worker(name, hold_s):
            yield from hold(res)
            log.append((name, "in", env.now))
            yield env.timeout(hold_s)
            log.append((name, "out", env.now))
            res.release()

        env.process(worker("a", 3))
        env.process(worker("b", 2))
        env.run()
        assert log == [
            ("a", "in", 0), ("a", "out", 3), ("b", "in", 3), ("b", "out", 5),
        ]

    def test_fifo_granting(self, env):
        res = Resource(env)
        order = []

        def worker(name):
            yield from hold(res)
            order.append(name)
            yield env.timeout(1)
            res.release()

        for name in ["first", "second", "third"]:
            env.process(worker(name))
        env.run()
        assert order == ["first", "second", "third"]

    def test_capacity_two_allows_parallel_holders(self, env):
        res = Resource(env, capacity=2)
        active = []
        peak = []

        def worker():
            yield from hold(res)
            active.append(1)
            peak.append(len(active))
            yield env.timeout(5)
            active.pop()
            res.release()

        for _ in range(4):
            env.process(worker())
        env.run()
        assert max(peak) == 2
        assert env.now == 10  # two batches of two

    def test_release_wakes_waiter(self, env):
        res = Resource(env)
        assert res.acquire() is None
        wait = res.acquire()
        assert not wait.triggered
        res.release()
        assert wait.triggered

    def test_double_release_raises(self, env):
        res = Resource(env)
        assert res.acquire() is None
        res.release()
        with pytest.raises(RuntimeError, match="nobody holds"):
            res.release()
        assert res.count == 0
        # ... and capacity did not grow: the second claim has to wait.
        assert res.acquire() is None
        assert res.acquire() is not None

    def test_counts_reported(self, env):
        res = Resource(env, capacity=1)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.count == 1
        assert res.queued == 2


class TestTakenOnTheSpot:
    """A free slot is taken where it is decided: no event is built and
    nothing goes on the heap; only waiters get an event, fired through
    the heap."""

    def test_free_slot_is_born_processed(self, env):
        res = Resource(env, capacity=2)
        first, second, third = res.acquire(), res.acquire(), res.acquire()
        assert first is None and second is None
        assert not third.triggered
        assert env.peek() == float("inf")
        assert (res.count, res.queued) == (2, 1)

    def test_waiter_is_granted_through_the_heap(self, env):
        res = Resource(env)
        res.acquire()
        waiter = res.acquire()
        res.release()
        assert waiter.triggered and not waiter.processed
        assert res.count == 1  # the slot is the waiter's from the release on
        late = res.acquire()
        assert not late.triggered  # so a same-instant claim queues behind
        env.run()
        assert waiter.processed

    def test_process_continues_without_a_heap_event(self, env):
        res = Resource(env)
        log = []

        def worker():
            yield from hold(res)
            log.append(env.now)
            res.release()

        env.process(worker())
        env.step()  # Initialize alone carries the worker past the claim
        assert log == [0.0]
        assert res.count == 0

    def test_a_process_that_need_not_wait_stays_ahead_of_a_woken_waiter(self, env):
        """The one same-instant order that is *not* promised, pinned so a
        change to it is noticed (docs/architecture.md, "The kernel rule").

        ``releaser`` frees the buffer ``waiter`` queued for, picks up an
        item that is already there, then needs the processor; so does
        ``waiter`` once it has the buffer.  The waiter's wake-up travels
        through the heap while the releaser, who has nothing to wait
        for, keeps running and is at the processor first.  (When every
        hand-off cost a heap event, the releaser's get queued up behind
        that wake-up and the waiter won.)  Each resource on its own is
        still strictly FIFO."""
        buffer, processor, inbox = Resource(env), Resource(env), Store(env)
        inbox.try_put("frame")
        order = []

        def releaser():
            yield from hold(buffer)
            yield env.timeout(1)
            buffer.release()
            yield inbox.get()
            yield from hold(processor)
            order.append("releaser")
            yield env.timeout(1)
            processor.release()

        def waiter():
            yield from hold(buffer)
            yield from hold(processor)
            order.append("waiter")
            processor.release()
            buffer.release()

        env.process(releaser())
        env.process(waiter())
        env.run()
        assert order == ["releaser", "waiter"] and env.now == 2

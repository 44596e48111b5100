"""Unit tests for Resource (CPU/mutex) semantics."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env)
        req = res.request()
        assert req.triggered
        assert res.count == 1

    def test_mutex_serialises_holders(self, env):
        res = Resource(env)
        log = []

        def worker(name, hold):
            with res.request() as req:
                yield req
                log.append((name, "in", env.now))
                yield env.timeout(hold)
                log.append((name, "out", env.now))

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
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for name in ["first", "second", "third"]:
            env.process(worker(name))
        env.run()
        assert order == ["first", "second", "third"]

    def test_capacity_two_allows_parallel_holders(self, env):
        res = Resource(env, capacity=2)
        active = []
        peak = []

        def worker():
            with res.request() as req:
                yield req
                active.append(1)
                peak.append(len(active))
                yield env.timeout(5)
                active.pop()

        for _ in range(4):
            env.process(worker())
        env.run()
        assert max(peak) == 2
        assert env.now == 10  # two batches of two

    def test_release_wakes_waiter(self, env):
        res = Resource(env)
        req1 = res.request()
        req2 = res.request()
        assert req1.triggered and not req2.triggered
        res.release(req1)
        assert req2.triggered

    def test_cancel_waiting_request(self, env):
        res = Resource(env)
        held = res.request()
        waiting = res.request()
        waiting.cancel()
        res.release(held)
        assert not waiting.triggered
        assert res.count == 0
        assert res.queued == 0

    def test_double_release_is_noop(self, env):
        res = Resource(env)
        req = res.request()
        res.release(req)
        res.release(req)  # no error
        assert res.count == 0

    def test_counts_reported(self, env):
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.count == 1
        assert res.queued == 2


class TestTakenOnTheSpot:
    """A free slot is taken where it is decided: the request comes back
    processed and nothing goes on the heap; only waiters use the heap."""

    def test_free_slot_is_born_processed(self, env):
        res = Resource(env, capacity=2)
        first, second, third = res.request(), res.request(), res.request()
        assert first.processed and second.processed
        assert not third.triggered
        assert env.peek() == float("inf")
        assert (res.count, res.queued) == (2, 1)

    def test_waiter_is_granted_through_the_heap(self, env):
        res = Resource(env)
        holder, waiter = res.request(), res.request()
        res.release(holder)
        assert waiter.triggered and not waiter.processed
        assert res.count == 1  # the slot is the waiter's from the release on
        late = res.request()
        assert not late.triggered  # so a same-instant request queues behind
        env.run()
        assert waiter.processed

    def test_process_continues_without_a_heap_event(self, env):
        res = Resource(env)
        log = []

        def worker():
            with res.request() as claim:
                yield claim
                log.append(env.now)

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
            claim = buffer.request()
            yield claim
            yield env.timeout(1)
            buffer.release(claim)
            yield inbox.get()
            with processor.request() as cpu:
                yield cpu
                order.append("releaser")
                yield env.timeout(1)

        def waiter():
            with buffer.request() as claim:
                yield claim
                with processor.request() as cpu:
                    yield cpu
                    order.append("waiter")

        env.process(releaser())
        env.process(waiter())
        env.run()
        assert order == ["releaser", "waiter"] and env.now == 2

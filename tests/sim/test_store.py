"""Unit tests for Store (FIFO queue) semantics."""

import math

import pytest

from repro.sim import EmptySchedule, Environment, Store


@pytest.fixture()
def env():
    return Environment()


class TestStoreBasics:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_then_get_fifo(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        result = {}

        def consumer():
            result["item"] = yield store.get()
            result["time"] = env.now

        def producer():
            yield env.timeout(7)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert result == {"item": "late", "time": 7}

    def test_len_reflects_buffered_items(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2

    def test_bounded_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer():
            yield store.put("one")
            times.append(env.now)
            yield store.put("two")
            times.append(env.now)

        def consumer():
            yield env.timeout(5)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [0, 5]

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False  # dropped, like a full NIC buffer
        env.run()
        assert list(store.items) == ["a"]

    def test_try_put_unbounded_never_drops(self, env):
        store = Store(env)
        assert all(store.try_put(i) for i in range(100))


class TestPredicateGets:
    def test_predicate_selects_matching_item(self, env):
        store = Store(env)
        for item in ["ack:1", "data:2", "ack:3"]:
            store.put(item)
        got = []

        def consumer():
            got.append((yield store.get(lambda i: i.startswith("data"))))

        env.process(consumer())
        env.run()
        assert got == ["data:2"]
        assert list(store.items) == ["ack:1", "ack:3"]

    def test_predicate_get_waits_for_match(self, env):
        store = Store(env)
        store.put("noise")
        result = {}

        def consumer():
            result["item"] = yield store.get(lambda i: i == "signal")
            result["time"] = env.now

        def producer():
            yield env.timeout(3)
            yield store.put("signal")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert result == {"item": "signal", "time": 3}

    def test_cancel_get_withdraws_claim(self, env):
        store = Store(env)
        stale = store.get()
        stale.cancel()
        fresh = store.get()
        store.put("only")
        env.run()
        assert not stale.triggered
        assert fresh.value == "only"

    def test_cancel_satisfied_get_is_noop(self, env):
        store = Store(env)
        store.put("x")
        got = store.get()
        env.run()
        got.cancel()  # already satisfied: no error
        assert got.value == "x"

    def test_two_consumers_split_items(self, env):
        store = Store(env)
        seen = []

        def consumer(name):
            item = yield store.get()
            seen.append((name, item))

        env.process(consumer("c1"))
        env.process(consumer("c2"))
        store.put("a")
        store.put("b")
        env.run()
        assert sorted(seen) == [("c1", "a"), ("c2", "b")]


class TestTakenOnTheSpot:
    """An available item or free room is taken where it is decided: the
    event comes back processed and nothing goes on the heap."""

    def test_get_of_buffered_item_is_born_processed(self, env):
        store = Store(env)
        store.try_put("x")
        got = store.get()
        assert got.processed and got.value == "x"
        assert env.peek() == float("inf")

    def test_put_with_room_is_born_processed(self, env):
        store = Store(env, capacity=1)
        first, second = store.put("a"), store.put("b")
        assert first.processed and not second.triggered
        assert list(store.items) == ["a"]

    def test_try_put_wakes_a_waiting_get_through_the_heap(self, env):
        store = Store(env)
        waiting = store.get()
        assert store.try_put("x")
        assert waiting.triggered and not waiting.processed
        assert len(store) == 0
        env.run()
        assert waiting.value == "x"

    def test_get_that_frees_room_admits_the_queued_put(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert store.get().value == "a"
        assert blocked.triggered and list(store.items) == ["b"]


class TestTimedGet:
    def test_satisfied_at_once_arms_no_timer(self, env):
        store = Store(env)
        store.try_put("x")
        assert store.get(timeout_s=5.0).value == "x"
        assert env.peek() == float("inf")

    def test_fires_with_none_at_the_deadline_and_withdraws(self, env):
        store = Store(env)
        result = {}

        def consumer():
            result["item"] = yield store.get(timeout_s=2.0)
            result["time"] = env.now

        env.process(consumer())
        env.run()
        assert result == {"item": None, "time": 2.0}
        store.try_put("late")  # the expired get must not steal it
        assert list(store.items) == ["late"]

    def test_item_before_the_deadline_wins_and_expiry_does_nothing(self, env):
        store = Store(env)
        got = store.get(timeout_s=2.0)
        env.timeout(1.0).add_callback(lambda _: store.try_put("x"))
        env.run()
        # The withdrawn deadline leaves the schedule: the run ends at the
        # last event that did something.
        assert got.value == "x" and env.now == 1.0
        assert env.peek() == float("inf")

    def test_peek_sees_a_waiting_deadline_and_not_a_withdrawn_one(self, env):
        store = Store(env)
        got = store.get(timeout_s=2.0)
        assert env.peek() == 2.0
        store.try_put("x")
        assert env.peek() == 0.0    # the get's wake-up
        env.step()
        assert got.processed and env.peek() == float("inf")

    def test_step_never_runs_a_withdrawn_deadline(self, env):
        store = Store(env)
        got = store.get(timeout_s=2.0)
        late = env.timeout(3.0)
        store.try_put("x")
        env.step()              # the get's wake-up, at t=0
        env.step()              # the timeout at t=3; nothing at t=2
        assert got.value == "x" and late.processed and env.now == 3.0
        with pytest.raises(EmptySchedule):
            env.step()

    def test_infinite_timeout_with_no_item_waits_forever(self, env):
        store = Store(env)
        got = store.get(timeout_s=math.inf)
        env.run()
        assert not got.triggered and env.now == 0.0

    def test_cancelled_timed_get_never_fires(self, env):
        store = Store(env)
        got = store.get(timeout_s=1.0)
        got.cancel()
        assert env.peek() == float("inf")   # its deadline is withdrawn
        env.run()
        assert not got.triggered and env.now == 0.0

    def test_negative_timeout_rejected_even_if_item_is_buffered(self, env):
        store = Store(env)
        store.try_put("x")
        with pytest.raises(ValueError):
            store.get(timeout_s=-1.0)
        assert list(store.items) == ["x"]

    @pytest.mark.parametrize("arrival_first", [True, False])
    def test_item_arriving_at_the_deadline_is_never_lost(self, env, arrival_first):
        """Arrival and deadline at one instant: whichever the heap
        processes first decides who gets the item, and nobody loses it."""
        store = Store(env)
        arrive = lambda _: store.try_put("x")  # noqa: E731
        if arrival_first:
            env.timeout(1.0).add_callback(arrive)
            got = store.get(timeout_s=1.0)
        else:
            got = store.get(timeout_s=1.0)
            env.timeout(1.0).add_callback(arrive)
        env.run()
        assert env.now == 1.0
        if arrival_first:
            assert got.value == "x" and not store.items
        else:
            assert got.value is None and list(store.items) == ["x"]

"""Property-based tests of the simulation kernel's global invariants."""

import heapq

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store


def acquired(resource):
    """Generator: take a slot of ``resource``, yielding only to wait."""
    wait = resource.acquire()
    if wait is not None:
        yield wait


class TestClockMonotonicity:
    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=40),
    )
    @settings(max_examples=100)
    def test_events_processed_in_time_order(self, delays):
        """However timeouts are created, callbacks fire in nondecreasing
        simulated-time order and the clock never runs backwards."""
        env = Environment()
        fired = []
        for delay in delays:
            env.timeout(delay).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        if delays:
            assert env.now == max(delays)

    @given(
        spec=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.integers(1, 5)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80)
    def test_nested_process_spawning_preserves_order(self, spec):
        """Processes spawning processes at random offsets still yield a
        globally time-ordered execution."""
        env = Environment()
        log = []

        def worker(delay, children):
            yield env.timeout(delay)
            log.append(env.now)
            for _ in range(children - 1):
                env.process(worker(delay / 2 + 0.1, 1))

        for delay, children in spec:
            env.process(worker(delay, children))
        env.run()
        assert log == sorted(log)


class TestResourceInvariants:
    @given(
        jobs=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.01, 2.0)),
            min_size=1,
            max_size=30,
        ),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_holder_count_never_exceeds_capacity(self, jobs, capacity):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        active = [0]
        peak = [0]

        def worker(start, hold):
            yield env.timeout(start)
            yield from acquired(resource)
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1
            resource.release()

        for start, hold in jobs:
            env.process(worker(start, hold))
        env.run()
        assert peak[0] <= capacity
        assert active[0] == 0
        assert resource.count == 0
        assert resource.queued == 0

    @given(
        holds=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutex_total_time_is_sum_of_holds(self, holds):
        """A capacity-1 resource serialises perfectly: the makespan of
        simultaneous arrivals equals the sum of the hold times."""
        env = Environment()
        resource = Resource(env)

        def worker(hold):
            yield from acquired(resource)
            yield env.timeout(hold)
            resource.release()

        for hold in holds:
            env.process(worker(hold))
        env.run()
        assert abs(env.now - sum(holds)) < 1e-9 * max(1.0, sum(holds))


class TestStoreInvariants:
    @given(items=st.lists(st.integers(), max_size=50))
    @settings(max_examples=80)
    def test_fifo_conservation(self, items):
        """Everything put is got, exactly once, in order."""
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            for _ in items:
                got.append((yield store.get()))

        env.process(consumer())
        for item in items:
            store.put(item)
        env.run()
        assert got == items

    @given(
        items=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        capacity=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_store_never_overfills(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        peaks = []

        def producer():
            for item in items:
                yield store.put(item)
                peaks.append(len(store))

        def consumer():
            for _ in items:
                yield env.timeout(0.1)
                yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert max(peaks) <= capacity
        assert len(store) == 0


class TestHeapModel:
    @given(
        delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
    )
    @settings(max_examples=80)
    def test_matches_reference_heap_schedule(self, delays):
        """The kernel's processing order equals a reference heapsort of
        (time, insertion-index) — the canonical DES contract."""
        env = Environment()
        order = []
        for index, delay in enumerate(delays):
            env.timeout(delay, value=index).add_callback(
                lambda e: order.append(e.value)
            )
        env.run()
        reference = [i for _, i in sorted(zip(delays, range(len(delays))))]
        # Stable tie-breaking by insertion order.
        heap = [(d, i) for i, d in enumerate(delays)]
        heapq.heapify(heap)
        reference = []
        while heap:
            reference.append(heapq.heappop(heap)[1])
        assert order == reference


# -- naive models ------------------------------------------------------------
# The oracles below are deliberately list-based and obvious; they model what
# a Resource and a Store *mean*, not how the kernel gets there, so they keep
# checking it whichever hand-offs do or do not travel through the heap.


def fifo_queue_model(jobs, capacity):
    """Grant time of each ``(arrival, hold)`` job at a FIFO queue with
    ``capacity`` servers: jobs are served in (arrival, index) order, each
    by the server that frees up first."""
    free_at = [0.0] * capacity
    grants = {}
    for index in sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i)):
        arrival, hold = jobs[index]
        server = min(range(capacity), key=free_at.__getitem__)
        grants[index] = max(arrival, free_at[server])
        free_at[server] = grants[index] + hold
    return grants


def run_jobs(jobs, capacity):
    """The same jobs on a real Resource: ({job: grant time}, grant order)."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    grants, order = {}, []

    def worker(index, arrival, hold):
        yield env.timeout(arrival)
        yield from acquired(resource)
        grants[index] = env.now
        order.append(index)
        yield env.timeout(hold)
        resource.release()

    for index, (arrival, hold) in enumerate(jobs):
        env.process(worker(index, arrival, hold))
    env.run()
    assert (resource.count, resource.queued) == (0, 0)
    return grants, order


#: Few distinct values, so that arrivals coincide with each other and with
#: releases — the same-instant cases are the ones worth generating.
coarse_times = st.integers(0, 6).map(lambda n: n * 0.5)


class TestResourceAgainstFifoModel:
    @given(
        jobs=st.lists(
            st.tuples(coarse_times | st.floats(0.0, 3.0),
                      coarse_times.map(lambda t: t + 0.5) | st.floats(0.01, 2.0)),
            min_size=1, max_size=25,
        ),
        capacity=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_grant_times_equal_the_model(self, jobs, capacity):
        grants, order = run_jobs(jobs, capacity)
        model = fifo_queue_model(jobs, capacity)
        assert grants == model
        if capacity == 1:
            # One holder at a time: the order processes get in is the
            # order slots were handed out, i.e. the model's FIFO order.
            assert order == sorted(model, key=lambda i: (model[i], jobs[i][0], i))

    @given(
        holds=st.lists(coarse_times.map(lambda t: t + 0.5), min_size=1, max_size=12),
        capacity=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_instant_requests_are_granted_in_request_order(self, holds, capacity):
        """Everybody asks at t=0.  The first ``capacity`` take their slot
        on the spot, the rest are woken through the heap — and no mix of
        the two lets a later request get in front of an earlier one."""
        jobs = [(0.0, hold) for hold in holds]
        grants, order = run_jobs(jobs, capacity)
        assert grants == fifo_queue_model(jobs, capacity)
        assert order == sorted(range(len(jobs)), key=lambda i: (grants[i], i))
        assert [grants[i] for i in range(len(jobs))] == sorted(grants.values())


def hold_granted(env, resource, born_processed):
    """Hold ``resource``'s one slot, taken free on the spot or handed
    over by a release after queueing behind a holder."""
    if born_processed:
        assert resource.acquire() is None
        return
    assert resource.acquire() is None  # the blocker
    wait = resource.acquire()
    assert not wait.triggered
    resource.release()
    env.run()
    assert wait.processed


@pytest.mark.parametrize("born_processed", [True, False],
                         ids=["took_free_slot", "queued_then_granted"])
class TestGrantedRequestsAreAlike:
    """However a holder came to hold its slot, it gives it back alike."""

    def test_release_hands_the_slot_to_the_next_waiter(self, born_processed):
        env = Environment()
        resource = Resource(env)
        hold_granted(env, resource, born_processed)
        waiter = resource.acquire()
        resource.release()
        assert waiter.triggered and (resource.count, resource.queued) == (1, 0)

    def test_double_release_raises(self, born_processed):
        env = Environment()
        resource = Resource(env)
        hold_granted(env, resource, born_processed)
        resource.release()
        with pytest.raises(RuntimeError, match="nobody holds"):
            resource.release()
        # Capacity did not grow: with its one slot taken, a claim waits.
        assert resource.acquire() is None
        assert not resource.acquire().triggered
        assert (resource.count, resource.queued) == (1, 1)

    def test_release_frees_the_slot(self, born_processed):
        env = Environment()
        resource = Resource(env)
        hold_granted(env, resource, born_processed)
        resource.release()
        assert resource.count == 0
        assert resource.acquire() is None


# A Store script is one operation per simulated second:
#   ("put", None)            offer the next fresh item (a running integer)
#   ("get", colour, timeout) get an item of ``colour`` (item % 3; None = any),
#                            giving up after ``timeout`` seconds (None = never)
#   ("cancel", k)            cancel the k-th get made so far, if there is one
# Whole and half-second timeouts make deadlines fall both between operations
# and exactly on them; ``ops_first`` picks which of the two the heap sees
# first at such an instant, so both orders are generated and modelled.
store_ops = st.one_of(
    st.just(("put", None)),
    st.tuples(st.just("get"), st.none() | st.integers(0, 2),
              st.none() | st.integers(1, 6).map(lambda n: n * 0.5)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
)


def store_model(script, capacity, ops_first):
    """List model of a Store: ({get: (time, value)}, items left over)."""
    items, waiting, fired = [], [], {}
    gets = []  # (colour, deadline) per get made, in order
    fresh = iter(range(len(script)))

    def settle(now):
        # Oldest waiting get first; each takes the oldest item it accepts.
        for get in list(waiting):
            colour = gets[get][0]
            for item in items:
                if colour is None or item % 3 == colour:
                    items.remove(item)
                    waiting.remove(get)
                    fired[get] = (now, item)
                    break

    def apply(op, now):
        if op[0] == "put":
            item = next(fresh)
            if capacity is None or len(items) < capacity:
                items.append(item)
        elif op[0] == "get":
            gets.append((op[1], None if op[2] is None else now + op[2]))
            waiting.append(len(gets) - 1)
        elif gets:
            get = op[1] % len(gets)
            if get in waiting:
                waiting.remove(get)
        settle(now)

    for tick in range(2 * len(script) + 8):
        now = tick / 2
        op = script[tick // 2] if tick % 2 == 0 and tick < 2 * len(script) else None
        if op is not None and ops_first:
            apply(op, now)
        for get in [g for g in waiting if gets[g][1] == now]:
            waiting.remove(get)
            fired[get] = (now, None)
        if op is not None and not ops_first:
            apply(op, now)
    return fired, items


def run_store_script(script, capacity, ops_first):
    """The same script on a real Store; also counts firings per get."""
    env = Environment()
    store = Store(env) if capacity is None else Store(env, capacity=capacity)
    gets, fired, firings = [], {}, []
    fresh = iter(range(len(script)))

    def apply(op):
        if op[0] == "put":
            store.try_put(next(fresh))
        elif op[0] == "get":
            index = len(gets)
            colour = op[1]
            predicate = None if colour is None else (lambda item: item % 3 == colour)
            gets.append(store.get(predicate, timeout_s=op[2]))

            def on_fire(event, index=index):
                firings.append(index)
                fired[index] = (env.now, event.value)

            gets[index].add_callback(on_fire)
        elif gets:
            gets[op[1] % len(gets)].cancel()

    if ops_first:
        # Scheduled before any deadline exists: at a shared instant the
        # operation is processed first.
        for second, op in enumerate(script):
            env.timeout(float(second)).add_callback(lambda _, op=op: apply(op))
    else:
        # One sleep at a time: at a shared instant the deadline, armed
        # earlier, is processed first.
        def driver():
            for second, op in enumerate(script):
                if second:
                    yield env.timeout(1.0)
                apply(op)

        env.process(driver())
    env.run()
    return fired, list(store.items), firings


class TestStoreAgainstListModel:
    @given(
        script=st.lists(store_ops, min_size=1, max_size=30),
        capacity=st.none() | st.integers(1, 3),
        ops_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_get_and_every_item_ends_up_where_the_model_says(
        self, script, capacity, ops_first
    ):
        fired, left, firings = run_store_script(script, capacity, ops_first)
        model_fired, model_left = store_model(script, capacity, ops_first)
        # Who got what and when — which also says that no later get
        # overtook an earlier one it could have matched, and that an item
        # arriving on a deadline went to exactly one place.
        assert fired == model_fired
        assert left == model_left
        # No get fires twice (a timed one: item or None, never both).
        assert sorted(firings) == sorted(set(firings))
        # Conservation: every accepted item was delivered exactly once or
        # is still buffered — never lost, never duplicated.
        delivered = [value for _, value in fired.values() if value is not None]
        assert len(delivered) == len(set(delivered))
        assert not set(delivered) & set(left)
        accepted = sum(op[0] == "put" for op in script)
        if capacity is None:
            assert sorted(delivered + left) == list(range(accepted))

    @given(script=st.lists(store_ops, min_size=1, max_size=30),
           ops_first=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_an_uncancelled_timed_get_fires_exactly_once(self, script, ops_first):
        fired, _left, firings = run_store_script(script, None, ops_first)
        gets, cancelled = [], set()
        for op in script:
            if op[0] == "get":
                gets.append(op)
            elif op[0] == "cancel" and gets:
                cancelled.add(op[1] % len(gets))
        for index, (_get, _colour, timeout) in enumerate(gets):
            if timeout is not None and index not in cancelled:
                assert firings.count(index) == 1
                assert index in fired

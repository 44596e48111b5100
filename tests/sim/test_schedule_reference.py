"""The kernel's schedule against a naive reference.

The environment keeps two heaps — events, and the deadlines of timed
gets — and a get that is satisfied or cancelled withdraws its deadline,
which the deadline heap drops lazily.  A store hands a new item straight
to the oldest queued get it matches.  Neither shortcut may change what
a program sees.  The reference below keeps *one* list sorted by
``(time, priority, eid)``, deletes a withdrawn deadline from it on the
spot, and settles a store by offering every buffered item to every
queued get until nothing moves.  Random small programs — tied timeouts,
chains of waits, timed gets whose item comes before, at or after the
deadline or never, cancelled gets, bounded stores, predicate gets and
contended resources — must log the same ``(time, who, value)`` sequence
on both, take the same steps and end at the same clock, and no
withdrawn deadline may run.
"""

import bisect
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store, Timeout


class NaiveEnvironment(Environment):
    """One list sorted by (time, priority, eid); nothing lazy."""

    def __init__(self):
        super().__init__()
        self.pending = []
        self.eids = itertools.count()

    def schedule(self, event, delay=0.0, priority=False):
        entry = (self.now + delay, 0 if priority else 1, next(self.eids), event)
        bisect.insort(self.pending, entry)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def _arm(self, delay, callback):
        expiry = Timeout(self, delay)
        expiry.callbacks = [callback]
        return expiry

    def _withdraw(self, expiry):
        self.pending = [e for e in self.pending if e[3] is not expiry]

    def peek(self):
        return self.pending[0][0] if self.pending else math.inf

    def step(self):
        self.now, _, _, event = self.pending.pop(0)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def run(self, until=None):
        while self.pending:
            self.step()


class NaiveStore(Store):
    """Buffers every item, then settles the whole store."""

    def _accept(self, item):
        self.items.append(item)
        self._admit_puts()

    def _admit_puts(self):
        moved = True
        while moved:
            moved = False
            while self._put_queue and len(self.items) < self._capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                moved = True
            for get in list(self._get_queue):
                match = [item for item in self.items
                         if get.predicate is None or get.predicate(item)]
                if match:
                    self.items.remove(match[0])
                    self._get_queue.remove(get)
                    get.succeed(match[0])
                    if get._expiry is not None:
                        self.env._withdraw(get._expiry)
                    moved = True


class AuditedEnvironment(Environment):
    """The real kernel, noting any deadline that runs after withdrawal."""

    def __init__(self):
        super().__init__()
        self.withdrawn, self.ran_withdrawn = set(), []

    def _arm(self, delay, callback):
        def audited(expiry):
            if expiry in self.withdrawn:
                self.ran_withdrawn.append(expiry)
            callback(expiry)
        return super()._arm(delay, audited)

    def _withdraw(self, expiry):
        self.withdrawn.add(expiry)
        super()._withdraw(expiry)


def _even(item):
    return item % 2 == 0


def play(env, program, store_cls):
    """Set ``program`` up on ``env``; returns the log it will fill."""
    log = []
    stores = [store_cls(env), store_cls(env, capacity=1)]
    resources = [Resource(env), Resource(env, capacity=2)]

    def note(*what):
        log.append((env.now,) + what)

    def chain(n, delays):
        for delay in delays:
            yield env.timeout(delay)
            note("chain", n)

    def get(n, store, start, deadline, even, cancel_at):
        yield env.timeout(start)
        request = stores[store].get(_even if even else None, deadline)
        if cancel_at is not None:
            env.timeout(cancel_at).add_callback(lambda _: request.cancel())
        note("get", n, (yield request))

    def put(n, store, start, item):
        yield env.timeout(start)
        yield stores[store].put(item)
        note("put", n, item)

    def hold(n, resource, start, duration):
        yield env.timeout(start)
        wait = resources[resource].acquire()
        if wait is not None:
            yield wait
        note("granted", n)
        yield env.timeout(duration)
        resources[resource].release()

    pieces = {"chain": chain, "get": get, "put": put, "hold": hold}
    for n, (kind, *args) in enumerate(program):
        if kind == "timeout":
            env.timeout(*args).add_callback(lambda _, n=n: note("timeout", n))
        else:
            env.process(pieces[kind](n, *args))
    return log


TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
STORE = st.integers(0, 1)
PIECE = st.one_of(
    st.tuples(st.just("timeout"), TIMES),
    st.tuples(st.just("chain"), st.lists(TIMES, min_size=1, max_size=3)),
    st.tuples(st.just("get"), STORE, TIMES,
              st.one_of(st.none(), TIMES, st.just(math.inf)), st.booleans(),
              st.one_of(st.none(), TIMES)),
    st.tuples(st.just("put"), STORE, TIMES, st.integers(0, 5)),
    st.tuples(st.just("hold"), st.integers(0, 1), TIMES, TIMES),
)


def drive(env, driver):
    """Run ``env`` to exhaustion; with ``"step"``, one event at a time,
    returning the time of each (a withdrawn deadline is no step)."""
    if driver == "run":
        env.run()
        return []
    times = []
    while env.peek() < math.inf:
        when = env.peek()
        env.step()
        assert env.now == when
        times.append(when)
    return times


@settings(max_examples=400, deadline=None)
@given(program=st.lists(PIECE, max_size=12),
       driver=st.sampled_from(["run", "step"]))
def test_the_two_heaps_run_as_one_sorted_list(program, driver):
    env = AuditedEnvironment()
    log = play(env, program, Store)
    steps = drive(env, driver)
    reference = NaiveEnvironment()
    expected = play(reference, program, NaiveStore)
    assert steps == drive(reference, driver)
    assert log == expected
    assert env.now == reference.now
    assert env.ran_withdrawn == []
    assert env.peek() == math.inf

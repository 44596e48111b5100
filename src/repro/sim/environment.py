"""The simulation environment: clock, event heap, and run loop.

:class:`Environment` is the single object protocol engines, hosts and
benches share.  It keeps simulated time as a float (seconds throughout
this repository) and pops events in ``(time, priority, sequence)`` order,
so same-time events process in FIFO order of scheduling, with urgent
(priority) events — process initialisation — first.

Deadlines that usually never fire — the expiry of a timed get — wait on
a heap of their own, numbered from the same eid counter.  The run loop
pops whichever head comes first in ``(time, priority, eid)`` order, so
the two heaps run exactly as one would.  A deadline nobody waits on any
more is withdrawn: it never fires and never moves the clock, and the
deadline heap drops it lazily (its head is always live).

This module is the kernel's hottest code: :meth:`Environment.run` inlines
the pop/dispatch cycle of :meth:`Environment.step` with the heaps bound
to locals, and :meth:`Environment.timeout` builds the :class:`Timeout`
with ``__new__`` plus direct stores, skipping ``type.__call__``.  The
clock ``now`` is a plain attribute the run loop writes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import inf
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .events import _NO_CALLBACKS, AllOf, Event, StopSimulation, Timeout
from .processes import Process

__all__ = ["Environment", "EmptySchedule"]

#: Priority of ordinary events.
_NORMAL = 1
#: Priority of urgent events (process init).
_URGENT = 0
#: Sequence number of a timed run's stop event: below every real eid, so
#: the stop sorts ahead of same-time urgent events.  A run disarms its
#: stop however it ends, so two never meet in the heap.
_STOP_EID = -1


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Discrete-event execution environment; the simulated clock
    starts at 0."""

    # ``__dict__`` stays available: one environment exists per run and
    # substrate layers (e.g. the V-kernel registry) annotate it; the
    # named slots still win attribute resolution on the hot paths.
    __slots__ = (
        "now", "_queue", "_deadlines", "_withdrawn", "_next_eid", "__dict__",
    )

    def __init__(self):
        #: Current simulated time in seconds.
        self.now = 0.0
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._deadlines: List[Tuple[float, int, int, Timeout]] = []
        self._withdrawn = 0     # withdrawn entries still in _deadlines
        self._next_eid = count().__next__

    # -- event factories -------------------------------------------------------
    def timeout(
        self,
        delay: float,
        value: Any = None,
        # Underscored defaults bind module globals to fast locals; this
        # is the kernel's hottest allocation site. Callers pass at most
        # (delay, value).
        _new=Timeout.__new__,
        _cls=Timeout,
        _no_callbacks=_NO_CALLBACKS,
        _normal=_NORMAL,
        _push=heappush,
        _inf=inf,
    ) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        Equivalent to ``Timeout(self, delay, value)`` but built with
        direct stores, skipping ``type.__call__``.
        """
        if not delay >= 0 or delay == _inf:  # also refuses NaN
            raise ValueError(f"delay {delay!r} is not a finite time >= 0")
        event = _new(_cls)
        event.env = self
        event.callbacks = _no_callbacks
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        _push(self._queue, (self.now + delay, _normal, self._next_eid(), event))
        return event

    def _arm(self, delay: float, callback, _new=Timeout.__new__,
             _cls=Timeout) -> Timeout:
        """A deadline: ``callback(expiry)`` runs ``delay`` seconds from
        now unless :meth:`_withdraw` takes the returned expiry back
        first.  Built like :meth:`timeout`, on the deadline heap."""
        expiry = _new(_cls)
        expiry.env = self
        expiry.callbacks = [callback]
        expiry._value = None
        expiry._ok = True
        expiry._defused = False
        expiry._delay = delay
        heappush(self._deadlines,
                 (self.now + delay, _NORMAL, self._next_eid(), expiry))
        return expiry

    def _withdraw(self, expiry: Timeout) -> None:
        """Take back a pending deadline of :meth:`_arm`: it will neither
        run nor move the clock.  The heap is rebuilt without its dead
        entries once they are more than half of it."""
        expiry.callbacks = None
        self._withdrawn += 1
        deadlines = self._deadlines
        if self._withdrawn == len(deadlines):
            deadlines.clear()   # the common case: one receiver waiting
            self._withdrawn = 0
        elif 2 * self._withdrawn > len(deadlines):
            deadlines[:] = [entry for entry in deadlines
                            if entry[3].callbacks is not None]
            heapify(deadlines)
            self._withdrawn = 0
        else:
            self._drop_withdrawn()

    def _drop_withdrawn(self) -> None:
        """Pop withdrawn deadlines off the head, so the head is live."""
        deadlines = self._deadlines
        while deadlines and deadlines[0][3].callbacks is None:
            heappop(deadlines)
            self._withdrawn -= 1

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling / execution ------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        """Place a triggered event on the heap ``delay`` seconds from now."""
        heappush(
            self._queue,
            (self.now + delay, _URGENT if priority else _NORMAL,
             self._next_eid(), event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return min([heap[0][0] for heap in (self._queue, self._deadlines)
                    if heap], default=inf)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        queue, deadlines = self._queue, self._deadlines
        if deadlines and not (queue and queue[0] < deadlines[0]):
            when, _, _, event = heappop(deadlines)
            self._drop_withdrawn()
        elif queue:
            when, _, _, event = heappop(queue)
        else:
            raise EmptySchedule()
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of silently dropping.
            if isinstance(event._value, BaseException):
                raise event._value
            raise RuntimeError(f"event {event!r} failed with {event._value!r}")

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an Event, a time, or exhaustion).

        - ``until is None``: run until no events remain.
        - ``until`` is an :class:`Event`: run until it fires and return its
          value (the common way to run one transfer to completion).
        - ``until`` is a number: run until the clock reaches it.
        """
        stop: Optional[Event] = None
        queue, deadlines = self._queue, self._deadlines
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: nothing to run.
                    return stop.value
                stop.add_callback(self._stop_callback)
            else:
                at = float(until)
                if not at >= self.now:  # also refuses NaN
                    raise ValueError(f"until={at} is in the past (now={self.now})")
                stop = Event(self)
                stop._value = None
                stop.callbacks = [self._stop_callback]
                stop_entry = (at, _URGENT, _STOP_EID, stop)
                heappush(queue, stop_entry)

        # Inlined step(): same pop/dispatch/failure-surface sequence, with
        # the heaps and pop bound to locals for the duration of the run.
        pop = heappop
        try:
            while True:
                if deadlines and not (queue and queue[0] < deadlines[0]):
                    when, _, _, event = pop(deadlines)
                    self._drop_withdrawn()
                else:
                    try:
                        when, _, _, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule() from None
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    if isinstance(event._value, BaseException):
                        raise event._value
                    raise RuntimeError(
                        f"event {event!r} failed with {event._value!r}"
                    )
        except StopSimulation as signal:
            return signal.args[0] if signal.args else None
        except EmptySchedule:
            if stop is not None and isinstance(until, Event) and not stop.triggered:
                raise RuntimeError(
                    "run(until=event) exhausted the schedule before the event fired"
                ) from None
            return None
        finally:
            # A stop that has not fired is disarmed: it must not end a later run.
            if stop is not None and stop.callbacks is not None:
                if stop is until:
                    stop.callbacks.remove(self._stop_callback)
                else:
                    queue.remove(stop_entry)
                    heapify(queue)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Propagate failures of the until-event to the caller.
        if isinstance(event._value, BaseException):
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)

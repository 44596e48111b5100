"""The simulation environment: clock, event heap, and run loop.

:class:`Environment` is the single object protocol engines, hosts and
benches share.  It keeps simulated time as a float (seconds throughout
this repository) and pops events in ``(time, priority, sequence)`` order,
so same-time events process in FIFO order of scheduling, with urgent
(priority) events — process initialisation — first.

This module is the kernel's hottest code: :meth:`Environment.run` inlines
the pop/dispatch cycle of :meth:`Environment.step` with heap and clock
bound to locals, and :meth:`Environment.timeout` builds the
:class:`Timeout` with ``__new__`` plus direct stores, skipping
``type.__call__``.  Both paths preserve the ``(time, priority, eid,
event)`` tuple discipline exactly — the heap order, and therefore every
trace and golden in the repository, is unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .events import _NO_CALLBACKS, AllOf, Event, StopSimulation, Timeout
from .processes import Process

__all__ = ["Environment", "EmptySchedule"]

#: Priority of ordinary events.
_NORMAL = 1
#: Priority of urgent events (process init).
_URGENT = 0


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Discrete-event execution environment; the simulated clock
    starts at 0."""

    # ``__dict__`` stays available: one environment exists per run and
    # substrate layers (e.g. the V-kernel registry) annotate it; the
    # named slots still win attribute resolution on the hot paths.
    __slots__ = (
        "_now", "_queue", "_eid", "_next_eid", "_stop_eid", "__dict__",
    )

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._next_eid = self._eid.__next__
        # Sentinel sequence numbers for the stop events of timed
        # ``run(until=<number>)`` calls.  They start far below any real
        # eid so a stop event still sorts ahead of same-time normal
        # events, and each timed run draws a fresh value so a stale stop
        # event left by an aborted run can never collide (tuple
        # comparison would otherwise fall through to comparing Events).
        self._stop_eid = count(-(2**63))

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
    ) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        Equivalent to ``Timeout(self, delay, value)`` but built with
        direct stores, skipping ``type.__call__``.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = _new(_cls)
        event.env = self
        event.callbacks = _no_callbacks
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        _push(self._queue, (self._now + delay, _normal, self._next_eid(), event))
        return event

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
            (self._now + delay, _URGENT if priority else _NORMAL,
             self._next_eid(), event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        try:
            when, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
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
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: nothing to run.
                    return stop.value
                stop.add_callback(self._stop_callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._value = None
                stop.callbacks = [self._stop_callback]
                heappush(self._queue, (at, _URGENT, next(self._stop_eid), stop))

        # Inlined step(): same pop/dispatch/failure-surface sequence, with
        # the heap and pop bound to locals for the duration of the run.
        queue = self._queue
        pop = heappop
        try:
            while True:
                try:
                    when, _, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self._now = when
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

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Propagate failures of the until-event to the caller.
        if isinstance(event._value, BaseException):
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)

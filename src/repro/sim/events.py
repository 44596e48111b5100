"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic event-scheduling design (as popularised by
SimPy): an :class:`Event` is a one-shot occurrence with a value, a list of
callbacks, and a position in the environment's event heap.  Processes
(:mod:`repro.sim.processes`) suspend themselves on events by ``yield``-ing
them; the environment resumes the process when the event fires.

Events move through three states:

``pending``
    Created but not yet triggered.  ``triggered`` and ``processed`` are
    both ``False``.
``triggered``
    A value (or an exception) has been attached and the event sits in the
    environment's heap awaiting its turn.
``processed``
    The environment has popped the event and run its callbacks.

This module is deliberately free of any networking vocabulary so it can be
reused for every substrate in the repository (hosts, interfaces, kernels,
Monte Carlo drivers).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .environment import Environment

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "StopSimulation",
    "PENDING",
]


class _PendingType:
    """Sentinel for "no value attached yet"; ``None`` is a valid value."""

    _instance: Optional["_PendingType"] = None

    def __new__(cls) -> "_PendingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()

#: Shared immutable "no callbacks registered yet" marker.  Freshly created
#: events point at this singleton instead of allocating a list each —
#: the common case for timeouts in a busy run loop is that nothing ever
#: waits on them, so the list allocation is pure overhead.  The first
#: :meth:`Event.add_callback` swaps in a real list.
_NO_CALLBACKS: tuple = ()


class StopSimulation(Exception):
    """Raised internally by :meth:`Environment.run` to end a run early."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.environment.Environment`.

    ``callbacks`` is the empty-tuple singleton until someone registers a
    callback (then a list), and ``None`` once processed — all three states
    iterate correctly in the environment's run loop.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value has been attached (event is or was scheduled)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded; False if it carries an exception."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has no value yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value attached at trigger time (or the failure exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has no value yet")
        return self._value

    # -- state transitions -------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them; a
        failure nobody waits for crashes the run.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- callback API -------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately,
        which lets processes wait on events that fired in the past.
        """
        callbacks = self.callbacks
        if callbacks is None:
            callback(self)
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            # First waiter: promote the shared empty tuple to a real list.
            self.callbacks = [callback]


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Timeouts are triggered immediately on construction (their firing time
    is fixed), so they cannot be succeeded or failed manually.

    Attributes are stored directly (no ``super().__init__`` chain): this
    is the hottest allocation in the kernel, and
    :meth:`Environment.timeout` additionally bypasses ``type.__call__``
    via ``__new__``, so construction must stay a flat sequence of stores.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0 <= delay < math.inf:  # also refuses NaN
            raise ValueError(f"delay {delay!r} is not a finite time >= 0")
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self._delay!r}>"


class AllOf(Event):
    """Composite event that fires when every child event has fired, or
    immediately if they all already have.

    Its value is a dict mapping each child event to its value, in the
    order given.  If any child fails, it fails with the child's
    exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events: List[Event] = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events of a condition must share one environment")
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> dict:
        # Only *processed* events count as "fired" from the condition's
        # point of view: a Timeout is "triggered" from construction (its
        # firing time is fixed) but has not happened until processed.
        return {event: event.value for event in self._events if event.processed}

    def _check(self, event: Event) -> None:
        if not event.ok:
            event._defused = True  # handled here: the condition carries it
        if self.triggered:
            return
        self._count += 1
        if not event.ok:
            self.fail(event.value)
        elif self._count >= len(self._events):
            self.succeed(self._collect())

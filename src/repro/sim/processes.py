"""Generator-based processes for the simulation kernel.

A process is a Python generator that ``yield``-s :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the yielded event fires;
the event's value becomes the result of the ``yield`` expression.  When the
generator returns, the process — which is itself an event — fires with the
generator's return value, so processes can wait on each other:

    def child(env):
        yield env.timeout(5)
        return "done"

    def parent(env):
        result = yield env.process(child(env))   # resumes after 5 units
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Process", "Initialize"]


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._value = None
        self.callbacks = [process._bound_resume]
        env.schedule(self, priority=True)


class Process(Event):
    """An event wrapper driving a generator to completion.

    The process fires when the generator returns (value = return value) or
    fails when the generator raises (value = the exception).
    """

    __slots__ = ("_generator", "_bound_resume")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Accessing ``self._resume`` builds a fresh bound method each
        # time; the resume loop runs once per yield, so cache it.
        self._bound_resume = self._resume
        Initialize(env, self)  # schedules the first resume

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self.fail(
                    TypeError(
                        f"process yielded {next_event!r}; processes must yield Events"
                    )
                )
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending or scheduled: wait for it.  This is
                # add_callback inlined — one extra yield-resume cycle per
                # simulated frame makes the method call worth removing.
                if callbacks.__class__ is list:
                    callbacks.append(self._bound_resume)
                else:
                    next_event.callbacks = [self._bound_resume]
                return

            # Event already processed — loop and deliver its value now.
            event = next_event

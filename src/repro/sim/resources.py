"""Shared resources with waiting queues.

:class:`Resource` models a mutual-exclusion (or counting) resource such as
a host CPU or a network-interface transmit buffer: a process *acquires* a
slot, holds it while it works, and *releases* it for the next waiter.
Waiters are served FIFO, which matches the deterministic behaviour the
protocol timing analysis needs.

The kernel rule (docs/architecture.md): a free slot is taken where it
is decided, and only waiting goes through the heap.  A claim is a count,
not an object: :meth:`Resource.acquire` on a free slot takes it and
returns ``None``, and the caller goes on without yielding, so neither
the heap nor its own process is touched.  Only a caller that has to
wait gets an :class:`~repro.sim.events.Event` to yield on;
:meth:`Resource.release` hands the slot straight to the oldest waiter
and fires its event through the heap::

    wait = host.cpu.acquire()
    if wait is not None:
        yield wait                     # wait until the CPU is ours
    yield env.timeout(copy_time)       # do the copy
    host.cpu.release()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Resource"]


class Resource:
    """A counting resource with FIFO granting.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous holders (1 = a mutex, the common case for a
        CPU or single-buffered interface).
    """

    __slots__ = ("env", "_capacity", "_free", "_waiters")

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._free = capacity
        # A list, not a deque: most resources never queue anybody, and an
        # empty deque takes 760 bytes where an empty list takes 56.
        self._waiters: List[Event] = []

    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._capacity - self._free

    @property
    def queued(self) -> int:
        """Number of acquirers still waiting."""
        return len(self._waiters)

    def acquire(self) -> Optional[Event]:
        """Take a slot: ``None`` if one was free (it is now the caller's),
        else an event that fires once a release hands one over."""
        if self._free:
            # Waiters are handed the slot the moment it is released, so a
            # free slot means nobody waits: nobody is overtaken.
            self._free -= 1
            return None
        wait = Event(self.env)
        self._waiters.append(wait)
        return wait

    def release(self) -> None:
        """Give a held slot back: to the oldest waiter if there is one
        (it holds the slot from this instant on), else to the free pool."""
        if self._waiters:
            self._waiters.pop(0).succeed()
        elif self._free < self._capacity:
            self._free += 1
        else:
            raise RuntimeError("release() of a resource nobody holds")

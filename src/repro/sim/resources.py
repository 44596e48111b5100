"""Shared resources with waiting queues.

:class:`Resource` models a mutual-exclusion (or counting) resource such as
a host CPU or a network-interface transmit buffer: processes *request* it,
hold it while they work, and *release* it for the next waiter.  Requests
queue FIFO, which matches the deterministic behaviour the protocol timing
analysis needs.

A request for a free slot takes it on the spot: it is returned already
granted and processed, so ``yield claim`` continues without a trip
through the event heap.  Only a request that has to wait is woken through
the heap, in FIFO order, when a holder releases.

The context-manager style mirrors SimPy so code reads naturally::

    with host.cpu.request() as req:
        yield req                      # wait until the CPU is ours
        yield env.timeout(copy_time)   # do the copy
    # released automatically
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Resource", "Request"]


class Request(Event):
    """A claim on a :class:`Resource`; fires when granted.

    Born granted and processed when a slot is free, queued otherwise.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if len(resource._holders) < resource._capacity:
            # Waiters are granted the moment a slot frees up, so a free
            # slot means an empty queue: nobody is overtaken.
            resource._holders.append(self)
            self._value = None
            self.callbacks = None
        else:
            resource._queue.append(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw from the queue if not."""
        self.resource.release(self)


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

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._queue: List[Request] = []
        self._holders: List[Request] = []

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    @property
    def queued(self) -> int:
        """Number of requests still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim the resource; the returned event fires when granted
        (it is already processed if a slot was free)."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a granted slot (or withdraw a waiting request)."""
        if request in self._holders:
            self._holders.remove(request)
            self._grant()
        elif request in self._queue:
            self._queue.remove(request)
        # Releasing an already-released request is a no-op, which makes the
        # context-manager exit safe after an explicit release.

    def _grant(self) -> None:
        while self._queue and len(self._holders) < self._capacity:
            request = self._queue.pop(0)
            self._holders.append(request)
            request.succeed()

"""FIFO stores for passing items between processes.

A :class:`Store` is an unbounded-or-bounded queue of arbitrary items with
event-returning ``put`` and ``get`` operations.  Network interfaces use
stores as their receive queues: the medium ``put``-s delivered frames, the
receiving protocol engine ``get``-s them (paying the copy-out cost after
the get, which is how the receive-side copy is modelled).

Like a free :class:`~repro.sim.resources.Resource` slot, an available
item or free room is taken on the spot: a ``get`` that finds a matching
item, or a ``put`` that finds room, is returned already processed, so
``yield`` on it continues without a trip through the event heap.  Only
an operation that has to wait is woken through the heap.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Store", "StorePut", "StoreGet"]


class StorePut(Event):
    """Insertion into a :class:`Store`; fires when accepted.

    Born processed when the store has room, queued otherwise.
    """

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        if len(store.items) < store._capacity:
            # Queued puts are accepted the moment room appears, so room
            # means an empty put queue: nobody is overtaken.
            self._value = None
            self.callbacks = None
            store._accept(item)
        else:
            store._put_queue.append(self)


class StoreGet(Event):
    """Removal from a :class:`Store`; fires with the item.

    Born processed when a matching item is buffered, queued otherwise.
    With ``timeout_s`` the get is *timed*: if it is still waiting that
    many seconds later it is withdrawn and fires with ``None``.  An item
    that arrives at the very instant of the deadline is never lost — it
    goes to this get if its arrival is processed first, and stays
    buffered for the next get if the deadline is.
    """

    __slots__ = ("predicate", "_store")

    def __init__(
        self,
        store: "Store",
        predicate: Optional[Callable[[Any], bool]] = None,
        timeout_s: Optional[float] = None,
    ):
        if timeout_s is not None and not timeout_s >= 0:  # also refuses NaN
            raise ValueError(f"negative timeout {timeout_s!r}")
        super().__init__(store.env)
        self.predicate = predicate
        self._store = store
        # Gets queued earlier found no match when the store last changed,
        # so taking an item here overtakes nobody.
        item = store._match(self)
        if item is not _NO_MATCH:
            self._value = item
            self.callbacks = None
            if store._put_queue:
                store._dispatch()
        else:
            store._get_queue.append(self)
            if timeout_s is not None:
                store.env.timeout(timeout_s).callbacks = [self._expire]

    def cancel(self) -> None:
        """Withdraw this get if it has not been satisfied yet, so that a
        get nobody waits on any more does not steal a later item."""
        self._withdraw()

    def _withdraw(self) -> bool:
        """Leave the queue; False if the get was not waiting any more."""
        queue = self._store._get_queue
        if self._value is not PENDING or self not in queue:
            return False
        queue.remove(self)
        return True

    def _expire(self, _expiry: Event) -> None:
        """Deadline of a timed get: a get that is still waiting is
        withdrawn and fires with ``None``; a satisfied (or cancelled) one
        is left alone."""
        if self._withdraw():
            self.succeed(None)


class Store:
    """FIFO item queue with optional capacity.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of buffered items; ``math.inf`` (default) for an
        unbounded queue.  A single-buffered 3-Com-style receive interface
        is a ``Store(capacity=1)``.
    """

    def __init__(self, env: "Environment", capacity: float = math.inf):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event fires once there is room (it is
        already processed if there was)."""
        return StorePut(self, item)

    def get(
        self,
        predicate: Optional[Callable[[Any], bool]] = None,
        timeout_s: Optional[float] = None,
    ) -> StoreGet:
        """Remove the oldest item (matching ``predicate``, if given); with
        ``timeout_s``, fire with ``None`` if none arrived in time — so a
        timed get suits stores that never hold ``None``."""
        return StoreGet(self, predicate, timeout_s)

    def try_put(self, item: Any) -> bool:
        """Non-blocking insert: True if accepted, False if full.

        This models a lossy hardware buffer — a frame arriving at a full
        single-buffered interface is simply dropped on the floor.
        """
        if len(self.items) >= self._capacity:
            return False
        self._accept(item)
        return True

    # -- internal ----------------------------------------------------------
    def _accept(self, item: Any) -> None:
        """Buffer ``item`` (the caller checked for room) and offer it to
        the waiting gets."""
        self.items.append(item)
        if self._get_queue:
            self._dispatch()

    def _dispatch(self) -> None:
        gets = self._get_queue
        progress = True
        while progress:
            progress = False
            # Accept puts while there is room.
            while self._put_queue and len(self.items) < self._capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy gets while items are available, oldest first, in
            # place: the common case is one receiver waiting.
            index = 0
            while index < len(gets):
                item = self._match(gets[index])
                if item is _NO_MATCH:
                    index += 1
                else:
                    gets.pop(index).succeed(item)
                    progress = True

    def _match(self, get: StoreGet) -> Any:
        if not self.items:
            return _NO_MATCH
        if get.predicate is None:
            return self.items.popleft()
        for index, item in enumerate(self.items):
            if get.predicate(item):
                del self.items[index]
                return item
        return _NO_MATCH


class _NoMatch:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no-match>"


_NO_MATCH = _NoMatch()

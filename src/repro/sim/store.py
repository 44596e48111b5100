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

from .events import Event

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
    many seconds later it is withdrawn and fires with ``None``
    (``math.inf`` sets no deadline).  An item that arrives at the very
    instant of the deadline is never lost — it goes to this get if its
    arrival is processed first, and stays buffered for the next get if
    the deadline is.  A get that is satisfied or cancelled first
    withdraws its deadline, which then never fires.
    """

    __slots__ = ("predicate", "_store", "_expiry")

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
        self._expiry = None
        # Gets queued earlier found no match when the store last changed,
        # so taking an item here overtakes nobody.
        item = store._match(self) if store.items else _NO_MATCH
        if item is not _NO_MATCH:
            self._value = item
            self.callbacks = None
            if store._put_queue:
                store._admit_puts()
        else:
            store._get_queue.append(self)
            if timeout_s is not None and timeout_s != math.inf:
                self._expiry = store.env._arm(timeout_s, self._expire)

    def cancel(self) -> None:
        """Withdraw this get if it has not been satisfied yet, so that a
        get nobody waits on any more does not steal a later item."""
        queue = self._store._get_queue
        if self in queue:
            queue.remove(self)
            if self._expiry is not None:
                self.env._withdraw(self._expiry)

    def _expire(self, _expiry: Event) -> None:
        """Deadline of a timed get: it is still waiting (a satisfied or
        cancelled get withdrew its deadline), so it leaves the queue and
        fires with ``None``."""
        self._store._get_queue.remove(self)
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
        """Take ``item`` in (the caller checked for room): it goes to the
        oldest queued get it matches, else it is buffered.  The queued
        gets found no match among the older items, so the new item is
        the only one they can take."""
        gets = self._get_queue
        for index, get in enumerate(gets):
            if get.predicate is None or get.predicate(item):
                del gets[index]
                get.succeed(item)
                if get._expiry is not None:
                    self.env._withdraw(get._expiry)
                return
        self.items.append(item)

    def _admit_puts(self) -> None:
        """A get made room: accept queued puts while it lasts."""
        while self._put_queue and len(self.items) < self._capacity:
            put = self._put_queue.pop(0)
            put.succeed()
            self._accept(put.item)

    def _match(self, get: StoreGet) -> Any:
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

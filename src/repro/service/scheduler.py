"""Pluggable scheduling policies for the concurrent transfer service.

A policy decides which active transfers may put a frame on the wire in
the current scheduling quantum.  The engine hands it a *schedule view*
(:class:`~repro.service.engine._ScheduleView`) and a grant budget; the
policy returns stream ids in transmission order, at most ``budget`` of
them, consulting ``frames_available(now)`` so it never grants a send
the machine cannot honour.

The view offers three things: ``ready_iter(now)`` — ``(stream_id,
entry)`` for the *ready set* only (streams with ``has_frame(now)``), in
admission order, the only ordering the service ever relies on (never
hash order) — plus ``client_count()`` and ``client_positions()`` for
the rotation.  A stream with no frame available contributes nothing to
any policy's output, so a grants call costs O(ready + granted), not
O(active).

Three policies, mirroring the design space the paper's copy-cost model
opens up:

- :class:`FifoPolicy` — head-of-line service in admission order; one
  big transfer monopolises the interface exactly as the single-transfer
  blast protocol would.
- :class:`RoundRobinPolicy` — one frame per *client* per rotation, so
  interactive clients interleave with bulk ones; rotation state persists
  across quanta for long-run fairness.
- :class:`CopyBudgetPolicy` — round-robin, additionally capped by the
  number of packet copies the server's processor can perform per
  quantum (the paper's per-packet copy cost C is the service bottleneck
  once the wire stops being one); modelled as
  ``floor(quantum_s / copy_s_per_packet)`` grants per quantum window.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "CopyBudgetPolicy",
    "POLICY_REGISTRY",
    "get_policy",
    "policy_names",
]


class SchedulingPolicy:
    """Base class; concrete policies override :meth:`grants`."""

    name = ""

    def grants(self, table, now: float, budget: int) -> List[int]:
        """Stream ids to grant one frame each, in transmission order.

        ``table`` is the engine's schedule view; its entries carry a
        ``client`` and a ``machine``.  A stream id may appear several
        times when the policy lets one transfer send a run of frames.
        """
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Admission order, head transfer drains first."""

    name = "fifo"

    def grants(self, table, now, budget):
        order: List[int] = []
        for stream_id, entry in table.ready_iter(now):
            take = min(entry.machine.frames_available(now),
                       budget - len(order))
            order.extend([stream_id] * take)
            if len(order) >= budget:
                break
        return order


class RoundRobinPolicy(SchedulingPolicy):
    """One frame per client per rotation; rotation survives across quanta.

    The historical implementation walked every active client cyclically
    from a persistent cursor, advancing the cursor once per *visited*
    client (including clients with nothing to send).  Its observable
    contract is: picks happen in cyclic client-position order starting
    at the cursor, restricted to clients with an available stream, and
    the call leaves the cursor one position past the last client
    granted (or merely normalised modulo the client count when nothing
    was granted — availability only shrinks within one call, so a
    client visited idle can never be granted later in the same call).
    The ready-set implementation below reproduces that contract without
    visiting idle clients, and without a step per frame: the clients of
    ready streams are lined up in position order from the cursor and
    dealt whole cycles at a time (a cycle ends early only when a stream
    runs dry or the budget does), and the final cursor is computed from
    the last client served.  A budget of less than one cycle — every
    ``poll`` of a busy DES service — asks no machine anything.
    """

    name = "rr"

    def __init__(self) -> None:
        self._cursor = 0

    def grants(self, table, now, budget):
        order: List[int] = []
        client_count = table.client_count()
        if client_count == 0:
            return order
        # The historical walk normalised the cursor against the current
        # client count on every call, grants or not.
        self._cursor %= client_count
        position = table.client_positions()
        ready = list(table.ready_iter(now))
        if not ready or budget <= 0:
            return order
        places = [position[entry.client] for _stream_id, entry in ready]
        # One turn per sendable stream, (client position, admission
        # index): sorted, that is rotation order with one client's
        # streams in admission order — and the sort never leaves C.
        turns = sorted(zip(places, range(len(ready))))
        start = bisect_left(turns, (self._cursor, 0))
        turns = turns[start:] + turns[:start]
        if budget <= len(turns) == len(set(places)):
            # Every client has one sendable stream and the budget is
            # not even one whole cycle: a ready stream has a frame, so
            # no machine needs asking how many.
            del turns[budget:]
            order = [ready[index][0] for _place, index in turns]
            last_position = turns[-1][0]
        else:
            # One lane per client: [position, the stream its turn goes
            # to, that stream's entry, its later sendable streams].
            lanes: List[list] = []
            for place, index in turns:
                if lanes and lanes[-1][0] == place:
                    lanes[-1][3].append(ready[index])
                else:
                    lanes.append([place, *ready[index], []])
            last_position = self._deal(lanes, now, budget, order)
        if last_position is not None:
            self._cursor = (last_position + 1) % client_count
        return order

    @staticmethod
    def _deal(lanes, now, budget, order):
        """Append one frame per lane per cycle, whole cycles at a time,
        until ``budget`` frames are dealt or every lane is dry; returns
        the position of the last lane served (None if none was)."""
        left = [lane[2].machine.frames_available(now) for lane in lanes]
        last_position = None
        while budget > 0:
            if 0 in left:
                # A drained stream hands its client's turn to the
                # client's next one; a client with none leaves.
                for lane_index, lane in enumerate(lanes):
                    while left[lane_index] == 0 and lane[3]:
                        lane[1], entry = lane[3].pop(0)
                        left[lane_index] = entry.machine.frames_available(now)
                lanes = [lane for lane, count in zip(lanes, left) if count]
                left = [count for count in left if count]
                if not lanes:
                    break
            streams = [lane[1] for lane in lanes]
            cycles = min(min(left), budget // len(lanes))
            if cycles == 0:  # the budget ends inside this cycle
                order.extend(streams[:budget])
                return lanes[budget - 1][0]
            order.extend(streams * cycles)
            budget -= cycles * len(lanes)
            left = [count - cycles for count in left]
            last_position = lanes[-1][0]
        return last_position


class CopyBudgetPolicy(RoundRobinPolicy):
    """Round-robin capped by per-quantum processor copy capacity.

    ``copy_s_per_packet`` is the paper's C (processor copy time of one
    data packet); at most ``floor(quantum_s / C)`` frames leave the
    service per quantum window, whatever the caller's budget.  Quantum
    windows are aligned to multiples of ``quantum_s`` so the cap is a
    pure function of ``now`` — deterministic under the simulated clock.
    """

    name = "copy-budget"

    def __init__(self, quantum_s: float = 0.01,
                 copy_s_per_packet: float = 0.00135) -> None:
        super().__init__()
        if quantum_s <= 0 or copy_s_per_packet <= 0:
            raise ValueError("quantum_s and copy_s_per_packet must be > 0")
        self.quantum_s = quantum_s
        self.copy_s_per_packet = copy_s_per_packet
        self.per_quantum = max(1, int(quantum_s / copy_s_per_packet))
        self._window_index = -1
        self._used = 0

    def grants(self, table, now, budget):
        window = int(now / self.quantum_s)
        if window != self._window_index:
            self._window_index = window
            self._used = 0
        remaining = self.per_quantum - self._used
        if remaining <= 0:
            return []
        order = super().grants(table, now, min(budget, remaining))
        self._used += len(order)
        return order

    def next_window_start(self, now: float) -> float:
        """When the copy budget replenishes (engine deadline hint)."""
        return (int(now / self.quantum_s) + 1) * self.quantum_s

    def budget_exhausted(self, now: float) -> bool:
        """True when no grants remain in the current quantum window."""
        window = int(now / self.quantum_s)
        return window == self._window_index and self._used >= self.per_quantum


POLICY_REGISTRY: Dict[str, Callable[[], SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    CopyBudgetPolicy.name: CopyBudgetPolicy,
}


def policy_names() -> List[str]:
    """Registry names in their canonical (report) order."""
    return list(POLICY_REGISTRY)


def get_policy(name: str, **kwargs) -> SchedulingPolicy:
    """Instantiate a scheduling policy by registry name."""
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        ) from None
    return factory(**kwargs)

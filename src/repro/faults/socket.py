"""UDP adapter: a socket wrapper that replays a :class:`FaultPlan`.

:class:`FaultySocket` interprets a fault plan on *both* directions of
a real socket — dropping, duplicating, corrupting, delaying, and
reordering datagrams — and does nothing else: a socket with no plan is
not wrapped at all.  Held datagrams live in bounded queues:

- a **delay heap** per direction, keyed by wall-clock due time, flushed
  whenever the socket is used;
- a **reorder list** per direction, where each held datagram carries a
  countdown of how many later datagrams must overtake it.

The receive side never blocks (:meth:`FaultySocket.recv_ready_into`, the
entry point of :class:`~repro.service.iobatch.DatagramBatchIO`): the
waiting loop above it bounds its wait by :meth:`~FaultySocket
.next_held_due`, so a delayed datagram leaves at its due time, and
force-flushes reorder-held incoming datagrams
(:meth:`~FaultySocket.flush_recv_held`) when its wait expires quiet, so
a bounded plan can never wedge a transport: every held datagram is
eventually delivered or the caller times out holding it in hand.
Frames are classified with :func:`repro.core.wire.peek` (no CRC check —
a frame this very socket corrupted must still be classifiable).

Each direction keeps its own ledger: ``datagrams_sent`` /
``datagrams_dropped`` / ``loss_rate`` on the send side,
``datagrams_received`` / ``recv_dropped`` / ``recv_loss_rate`` on the
receive side.
"""

from __future__ import annotations

import dataclasses
import heapq
import socket as _socket
import time
from typing import Dict, List, Optional, Tuple

from ..core.wire import HEADER_BYTES, WireError, decode, encode, peek
from .plan import FaultDecision, FaultPlan, PlanExecutor

__all__ = ["FaultySocket", "RECV_BUFFER_BYTES"]

#: FrameKind name → plan-DSL kind selector.
_KIND_NAMES = {1: "data", 2: "ack", 3: "nak", 4: "control"}

#: Bytes per reusable receive buffer — covers any datagram UDP can
#: deliver.  Re-exported by :mod:`repro.service.iobatch` so this
#: wrapper's scratch buffer and the batch-I/O arenas are sized
#: identically.
RECV_BUFFER_BYTES = 65536


def _damage(datagram: bytes, mask: int, silent: bool) -> Optional[bytes]:
    """Return a corrupted copy of ``datagram``.

    Detectable damage (``silent=False``) XORs one byte of the payload
    region (falling back to the last header byte for payload-less
    frames) so the CRC check rejects the datagram at the receiver.
    Silent damage decodes the frame, damages the payload, and re-encodes
    — producing a *valid* datagram carrying wrong bytes, the interface-
    DMA failure mode.  Returns None when silent damage is impossible
    (no payload to damage, or the datagram is already undecodable),
    which callers treat as detectable damage instead.
    """
    datagram = bytes(datagram)  # accept memoryviews from batched senders
    if silent:
        try:
            frame = decode(datagram)
        except WireError:
            return None
        payload = getattr(frame, "payload", b"")
        if not payload:
            return None
        damaged = bytes([payload[0] ^ mask]) + payload[1:]
        return encode(dataclasses.replace(frame, payload=damaged))
    index = HEADER_BYTES if len(datagram) > HEADER_BYTES else len(datagram) - 1
    if index < 0:
        return None
    flipped = datagram[index] ^ mask
    return datagram[:index] + bytes([flipped]) + datagram[index + 1 :]


class _HeldQueue:
    """Per-direction holding area for delayed and reordered datagrams."""

    def __init__(self) -> None:
        self._delayed: List[Tuple[float, int, bytes, object]] = []
        self._reordered: List[List[object]] = []  # [countdown, data, addr]
        self._tiebreak = 0

    def hold_delayed(self, due: float, data: bytes, addr: object) -> None:
        heapq.heappush(self._delayed, (due, self._tiebreak, data, addr))
        self._tiebreak += 1

    def hold_reordered(self, countdown: int, data: bytes, addr: object) -> None:
        self._reordered.append([countdown, data, addr])

    def due(self, now: float) -> List[Tuple[bytes, object]]:
        """Pop every delayed datagram whose release time has passed."""
        released: List[Tuple[bytes, object]] = []
        while self._delayed and self._delayed[0][0] <= now:
            _, _, data, addr = heapq.heappop(self._delayed)
            released.append((data, addr))
        return released

    def overtaken(self) -> List[Tuple[bytes, object]]:
        """Count one passing datagram; pop reorder-holds that expire."""
        released: List[Tuple[bytes, object]] = []
        keep: List[List[object]] = []
        for entry in self._reordered:
            entry[0] -= 1  # type: ignore[operator]
            if entry[0] <= 0:  # type: ignore[operator]
                released.append((entry[1], entry[2]))  # type: ignore[arg-type]
            else:
                keep.append(entry)
        self._reordered = keep
        return released

    def flush_reordered(self) -> List[Tuple[bytes, object]]:
        """Release every reorder hold, in hold order; delay holds stay
        until their due time."""
        released = [(entry[1], entry[2]) for entry in self._reordered]
        self._reordered = []
        return released  # type: ignore[return-value]

    def next_due(self) -> Optional[float]:
        return self._delayed[0][0] if self._delayed else None


class FaultySocket:
    """A UDP socket whose traffic passes through a fault plan.

    Parameters
    ----------
    sock:
        The real datagram socket to wrap.
    plan:
        The :class:`FaultPlan` applied to both directions.
    seed:
        Root seed for the plan's stochastic rules.

    Only the methods the batch layer uses are wrapped.
    """

    def __init__(
        self,
        sock: _socket.socket,
        plan: FaultPlan,
        seed: Optional[int] = None,
    ):
        self._sock = sock
        self.plan = plan
        self.executor = PlanExecutor(plan, seed=seed)
        self._send_held = _HeldQueue()
        self._recv_held = _HeldQueue()
        self._ready: List[Tuple[bytes, object]] = []
        # Reusable kernel-receive buffer: under a plan, kernel bytes
        # land here first and are copied only when they must be owned.
        self._scratch = bytearray(RECV_BUFFER_BYTES)
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_received = 0
        self.recv_dropped = 0
        self.faults_injected: Dict[str, int] = {
            action: 0 for action in ("drop", "duplicate", "reorder", "delay", "corrupt")
        }

    def _decide(self, datagram: bytes, direction: str) -> FaultDecision:
        kind_enum, seq = peek(datagram)
        kind = _KIND_NAMES.get(int(kind_enum)) if kind_enum is not None else None
        decision = self.executor.decide(kind, direction, seq=seq)
        if decision.drop:
            self.faults_injected["drop"] += 1
        if decision.corrupt:
            self.faults_injected["corrupt"] += 1
        if decision.duplicates:
            self.faults_injected["duplicate"] += decision.duplicates
        if decision.delay_s:
            self.faults_injected["delay"] += 1
        if decision.reorder_depth:
            self.faults_injected["reorder"] += 1
        return decision

    # -- send path ----------------------------------------------------------
    def sendto(self, payload: bytes, address: Tuple[str, int]) -> int:
        """Send unless the plan swallows the datagram."""
        self._release_send_held()
        self.datagrams_sent += 1
        decision = self._decide(payload, "send")
        if decision.drop:
            self.datagrams_dropped += 1
            return len(payload)
        if decision.corrupt:
            damaged = _damage(payload, decision.corrupt_mask, decision.silent)
            if damaged is None:
                damaged = _damage(payload, decision.corrupt_mask, silent=False)
            if damaged is not None:
                payload = damaged
        if decision.reorder_depth:
            # Held datagrams must own their bytes: a memoryview from a
            # batched sender aliases a buffer the caller reuses.
            self._send_held.hold_reordered(
                decision.reorder_depth, bytes(payload), address
            )
            return len(payload)
        if decision.delay_s:
            due = time.monotonic() + decision.delay_s
            self._send_held.hold_delayed(due, bytes(payload), address)
            return len(payload)
        sent = self._sock.sendto(payload, address)
        for _ in range(decision.duplicates):
            self._sock.sendto(payload, address)
        for held, held_addr in self._send_held.overtaken():
            self._sock.sendto(held, held_addr)
        return sent

    def _release_send_held(self) -> None:
        for held, held_addr in self._send_held.due(time.monotonic()):
            self._sock.sendto(held, held_addr)

    # -- receive path -------------------------------------------------------
    def recv_ready_into(self, buffer):
        """Non-blocking receive into ``buffer``: ``(count, sender)`` or None.

        The one receive entry point (:mod:`repro.service.iobatch`):
        never blocks and never force-flushes reorder holds, because a
        zero-wait drain is not a timeout.  The waiting loop owns that
        policy via :meth:`flush_recv_held`.  Delay-held datagrams whose
        due time has passed are released first; then kernel datagrams
        are pulled through the plan until one is deliverable or the
        kernel queue is empty.  The underlying socket must be non-blocking (or have
        a zero timeout) for the "or None" contract to hold.
        """
        self._release_send_held()
        self._ready.extend(self._recv_held.due(time.monotonic()))
        if self._ready:
            return self._pop_ready_into(buffer)
        scratch = self._scratch
        while True:
            try:
                count, sender = self._sock.recvfrom_into(scratch)
            except (BlockingIOError, InterruptedError, _socket.timeout):
                return None
            self.datagrams_received += 1
            view = memoryview(scratch)[:count]
            decision = self._decide(view, "recv")
            if decision.drop:
                self.recv_dropped += 1
                continue
            owned: Optional[bytes] = None
            if decision.corrupt:
                damaged = _damage(view, decision.corrupt_mask, decision.silent)
                if damaged is None:
                    damaged = _damage(view, decision.corrupt_mask, silent=False)
                owned = damaged if damaged is not None else bytes(view)
            if decision.reorder_depth:
                self._recv_held.hold_reordered(
                    decision.reorder_depth,
                    owned if owned is not None else bytes(view), sender,
                )
                continue
            if decision.delay_s:
                self._recv_held.hold_delayed(
                    time.monotonic() + decision.delay_s,
                    owned if owned is not None else bytes(view), sender,
                )
                continue
            if owned is None and not decision.duplicates:
                # Deliverable untouched, no copies queued: hand the
                # scratch bytes straight to the caller's buffer.  The
                # delivery still counts as one passing datagram for
                # reorder countdowns, exactly like ``_pop_ready_into``.
                buffer[:count] = view
                self._ready.extend(self._recv_held.overtaken())
                return count, sender
            if owned is None:
                owned = bytes(view)
            self._ready.append((owned, sender))
            for _ in range(decision.duplicates):
                self._ready.append((owned, sender))
            return self._pop_ready_into(buffer)

    def _pop_ready_into(self, buffer):
        datagram, sender = self._ready.pop(0)
        self._ready.extend(self._recv_held.overtaken())
        count = len(datagram)
        buffer[:count] = datagram
        return count, sender

    def flush_recv_held(self) -> int:
        """Force-release every reorder-held incoming datagram into the
        ready queue.

        The waiting loop calls this when its wait expires with nothing
        readable — the "bounded plans never wedge" guarantee, since a
        reorder hold that nothing overtakes has no due time.  Delay
        holds are not released: they leave at their due time, which
        :meth:`next_held_due` reports.  Returns the number released;
        drain them with :meth:`recv_ready_into`.
        """
        flushed = self._recv_held.flush_reordered()
        self._ready.extend(flushed)
        return len(flushed)

    def next_held_due(self) -> Optional[float]:
        """Earliest monotonic due time of any delay-held datagram, or None.

        Readiness loops bound their poll timeout with this so a delayed
        datagram is released on schedule even when the socket stays
        quiet.
        """
        dues = [
            due
            for due in (self._send_held.next_due(), self._recv_held.next_due())
            if due is not None
        ]
        return min(dues) if dues else None

    @property
    def has_ready(self) -> bool:
        """True when a datagram is deliverable without touching the kernel."""
        return bool(self._ready)

    # -- plumbing -----------------------------------------------------------
    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    def fileno(self) -> int:
        return self._sock.fileno()

    def getsockname(self) -> Tuple[str, int]:
        return self._sock.getsockname()

    def close(self) -> None:
        self._sock.close()

    @property
    def loss_rate(self) -> float:
        """Observed injected-loss fraction on the send side."""
        if self.datagrams_sent == 0:
            return 0.0
        return self.datagrams_dropped / self.datagrams_sent

    @property
    def recv_loss_rate(self) -> float:
        """Observed injected-loss fraction on the receive side."""
        if self.datagrams_received == 0:
            return 0.0
        return self.recv_dropped / self.datagrams_received

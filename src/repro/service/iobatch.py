"""Batched, zero-copy datagram I/O for the readiness-driven service loop.

The paper's thesis is that transfer protocols are limited by per-packet
software overhead; this module is where the reproduction attacks that
overhead on the real-socket substrate.  :class:`DatagramBatchIO` owns a
preallocated ring of receive buffers and a single reusable send buffer,
so the steady-state datagram path performs

- **one poll syscall per wakeup** (the ``selectors`` loop in
  :mod:`repro.service.udpservice`), not one timeout-armed ``recvfrom``
  per datagram;
- **one kernel copy per received datagram** (``recvfrom_into`` a ring
  slot — the kernel never allocates a Python ``bytes``), with
  :func:`~repro.core.wire.decode` fed a ``memoryview`` of the slot;
- **zero per-frame allocations on send**:
  :func:`~repro.core.wire.encode_into` packs each outgoing frame into
  the reused send buffer and ``sendto`` transmits a ``memoryview`` of
  it.

``recvmmsg``/``sendmmsg`` would collapse the remaining per-datagram
syscalls into one per *batch*; CPython's ``socket`` does not expose
them (checked via ``hasattr`` below), so the portable fallback — a
non-blocking ``recvfrom_into``/``sendto`` per datagram after a single
readiness wakeup — is always taken.  The equivalence gate is unaffected
either way: batching changes how many syscalls move the same datagrams,
never which datagrams move (see docs/performance.md).

Fault injection composes transparently: when the wrapped socket is a
:class:`~repro.faults.socket.FaultySocket` its non-blocking
:meth:`~repro.faults.socket.FaultySocket.recv_ready_into` entry point
is used, so every batched receive still passes through the fault plan,
and held-datagram release times bound the loop's poll timeout via
:meth:`DatagramBatchIO.next_held_due`.
"""

from __future__ import annotations

import select
import socket as _socket
from typing import List, Optional, Tuple

from ..core.wire import encode_into
from ..udpnet.endpoints import RECV_BUFFER_BYTES

__all__ = ["DatagramBatchIO", "BATCH_SLOTS", "RECV_BUFFER_BYTES"]

#: Receive-ring slots drained per readiness wakeup (the server's batch
#: size).  Clients multiplexing many sockets pass a smaller ring.
BATCH_SLOTS = 64

#: How long a full kernel send queue is waited out before the datagram
#: is dropped (UDP semantics: the protocol's retransmission recovers).
_SEND_RETRY_WAIT_S = 0.01

#: True when the platform socket module exposes multi-message syscalls.
#: CPython does not (as of 3.12), so the portable per-datagram fallback
#: below is always used; the flag is kept (and exported via stats) so
#: the docs' claim about the fast path stays checkable.
HAS_RECVMMSG = hasattr(_socket.socket, "recvmmsg")
HAS_SENDMMSG = hasattr(_socket.socket, "sendmmsg")


class DatagramBatchIO:
    """Batched send/receive over one (possibly fault-wrapped) socket.

    Parameters
    ----------
    sock:
        A raw datagram socket or a
        :class:`~repro.faults.socket.FaultySocket` wrapper.
    ring_slots:
        Receive buffers preallocated; one batch drains at most this
        many datagrams.
    slot_bytes:
        Bytes per ring slot.  Defaults to ``RECV_BUFFER_BYTES`` so no
        legal datagram is ever truncated; many-socket clients that
        control both peers (the pump in
        :mod:`repro.service.clientpump`) pass the largest datagram they
        can actually receive to keep N×ring memory bounded.

    The ``memoryview`` entries returned by :meth:`recv_batch` alias the
    ring and are only valid until the next :meth:`recv_batch` call —
    exactly long enough to :func:`~repro.core.wire.decode` them (decode
    copies the payload out).
    """

    def __init__(self, sock, ring_slots: int = BATCH_SLOTS,
                 slot_bytes: int = RECV_BUFFER_BYTES):
        if ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        self._sock = sock
        sock.setblocking(False)
        self._slots = [bytearray(slot_bytes) for _ in range(ring_slots)]
        self._slot_views = [memoryview(slot) for slot in self._slots]
        self._send_buffer = bytearray(RECV_BUFFER_BYTES)
        self._send_view = memoryview(self._send_buffer)
        self._recv_ready = getattr(sock, "recv_ready_into", None)
        self.datagrams_in = 0
        self.datagrams_out = 0
        self.recv_batches = 0
        self.send_drops = 0

    # -- plumbing -----------------------------------------------------------
    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def has_ready(self) -> bool:
        """True when the fault wrapper holds a deliverable datagram."""
        return bool(getattr(self._sock, "has_ready", False))

    def next_held_due(self) -> Optional[float]:
        """Earliest release time of a fault-held datagram, or None."""
        query = getattr(self._sock, "next_held_due", None)
        return query() if query is not None else None

    def flush_held(self) -> int:
        """Force-release fault-held incoming datagrams (deadline expiry)."""
        flush = getattr(self._sock, "flush_recv_held", None)
        return flush() if flush is not None else 0

    # -- receive ------------------------------------------------------------
    def _recv_one(self, buffer):
        recv_ready = self._recv_ready
        if recv_ready is not None:
            return recv_ready(buffer)
        try:
            return self._sock.recvfrom_into(buffer)
        except (BlockingIOError, InterruptedError):
            return None

    def recv_batch(self) -> List[Tuple[memoryview, Tuple[str, int]]]:
        """Drain up to one ring of datagrams after a readiness wakeup.

        Returns ``[(view, sender), ...]`` where each ``view`` is a
        ``memoryview`` of a ring slot holding exactly one datagram.
        Stops at the first empty kernel queue (never blocks).
        """
        batch: List[Tuple[memoryview, Tuple[str, int]]] = []
        append = batch.append
        recv_one = self._recv_one
        views = self._slot_views
        for index, buffer in enumerate(self._slots):
            got = recv_one(buffer)
            if got is None:
                break
            count, sender = got
            append((views[index][:count], sender))
        if batch:
            self.datagrams_in += len(batch)
            self.recv_batches += 1
        return batch

    # -- send ---------------------------------------------------------------
    def send_frame(self, frame, address) -> int:
        """Encode ``frame`` into the reused send buffer and transmit it."""
        n = encode_into(frame, self._send_buffer)
        return self._send(self._send_view[:n], address)

    def send_datagram(self, payload, address) -> int:
        """Transmit pre-encoded bytes (control requests built once)."""
        return self._send(payload, address)

    def _send(self, payload, address) -> int:
        try:
            self._sock.sendto(payload, address)
        except (BlockingIOError, InterruptedError):
            # Kernel send queue full.  Wait briefly for writability and
            # retry once; past that the datagram is dropped — UDP
            # semantics, repaired by the protocol's retransmission.
            select.select([], [self.fileno()], [], _SEND_RETRY_WAIT_S)
            try:
                self._sock.sendto(payload, address)
            except (BlockingIOError, InterruptedError):
                self.send_drops += 1
                return 0
        self.datagrams_out += 1
        return len(payload)

"""Batched, zero-copy datagram I/O for the readiness-driven service loop.

The paper's thesis is that transfer protocols are limited by per-packet
software overhead, and that a blast exists to pay the cost of handing a
packet to the interface back to back.  :class:`DatagramBatchIO` owns
one receive arena and one send arena (the batch layers of one thread
share theirs: :meth:`~DatagramBatchIO.sibling`), so the steady state
pays

- **one kernel crossing per burst sent**: :meth:`send_run` *stages* a
  stream's run of data packets as one view of back-to-back datagrams
  (:func:`~repro.core.wire.encode_run_into`, no frame objects),
  :meth:`send_frame` a single frame, and :meth:`flush` sends each
  destination's datagrams as ``sendmsg`` calls carrying a
  ``UDP_SEGMENT`` control message, which the kernel cuts back into
  the datagrams they were built from;
- **one kernel crossing per burst received**: with ``UDP_GRO`` set a
  segmented send arrives as one ``recvmsg_into`` and is cut at the
  segment size the kernel reports, each datagram a ``memoryview`` of
  the arena.

A socket that cannot segment — a kernel that refuses the first control
message, or a :class:`~repro.faults.socket.FaultySocket`, whose plan
must see every datagram — sends one datagram per call: the same
datagrams, in the same per-destination order (docs/performance.md, "One
kernel crossing per burst").  Under a fault socket every batched receive
goes through its plan (``recv_ready_into``), and held datagrams bound
the loop's wait through :meth:`DatagramBatchIO.next_held_due`.
"""

from __future__ import annotations

import errno
import mmap
import select
import socket as _socket
import struct
import sys
from typing import Dict, List, Optional, Tuple

from ..core.wire import HEADER2_BYTES, encode_into, encode_run_into
from ..faults.socket import RECV_BUFFER_BYTES

__all__ = ["DatagramBatchIO", "BATCH_SLOTS", "RECV_BUFFER_BYTES",
           "MAX_RUN_SEGMENTS", "MAX_RUN_BYTES"]

#: Reads per readiness wakeup (the server's batch size).  Clients
#: multiplexing many sockets pass a smaller ring.
BATCH_SLOTS = 64

#: How long a full kernel send queue is waited out before what was
#: being sent is dropped (UDP semantics: the protocol's retransmission
#: recovers).
_SEND_RETRY_WAIT_S = 0.01

#: ``<linux/udp.h>``; CPython's ``socket`` names neither.
UDP_SEGMENT = 103
UDP_GRO = 104
_LINUX = sys.platform.startswith("linux")

#: What one segmented send may carry: ``UDP_MAX_SEGMENTS`` of the
#: kernels where it is smallest, and the largest UDP payload.
MAX_RUN_SEGMENTS = 64
MAX_RUN_BYTES = 65507

#: How a kernel (or a route) says it will not segment: the option is
#: unknown, the segment does not fit the path MTU, or the device cannot
#: checksum the pieces.
_REFUSED = (errno.EINVAL, errno.ENOPROTOOPT, errno.EIO)

#: The send arena, and how full it gets before :meth:`send_frame`
#: flushes on its own: room for the largest datagram is kept free, the
#: rest holds a server's whole 128-frame send batch of 1 KiB packets.
_STAGE_BYTES = 4 * RECV_BUFFER_BYTES
_STAGE_FULL = _STAGE_BYTES - RECV_BUFFER_BYTES

_SEGMENT = struct.Struct("H")
_GRO_SEGMENT = struct.Struct("i")
_GRO_CMSG_SPACE = _socket.CMSG_SPACE(_GRO_SEGMENT.size)


class _Arenas:
    """The memory the batch layers of one thread share: a receive arena
    cut into one slot per read, a send arena, and which layer has
    frames staged in it (None between flushes)."""

    __slots__ = ("slots", "stage", "staging")

    def __init__(self, ring_slots: int, read_bytes: int):
        # Anonymous mappings, not bytearrays: ``bytearray(n)`` writes n
        # zeros, and the server would touch 4 MiB it may never read
        # into; a mapping's pages cost nothing until a datagram lands
        # on them, and go back when the last view of them does.
        arena = memoryview(mmap.mmap(-1, ring_slots * read_bytes))
        self.slots = [arena[start:start + read_bytes]
                      for start in range(0, len(arena), read_bytes)]
        self.stage = memoryview(mmap.mmap(-1, _STAGE_BYTES))
        self.staging: Optional["DatagramBatchIO"] = None


class DatagramBatchIO:
    """Batched send/receive over one (possibly fault-wrapped) socket.

    Parameters
    ----------
    sock:
        A raw datagram socket or a
        :class:`~repro.faults.socket.FaultySocket` wrapper.
    ring_slots:
        Reads per batch: one :meth:`recv_batch` asks the kernel at most
        this many times (a coalesced read carries up to 64 datagrams).
    slot_bytes:
        The largest single datagram the caller can receive.  Defaults
        to ``RECV_BUFFER_BYTES`` so no legal datagram is ever
        truncated; many-socket clients that control both peers (the
        pump in :mod:`repro.service.clientpump`) pass less.  A socket
        that coalesces reads up to ``RECV_BUFFER_BYTES`` whatever the
        caller said, because a short buffer would truncate the burst.

    The ``memoryview`` entries returned by :meth:`recv_batch` alias the
    receive arena and are only valid until the next :meth:`recv_batch`
    call (of this layer or a :meth:`sibling`) — exactly long enough to
    :func:`~repro.core.wire.decode` them (decode copies the payload
    out).

    Counters (:meth:`stats`): ``datagrams_out`` left in ``send_calls``
    kernel crossings, ``send_drops`` were refused by a full kernel
    queue; ``datagrams_in`` arrived in ``recv_calls`` crossings over
    ``recv_batches`` non-empty batches.  ``segmented`` is the kernel's
    answer to the first ``UDP_SEGMENT`` control message (None until a
    run of two or more was sent).
    """

    def __init__(self, sock, ring_slots: int = BATCH_SLOTS,
                 slot_bytes: int = RECV_BUFFER_BYTES):
        if ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        self._attach(sock, coalesce=True)
        self._arenas = _Arenas(
            ring_slots, RECV_BUFFER_BYTES if self.coalescing else slot_bytes)

    def sibling(self, sock) -> "DatagramBatchIO":
        """A batch layer for another socket driven by the same thread,
        reading into and staging in this one's arenas.

        One thread uses one layer at a time, and ``decode`` copies the
        payload out before the next read, so N sockets need one arena,
        not N (the pump: 64 clients would otherwise fault in 64 sets of
        pages per cell).  The sharing shows in two places: views from
        :meth:`recv_batch` are valid until the next ``recv_batch`` of
        *any* sibling, and a sibling that stages while another still
        has frames staged flushes those first.
        """
        other = DatagramBatchIO.__new__(DatagramBatchIO)
        other._attach(sock, coalesce=self.coalescing)
        other._arenas = self._arenas
        return other

    def _attach(self, sock, coalesce: bool) -> None:
        self._sock = sock
        sock.setblocking(False)
        self._recv_ready = getattr(sock, "recv_ready_into", None)
        #: None until the kernel has answered a segmented send.
        self.segmented: Optional[bool] = None
        self.coalescing = False
        if self._recv_ready is not None or not _LINUX:
            self.segmented = False
        elif coalesce:
            try:
                sock.setsockopt(_socket.SOL_UDP, UDP_GRO, 1)
                self.coalescing = True
            except OSError:
                pass
        #: ``(address, view, size)`` in staging order: ``view`` holds
        #: datagrams of ``size`` bytes, the last maybe shorter.
        self._staged: List[Tuple[object, memoryview, int]] = []
        self._staged_bytes = 0
        self.datagrams_in = 0
        self.datagrams_out = 0
        self.recv_batches = 0
        self.recv_calls = 0
        self.send_calls = 0
        self.send_drops = 0

    def stats(self) -> dict:
        """Which path ran and what each kernel crossing carried."""
        return {
            "segmented": self.segmented,
            "coalescing": self.coalescing,
            "datagrams_out": self.datagrams_out,
            "send_calls": self.send_calls,
            "send_drops": self.send_drops,
            "datagrams_in": self.datagrams_in,
            "recv_calls": self.recv_calls,
            "recv_batches": self.recv_batches,
        }

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
        """Force-release reorder-held incoming datagrams (a quiet wait
        expired); delay holds leave at their due time."""
        flush = getattr(self._sock, "flush_recv_held", None)
        return flush() if flush is not None else 0

    # -- receive ------------------------------------------------------------
    def recv_batch(self) -> List[Tuple[memoryview, Tuple[str, int]]]:
        """Read the socket until it is empty or the ring is full.

        Returns ``[(view, sender), ...]`` where each ``view`` is a
        ``memoryview`` of the receive arena holding exactly one
        datagram, in arrival order.  Never blocks.
        """
        batch: List[Tuple[memoryview, Tuple[str, int]]] = []
        append = batch.append
        reads = 0
        recv_ready = self._recv_ready
        slots = self._arenas.slots
        if recv_ready is not None:
            for slot in slots:
                got = recv_ready(slot)
                if got is None:
                    break
                reads += 1
                append((slot[:got[0]], got[1]))
        else:
            recvmsg_into = self._sock.recvmsg_into
            for slot in slots:
                try:
                    nbytes, ancdata, _flags, sender = recvmsg_into(
                        (slot,), _GRO_CMSG_SPACE)
                except (BlockingIOError, InterruptedError):
                    break
                reads += 1
                segment = 0
                for level, kind, data in ancdata:
                    if level == _socket.SOL_UDP and kind == UDP_GRO:
                        (segment,) = _GRO_SEGMENT.unpack(data)
                if 0 < segment < nbytes:
                    # A coalesced burst: every datagram is ``segment``
                    # bytes, the last may be shorter.
                    burst = slot[:nbytes]
                    for start in range(0, nbytes, segment):
                        append((burst[start:start + segment], sender))
                else:
                    append((slot[:nbytes], sender))
        if batch:
            self.datagrams_in += len(batch)
            self.recv_calls += reads
            self.recv_batches += 1
        return batch

    # -- send ---------------------------------------------------------------
    def send_frame(self, frame, address) -> int:
        """Encode ``frame`` into the send arena and stage it for
        ``address``; it leaves at the next :meth:`flush`."""
        arenas = self._arenas
        if arenas.staging is not self or self._staged_bytes > _STAGE_FULL:
            self._take_stage()
        start = self._staged_bytes
        end = start + encode_into(frame, arenas.stage, start)
        self._staged.append((address, arenas.stage[start:end], end - start))
        self._staged_bytes = end
        return end - start

    def send_datagram(self, payload, address) -> int:
        """Stage pre-encoded bytes (control requests built once)."""
        arenas = self._arenas
        if arenas.staging is not self or self._staged_bytes > _STAGE_FULL:
            self._take_stage()
        start = self._staged_bytes
        end = start + len(payload)
        arenas.stage[start:end] = payload
        self._staged.append((address, arenas.stage[start:end], end - start))
        self._staged_bytes = end
        return end - start

    def send_run(self, address, stream: int, total: int, seqs, payloads,
                 wants) -> None:
        """Stage a sender machine's run for ``address``: back-to-back
        datagrams, a view per segmented send, cut at the first packet's
        size (a run's seqs ascend, so only its last packet is short)."""
        arenas = self._arenas
        size = HEADER2_BYTES + len(payloads[0])
        fit = max(1, min(MAX_RUN_SEGMENTS, MAX_RUN_BYTES // size))
        for first in range(0, len(payloads), fit):
            if arenas.staging is not self or self._staged_bytes > _STAGE_FULL:
                self._take_stage()
            last = first + fit
            start = self._staged_bytes
            end = self._staged_bytes = encode_run_into(
                arenas.stage, start, stream, total, seqs[first:last],
                payloads[first:last], wants[first:last])
            self._staged.append((address, arenas.stage[start:end], size))

    def _take_stage(self) -> None:
        """Make the send arena this layer's, with room for the largest
        datagram: whoever has frames staged in it — a sibling, or this
        layer when it is full — flushes first."""
        arenas = self._arenas
        if arenas.staging is not None:
            arenas.staging.flush()
        arenas.staging = self

    def flush(self) -> None:
        """Send everything staged: each destination's datagrams together
        in staging order, cut into runs (:meth:`_send_runs`), or, on a
        socket that cannot segment, one per call in staging order."""
        staged = self._staged
        if not staged:
            return
        # Whatever happens below, nothing is sent twice.
        self._staged = []
        self._staged_bytes = 0
        self._arenas.staging = None
        if self.segmented is False:
            sendto = self._sock.sendto
            for address, view, size in staged:
                for datagram in _datagrams(view, size):
                    self._send(sendto, (datagram, address), 1)
        else:
            by_destination: Dict[object, list] = {}
            for entry in staged:
                try:
                    by_destination[entry[0]].append(entry)
                except KeyError:
                    by_destination[entry[0]] = [entry]
            for address, entries in by_destination.items():
                self._send_runs(entries, address)

    def _send_runs(self, entries: List[Tuple[object, memoryview, int]],
                   address) -> None:
        """Cut one destination's staged views into runs the kernel can
        segment: equal-sized datagrams, of which only the last may be
        shorter — so a shorter datagram closes its run, a longer one
        opens the next — within ``MAX_RUN_SEGMENTS`` and
        ``MAX_RUN_BYTES``.  A view :meth:`send_run` staged is a run of
        its own."""
        run: List[memoryview] = []
        segment = room = 0
        for _address, datagram, size in entries:
            length = len(datagram)
            # An empty datagram is no segment at all: it goes alone.
            if run and (length > segment or length > room or not length
                        or len(run) == MAX_RUN_SEGMENTS or length > size):
                self._send_run(run, segment, address)
                run = []
            if length > size:
                self._send_run([datagram], size, address)
                continue
            if not run:
                segment, room = length, MAX_RUN_BYTES
            run.append(datagram)
            room -= length
            if length < segment or not length:
                self._send_run(run, segment, address)
                run = []
        if run:
            self._send_run(run, segment, address)

    def _send_run(self, run: List[memoryview], segment: int,
                  address) -> None:
        """Send the datagrams ``run`` holds (one each, or one view of
        ``segment``-byte ones) in one crossing if it can."""
        count = (len(run) if len(run) > 1 or not segment
                 else -(-len(run[0]) // segment))
        if count > 1 and self.segmented is not False:
            control = [(_socket.SOL_UDP, UDP_SEGMENT,
                        _SEGMENT.pack(segment))]
            try:
                accepted = self._send(
                    self._sock.sendmsg, (run, control, 0, address), count)
            except OSError as error:
                if error.errno not in _REFUSED:
                    raise
                # The first answer decides for the socket; a later
                # refusal (this route, this segment size) only for its
                # run.  Nothing left the socket, so nothing is lost.
                if self.segmented is None:
                    self.segmented = False
            else:
                if accepted:    # a full queue is not an answer
                    self.segmented = True
                return
        sendto = self._sock.sendto
        for view in run:
            for datagram in _datagrams(view, segment):
                self._send(sendto, (datagram, address), 1)

    def _send(self, call, args, datagrams: int) -> bool:
        """One kernel crossing carrying ``datagrams`` datagrams; False
        when the kernel had no room for them."""
        try:
            call(*args)
        except (BlockingIOError, InterruptedError):
            # Kernel send queue full.  Wait briefly for writability and
            # retry once; past that the datagrams are dropped — UDP
            # semantics, repaired by the protocol's retransmission.
            select.select([], [self.fileno()], [], _SEND_RETRY_WAIT_S)
            try:
                call(*args)
            except (BlockingIOError, InterruptedError):
                self.send_drops += datagrams
                return False
        self.send_calls += 1
        self.datagrams_out += datagrams
        return True


def _datagrams(view: memoryview, size: int):
    """A staged view cut back into its datagrams of ``size`` bytes."""
    return ([view[start:start + size] for start in range(0, len(view), size)]
            if len(view) > size else (view,))

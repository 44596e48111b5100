"""Single-threaded multi-client driver for the UDP transfer service.

:class:`UdpClientPump` multiplexes every client socket under one
``selectors`` poll in one thread — the same readiness discipline as the
server.  One thread per client would make a 256-client throughput
number measure the GIL and the OS scheduler, not the service loop, so
this is the only UDP driver of the pull protocol: the tests, ``repro
loadgen``, the perf suites, the cluster and layerbench all use it.

The protocol itself lives in :class:`~repro.service.pullclient
.PullMachine`; a pump client is a socket, a batch I/O layer and the
machine's quiet-period contract on the wall clock: each ring of reads
goes to the machine in one call (to ``on_frames`` until the verdict is
in, then as one run of the stream's packets, no frame each, to
``on_run``), as does every expiry of ``next_timer`` to ``on_quiet``;
its frames are sent, and ``next_timer = now + machine.quiet_s`` once it
wanted something.  What it does not want is dropped (UDP semantics).

All datagram I/O goes through :class:`~repro.service.iobatch
.DatagramBatchIO` (non-blocking; a burst the server sent in one kernel
crossing is read in one; what a client answers while it consumes a
ring — a window's acks, a report — is staged and leaves in one flush
when the ring is done, and again whenever a timer makes it speak).

Two things keep the pump matched to a blasting server (docs/performance
.md, "Matched speeds").  Before a client asks for a body it makes room
for it: ``SO_RCVBUF`` is raised to what the kernel will charge for the
whole body, and what cannot be had is advertised as the pull's
``credit``.  And a readable socket is read until it is empty (up to
``_DRAIN_READS`` reads per wakeup), while timers cost nothing on that
path: they sit in a lazy deadline heap that is looked at only when its
earliest entry is due.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.wire import WireError, decode, decode_data_run
from .iobatch import RECV_BUFFER_BYTES, DatagramBatchIO
from .machines import packet_count
from .pullclient import PullMachine, UdpPullResult

__all__ = ["UdpClientPump", "DATAGRAM_CHARGE_BYTES"]

#: Pump never sleeps longer than this between timer checks.
_MAX_WAIT_S = 0.05

#: Reads one client may make per wakeup before the others (and the
#: timers) get their turn again; a read is one datagram, or one burst
#: the server sent in one kernel crossing.
_DRAIN_READS = 128

#: Reads per ring: the depth of the receive arena the pump's clients share.
_RING_SLOTS = 2

#: Payload bytes per data packet the pump expects: the service's
#: default, the paper's 1 KB packets.
DEFAULT_PACKET_BYTES = 1024

#: What a queued datagram carrying one ``DEFAULT_PACKET_BYTES`` packet
#: is charged against its socket's ``SO_RCVBUF``: the kernel counts the
#: buffer it allocated (2 KiB of data and the bookkeeping structure),
#: not the bytes that arrived, so the default 212,992-byte buffer holds
#: 92 such datagrams, not 200.  ``tests/service/test_matched_speeds.py``
#: fills an unread socket to check that no more is charged than this.
DATAGRAM_CHARGE_BYTES = 2304


def _receive_credit(sock: socket.socket, size: int) -> Optional[int]:
    """Make room on ``sock`` for a body of ``size`` bytes, arriving
    before any of it is read; returns None when the whole body (and its
    verdict) fits, else the number of packets that do.

    The paper's blast assumes the receiver set buffers aside for the
    whole transfer before asking for it.  Here that is the kernel's
    receive buffer: it is raised (never lowered) to what the body will
    be charged, and what the kernel granted is read back, because
    ``net.core.rmem_max`` caps the request silently.
    """
    needed = (packet_count(size, DEFAULT_PACKET_BYTES) + 1) \
        * DATAGRAM_CHARGE_BYTES
    granted = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    if granted < needed:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, needed)
        granted = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        if granted < needed:
            # One datagram's room stays free for the verdict, which may
            # still be queued when the first burst lands.
            return max(1, granted // DATAGRAM_CHARGE_BYTES - 1)
    return None


def _take_ring(machine: PullMachine, batch, now: float):
    """One ring of reads to ``machine``: frames to ``on_frames`` until the
    verdict is in, then one run to ``on_run``; returns its replies."""
    if not machine.pulling:
        return machine.on_run(*decode_data_run(
            [view for view, _sender in batch], machine.stream_id), now)
    frames = []
    for view, _sender in batch:
        try:
            frames.append(decode(view))
        except WireError:
            continue  # corrupted: exactly like a loss
    return machine.on_frames(frames, now)


class _PumpClient:
    """One client socket carrying one :class:`PullMachine`."""

    def __init__(self, stream_id: int, size: int, server, ring_slots: int,
                 slot_bytes: int, beside: Optional["_PumpClient"] = None,
                 **pull):
        self.stream_id = stream_id
        self.server = server
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.bind(("127.0.0.1", 0))
        self.sock = raw
        self.machine = PullMachine(stream_id, size,
                                   credit=_receive_credit(raw, size), **pull)
        # One pump is one thread: its clients read into and stage in
        # the arenas of the first.
        self.io = (DatagramBatchIO(raw, ring_slots=ring_slots,
                                   slot_bytes=slot_bytes)
                   if beside is None else beside.io.sibling(raw))
        self._ring_slots = ring_slots
        self.next_timer = 0.0       # when the current quiet period ends
        #: Deadline of this client's entry in the pump's timer heap.
        self.armed = 0.0

    def _stage(self, frames, now: float) -> None:
        for frame in frames:
            self.io.send_frame(frame, self.server)
        self.next_timer = now + self.machine.quiet_s

    def start(self, now: float) -> None:
        self._stage(self.machine.start(now), now)
        self.io.flush()

    def on_timer(self, now: float) -> None:
        if now >= self.next_timer:
            self._stage(self.machine.on_quiet(now), now)
            self.io.flush()

    def on_readable(self, now: float) -> bool:
        """Consume one ring of reads and send what the machine answers
        in one flush; True if the ring came back full, so more may be
        waiting."""
        machine = self.machine
        io = self.io
        reads = io.recv_calls
        batch = io.recv_batch()
        more = io.recv_calls - reads == self._ring_slots
        replies = _take_ring(machine, batch, now)
        if replies is not None:
            for reply in replies:
                io.send_frame(reply, self.server)
            # ``now`` is the ring's: one restart, in the state it ended in.
            self.next_timer = now + machine.quiet_s
            if machine.done:
                more = False
        io.flush()
        return more

    def close(self) -> None:
        self.sock.close()


@dataclass
class PumpRunStats:
    """Wall-clock facts of one pump run (machine-dependent)."""

    clients: int
    ok: int
    payload_bytes: int
    elapsed_s: float


class UdpClientPump:
    """Drives N concurrent pulls over one selector in one thread."""

    def __init__(
        self,
        server: Tuple[str, int],
        sizes: Sequence[int],
        protocol: str = "blast",
        strategy: str = "selective",
        pull_timeout_s: float = 0.25,
        pull_retries: int = 40,
        recv_timeout_s: float = 5.0,
        linger_s: float = 0.1,
        first_stream: int = 1,
        slot_bytes: int = RECV_BUFFER_BYTES,
        servers: Optional[Sequence[Tuple[str, int]]] = None,
    ):
        # ``servers`` gives each client its own server address — the
        # cluster's hash placement maps stream k to shard address
        # servers[k-first_stream].  Default: everyone talks to ``server``.
        if servers is not None and len(servers) != len(sizes):
            raise ValueError("servers and sizes must have equal length")
        self.clients: List[_PumpClient] = []
        for index, size in enumerate(sizes):
            self.clients.append(_PumpClient(
                first_stream + index, size,
                server if servers is None else servers[index],
                _RING_SLOTS, slot_bytes,
                beside=self.clients[0] if self.clients else None,
                protocol=protocol, strategy=strategy,
                pull_timeout_s=pull_timeout_s, pull_retries=pull_retries,
                recv_timeout_s=recv_timeout_s, linger_s=linger_s))
        self._drain_rings = _DRAIN_READS // _RING_SLOTS
        self.stats: Optional[PumpRunStats] = None

    def run(self, overall_timeout_s: float = 60.0) -> Dict[int, UdpPullResult]:
        """Pump every client to completion; returns pull verdicts."""
        selector = selectors.DefaultSelector()
        monotonic = time.monotonic
        start = monotonic()
        deadline = start + overall_timeout_s
        pending = set()
        # Lazy deadline heap, one live entry per pending client:
        # (deadline, serial, client), live while ``deadline ==
        # client.armed``.  Every frame a client consumes moves its
        # quiet period later, so the receive path never touches the
        # heap: an entry that pops early is pushed back at the time the
        # client names by then.  The one move the other way (a
        # completed pull's short linger) arms a second entry and leaves
        # the first to pop dead.
        timers: List[Tuple[float, int, _PumpClient]] = []
        serial = count()
        try:
            for client in self.clients:
                selector.register(client.io.fileno(), selectors.EVENT_READ,
                                  client)
                client.start(0.0)
                client.armed = client.next_timer
                heappush(timers, (client.armed, next(serial), client))
                pending.add(client)
            while pending:
                now = monotonic() - start
                if now + start >= deadline:
                    break
                wait = min(max(timers[0][0] - now, 0.0), _MAX_WAIT_S)
                for key, _events in selector.select(wait):
                    client = key.data
                    for _ring in range(self._drain_rings):
                        if not client.on_readable(monotonic() - start):
                            break
                    if client.machine.done:
                        pending.discard(client)
                    elif client.next_timer < client.armed:
                        client.armed = client.next_timer
                        heappush(timers, (client.armed, next(serial), client))
                now = monotonic() - start
                while timers and timers[0][0] <= now:
                    due, _serial, client = timers[0]
                    if client not in pending or due != client.armed:
                        heappop(timers)     # finished, or re-armed earlier
                        continue
                    client.on_timer(now)    # a no-op before next_timer
                    if client.machine.done:
                        pending.discard(client)
                        heappop(timers)
                    else:
                        client.armed = client.next_timer
                        heapreplace(
                            timers, (client.armed, next(serial), client))
        finally:
            selector.close()
            results: Dict[int, UdpPullResult] = {}
            for client in self.clients:
                if client.machine.result is not None:
                    results[client.stream_id] = client.machine.result
                client.close()
            ok = [r for r in results.values() if r.ok]
            # Makespan to the *last delivered payload* — the linger
            # window (a liveness courtesy, not transfer work) is
            # excluded so goodput reflects the service, not the tail.
            done_times = [
                client.machine.started + client.machine.result.elapsed_s
                for client in self.clients
                if client.machine.result is not None
            ]
            elapsed = max(done_times) if done_times \
                else time.monotonic() - start
            self.stats = PumpRunStats(
                clients=len(self.clients),
                ok=len(ok),
                payload_bytes=sum(r.size_bytes for r in ok),
                elapsed_s=elapsed,
            )
        return results

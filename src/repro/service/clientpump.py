"""Single-threaded multi-client driver for the UDP transfer service.

:class:`UdpClientPump` multiplexes every client socket under one
``selectors`` poll in one thread — the same readiness discipline as the
server.  One thread per client would make a 256-client throughput
number measure the GIL and the OS scheduler, not the service loop, so
this is the only UDP driver of the pull protocol: the tests, ``repro
loadgen``, the perf suites, the cluster and layerbench all use it.

The protocol itself lives in :class:`~repro.service.pullclient
.PullMachine`; a pump client is a socket, a batch I/O layer and the
machine's quiet-period contract on the wall clock: every frame the
machine wants, and every expiry of ``next_timer``, is forwarded to it,
its frames are sent, and ``next_timer = now + machine.quiet_s``.
Frames the machine does not want are dropped (UDP semantics: the
protocol's retransmission repairs it).

All datagram I/O goes through :class:`~repro.service.iobatch
.DatagramBatchIO` (non-blocking, batched receives, zero-copy sends).
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.wire import WireError, decode
from ..udpnet.endpoints import RECV_BUFFER_BYTES
from .iobatch import DatagramBatchIO
from .pullclient import PullMachine, UdpPullResult

__all__ = ["UdpClientPump"]

#: Pump never sleeps longer than this between timer sweeps.
_MAX_WAIT_S = 0.05


class _PumpClient:
    """One client socket carrying one :class:`PullMachine`."""

    def __init__(self, machine: PullMachine, server, ring_slots: int,
                 slot_bytes: int):
        self.machine = machine
        self.stream_id = machine.stream_id
        self.server = server
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.bind(("127.0.0.1", 0))
        self.sock = raw
        self.io = DatagramBatchIO(raw, ring_slots=ring_slots,
                                  slot_bytes=slot_bytes)
        self.next_timer = 0.0       # when the current quiet period ends

    def _send(self, frames, now: float) -> None:
        for frame in frames:
            self.io.send_frame(frame, self.server)
        self.next_timer = now + self.machine.quiet_s

    def start(self, now: float) -> None:
        self._send(self.machine.start(now), now)

    def on_timer(self, now: float) -> None:
        if now >= self.next_timer:
            self._send(self.machine.on_quiet(now), now)

    def on_readable(self, now: float) -> None:
        machine = self.machine
        for view, _sender in self.io.recv_batch():
            try:
                frame = decode(view)
            except WireError:
                continue  # corrupted: exactly like a loss
            if machine.wants(frame):
                self._send(machine.on_frame(frame, now), now)
                if machine.done:
                    return

    def close(self) -> None:
        self.sock.close()


@dataclass
class PumpRunStats:
    """Wall-clock facts of one pump run (machine-dependent)."""

    clients: int
    ok: int
    payload_bytes: int
    elapsed_s: float

    @property
    def per_client_goodput_bytes_per_s(self) -> float:
        if self.elapsed_s <= 0 or self.clients == 0:
            return 0.0
        return self.payload_bytes / self.elapsed_s / self.clients


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
        ring_slots: int = 2,
        slot_bytes: int = RECV_BUFFER_BYTES,
        servers: Optional[Sequence[Tuple[str, int]]] = None,
    ):
        # ``servers`` gives each client its own server address — the
        # cluster's hash placement maps stream k to shard address
        # servers[k-first_stream].  Default: everyone talks to ``server``.
        if servers is not None and len(servers) != len(sizes):
            raise ValueError("servers and sizes must have equal length")
        self.clients: List[_PumpClient] = [
            _PumpClient(
                PullMachine(first_stream + index, size, protocol, strategy,
                            pull_timeout_s, pull_retries, recv_timeout_s,
                            linger_s),
                server if servers is None else servers[index],
                ring_slots, slot_bytes)
            for index, size in enumerate(sizes)
        ]
        self.stats: Optional[PumpRunStats] = None

    def run(self, overall_timeout_s: float = 60.0) -> Dict[int, UdpPullResult]:
        """Pump every client to completion; returns pull verdicts."""
        selector = selectors.DefaultSelector()
        start = time.monotonic()
        deadline = start + overall_timeout_s
        pending = set()
        try:
            for client in self.clients:
                selector.register(client.io.fileno(), selectors.EVENT_READ,
                                  client)
                client.start(0.0)
                pending.add(client)
            while pending:
                now = time.monotonic() - start
                if now + start >= deadline:
                    break
                next_timer = min(c.next_timer for c in pending)
                wait = min(max(next_timer - now, 0.0), _MAX_WAIT_S)
                for key, _events in selector.select(wait):
                    client = key.data
                    client.on_readable(time.monotonic() - start)
                now = time.monotonic() - start
                for client in list(pending):
                    client.on_timer(now)
                    if client.machine.done:
                        pending.discard(client)
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

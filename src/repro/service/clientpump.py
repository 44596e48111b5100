"""Single-threaded multi-client driver for the UDP transfer service.

The scaling suites need 16/64/256 concurrent loopback clients.  One
thread per client (the :mod:`repro.service.loadgen` driver) is fine for
correctness tests, but at 256 threads a throughput number measures the
GIL and the OS scheduler, not the service loop.  :class:`UdpClientPump`
multiplexes every client socket under one ``selectors`` poll in one
thread — the same readiness discipline as the server — so the client
side adds as little scheduling noise as Python allows.

Each client replays the exact state machine of
:meth:`~repro.service.udpservice.UdpServiceClient.pull`:

1. **pull** — send the control request, retrying every
   ``pull_timeout_s`` until the JSON response arrives;
2. **receive** — feed data frames for the stream to the protocol
   receiver, transmit its replies, refresh the stall deadline on
   progress; on completion, verify the payload byte-for-byte against
   :func:`~repro.service.machines.service_payload`;
3. **linger** — keep answering ``wants_reply`` duplicates briefly so a
   lost final ACK cannot wedge the server's sender machine.

All datagram I/O goes through :class:`~repro.service.iobatch
.DatagramBatchIO` (non-blocking, batched receives, zero-copy sends).
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.frames import ControlFrame
from ..core.wire import WireError, decode, encode
from ..udpnet.endpoints import RECV_BUFFER_BYTES
from .iobatch import DatagramBatchIO
from .machines import receiver_for, service_payload
from .udpservice import UdpPullResult

__all__ = ["UdpClientPump", "drive_udp_clients_pump"]

#: Pump never sleeps longer than this between timer sweeps.
_MAX_WAIT_S = 0.05

# Client states.
_PULLING = 0
_RECEIVING = 1
_LINGER = 2
_DONE = 3


class _PumpClient:
    """One client socket and its pull state machine."""

    def __init__(self, stream_id: int, size: int, server, protocol: str,
                 strategy: str, pull_timeout_s: float, pull_retries: int,
                 recv_timeout_s: float, linger_s: float, ring_slots: int,
                 slot_bytes: int):
        self.stream_id = stream_id
        self.size = size
        self.server = server
        self.protocol = protocol
        self.strategy = strategy
        self.pull_timeout_s = pull_timeout_s
        self.pull_retries = pull_retries
        self.recv_timeout_s = recv_timeout_s
        self.linger_s = linger_s
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.bind(("127.0.0.1", 0))
        self.sock = raw
        self.io = DatagramBatchIO(raw, ring_slots=ring_slots,
                                  slot_bytes=slot_bytes)
        body = json.dumps({"op": "pull", "size": size, "stream": stream_id},
                          sort_keys=True).encode()
        self._request = encode(ControlFrame(transfer_id=0,
                                            request_id=stream_id, body=body))
        self.state = _PULLING
        self.started = 0.0
        self.attempts = 0
        self.next_timer = 0.0       # next retry / stall / linger deadline
        self.receiver = None
        self.seed: Optional[int] = None
        self.result: Optional[UdpPullResult] = None

    # -- timers -------------------------------------------------------------
    def start(self, now: float) -> None:
        self.started = now
        self._send_request(now)

    def _send_request(self, now: float) -> None:
        self.attempts += 1
        self.io.send_datagram(self._request, self.server)
        self.next_timer = now + self.pull_timeout_s

    def on_timer(self, now: float) -> None:
        if self.state == _DONE or now < self.next_timer:
            return
        if self.state == _PULLING:
            if self.attempts >= self.pull_retries:
                self._finish(UdpPullResult(
                    self.stream_id, "no-response",
                    elapsed_s=now - self.started,
                    error="control response never arrived"))
            else:
                self._send_request(now)
        elif self.state == _RECEIVING:
            self._finish(UdpPullResult(
                self.stream_id, "stalled", elapsed_s=now - self.started,
                error="transfer stalled before completion"))
        elif self.state == _LINGER:
            self.state = _DONE

    # -- frames -------------------------------------------------------------
    def on_readable(self, now: float) -> None:
        for view, _sender in self.io.recv_batch():
            try:
                frame = decode(view)
            except WireError:
                continue  # corrupted: exactly like a loss
            self._on_frame(frame, now)
            if self.state == _DONE:
                return

    def _on_frame(self, frame, now: float) -> None:
        if self.state == _PULLING:
            if (isinstance(frame, ControlFrame)
                    and frame.request_id == self.stream_id
                    and frame.stream_id in (0, self.stream_id)):
                try:
                    response = json.loads(frame.body.decode())
                except (ValueError, UnicodeDecodeError):
                    return
                self._on_response(response, now)
            return
        if getattr(frame, "stream_id", 0) != self.stream_id:
            return
        replies = self.receiver.on_frame(frame, now - self.started)
        for reply in replies:
            self.io.send_frame(reply, self.server)
        if self.state == _RECEIVING:
            if replies or not isinstance(frame, ControlFrame):
                self.next_timer = now + self.recv_timeout_s
            if self.receiver.done:
                self._verify(now)

    def _on_response(self, response: dict, now: float) -> None:
        if response.get("status") != "ok":
            self._finish(UdpPullResult(
                self.stream_id, response.get("status", "error"),
                elapsed_s=now - self.started,
                error=response.get("reason", "")))
            return
        self.seed = response["seed"]
        self.receiver = receiver_for(response.get("protocol", self.protocol),
                                     self.stream_id, self.strategy)
        self.state = _RECEIVING
        self.next_timer = now + self.recv_timeout_s

    def _verify(self, now: float) -> None:
        data = self.receiver.data
        expected = service_payload(self.seed, self.stream_id, self.size)
        self.result = UdpPullResult(
            self.stream_id, "ok", size_bytes=len(data),
            payload_ok=data == expected,
            duplicates=self.receiver.duplicates,
            elapsed_s=now - self.started,
        )
        # Linger: the socket stays registered and keeps re-answering
        # wants_reply duplicates until the linger window closes.
        self.state = _LINGER
        self.next_timer = now + self.linger_s

    def _finish(self, result: UdpPullResult) -> None:
        self.result = result
        self.state = _DONE

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
            _PumpClient(first_stream + index, size,
                        server if servers is None else servers[index],
                        protocol, strategy, pull_timeout_s, pull_retries,
                        recv_timeout_s, linger_s, ring_slots, slot_bytes)
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
                    if client.state == _DONE:
                        pending.discard(client)
        finally:
            selector.close()
            results: Dict[int, UdpPullResult] = {}
            for client in self.clients:
                if client.result is not None:
                    results[client.stream_id] = client.result
                client.close()
            ok = [r for r in results.values() if r.ok]
            # Makespan to the *last delivered payload* — the linger
            # window (a liveness courtesy, not transfer work) is
            # excluded so goodput reflects the service, not the tail.
            done_times = [
                client.started + client.result.elapsed_s
                for client in self.clients if client.result is not None
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


def drive_udp_clients_pump(
    address: Tuple[str, int],
    sizes: Sequence[int],
    protocol: str = "blast",
    strategy: str = "selective",
    recv_timeout_s: float = 5.0,
    overall_timeout_s: float = 60.0,
    first_stream: int = 1,
    **kwargs,
) -> Dict[int, UdpPullResult]:
    """Functional wrapper mirroring ``loadgen.drive_udp_clients``."""
    pump = UdpClientPump(address, sizes, protocol=protocol,
                         strategy=strategy, recv_timeout_s=recv_timeout_s,
                         first_stream=first_stream, **kwargs)
    return pump.run(overall_timeout_s=overall_timeout_s)

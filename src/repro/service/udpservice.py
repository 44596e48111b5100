"""The concurrent service on real UDP sockets.

:class:`UdpTransferService` is the socket-side twin of the DES runner:
one datagram socket, a single-threaded event loop, and the *same*
:class:`~repro.service.engine.ServiceCore` making every admission and
scheduling decision.  Client identity is the datagram source address;
the loop's clock is seconds since serve() started, so the metrics
report has the same shape on both substrates (absolute values differ —
wall time is not simulated time).

The event loop is readiness-driven: a ``selectors`` poll on the
non-blocking socket replaces the old per-datagram timeout-armed
receive, and all datagram I/O goes through the batched zero-copy layer
(:class:`~repro.service.iobatch.DatagramBatchIO`).  One wakeup now
drains a whole ring of datagrams, feeds them all to the core, and
flushes a whole batch of grants — the per-packet software overhead the
paper identifies as the bottleneck is paid once per *batch* instead of
once per datagram.  The loop still never blocks without a bound: the
poll timeout is derived from the core's ``next_deadline`` and the fault
layer's held-datagram due times, clamped to ``MAX_WAIT_S`` so stop
requests and duration limits stay responsive.  When a positive wait
expires with nothing readable, fault-held (reordered) datagrams are
force-flushed — the same "bounded plans never wedge" guarantee the old
per-receive timeout provided.

:class:`UdpServiceClient` pulls one stream and verifies it end to end
against :func:`~repro.service.machines.service_payload` — the client
recomputes the expected body from the (seed, stream) pair the ok
response echoes, so payload integrity needs no checksum exchange.
"""

from __future__ import annotations

import json
import selectors
import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.frames import ControlFrame
from ..core.wire import WireError, decode, encode
from ..faults.plan import FaultPlan
from ..simnet.errors import ErrorModel
from ..udpnet.endpoints import UdpEndpoint
from .engine import ServiceConfig, ServiceCore
from .iobatch import DatagramBatchIO
from .machines import receiver_for, service_payload

__all__ = ["UdpTransferService", "UdpServiceClient", "UdpPullResult"]

#: Loop never sleeps longer than this (keeps stop()/duration responsive).
MAX_WAIT_S = 0.05
#: Frames granted (and sent) per wakeup before draining receives again.
SEND_BATCH = 128


class UdpTransferService(UdpEndpoint):
    """Single-threaded multi-transfer server on one UDP socket."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        error_model: Optional[ErrorModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: Optional[int] = None,
        reuse_port: bool = False,
    ):
        self.config = config or ServiceConfig()
        super().__init__(
            bind=bind,
            error_model=error_model,
            packet_bytes=self.config.packet_bytes,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
            reuse_port=reuse_port,
        )
        self.core = ServiceCore(self.config)
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask :meth:`serve` to return after its current wait."""
        self._stop.set()

    def serve(
        self,
        expected_streams: Optional[int] = None,
        duration_s: Optional[float] = None,
    ) -> bool:
        """Run the readiness-driven event loop.

        Returns True once ``expected_streams`` transfers have settled
        (completed, failed, or been rejected) with nothing left in
        flight; returns False on ``duration_s`` expiry or :meth:`stop`.

        Each wakeup: flush up to ``SEND_BATCH`` granted frames through
        the batch layer, poll the selector with a deadline-bounded
        timeout (one syscall, however many clients are talking), drain
        the whole receive ring, and feed every frame to the core.  A
        quiet positive-wait expiry force-flushes fault-held datagrams,
        matching the old per-receive timeout semantics.
        """
        start = time.monotonic()
        core = self.core
        batch = DatagramBatchIO(self.sock)
        selector = selectors.DefaultSelector()
        selector.register(batch.fileno(), selectors.EVENT_READ)
        monotonic = time.monotonic
        try:
            while not self._stop.is_set():
                now = monotonic() - start
                # One timer pass, then repeated grant passes: the core
                # advances machine timers once per batch, not once per
                # inner grant quantum (see ServiceCore.drain_sends).
                for frame, addr in core.drain_sends(now, SEND_BATCH):
                    batch.send_frame(frame, addr)
                settled = (core.finished_count
                           + len(core.metrics.rejections))
                if (expected_streams is not None
                        and settled >= expected_streams and core.idle):
                    return True
                if duration_s is not None and now >= duration_s:
                    return False
                deadline = core.next_deadline(now)
                if deadline is None:
                    wait = MAX_WAIT_S
                else:
                    wait = min(max(deadline - now, 0.0), MAX_WAIT_S)
                held_due = batch.next_held_due()
                if held_due is not None:
                    wait = min(wait, max(held_due - monotonic(), 0.0))
                if batch.has_ready:
                    wait = 0.0
                selector.select(wait)
                datagrams = batch.recv_batch()
                if not datagrams and wait > 0.0 and batch.flush_held():
                    # The wait expired with nothing readable: release
                    # reorder-held datagrams so a bounded plan can never
                    # wedge the loop (deadline-expiry semantics of the
                    # old blocking receive).
                    datagrams = batch.recv_batch()
                for view, addr in datagrams:
                    try:
                        frame = decode(view)
                    except WireError:
                        continue  # corrupted: exactly like a loss
                    for out, dst in core.on_frame(
                            frame, monotonic() - start, client=addr):
                        batch.send_frame(out, dst)
            # Graceful stop: flush every already-granted frame before
            # returning, so receivers are not cut off mid-window and the
            # final metrics report reflects all work the core admitted.
            now = monotonic() - start
            while True:
                drained = core.drain_sends(now, SEND_BATCH)
                if not drained:
                    break
                for frame, addr in drained:
                    batch.send_frame(frame, addr)
        finally:
            selector.close()
        return False

    def report_json(self) -> str:
        return self.core.report_json()

    def report_table(self) -> str:
        return self.core.report_table()

    def canonical_report_json(self) -> str:
        """Deterministic outcome projection (see ServiceMetrics)."""
        return self.core.metrics.canonical_json()


@dataclass
class UdpPullResult:
    """One client-side pull, verified end to end."""

    stream_id: int
    status: str
    size_bytes: int = 0
    payload_ok: bool = False
    duplicates: int = 0
    elapsed_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.payload_ok


class UdpServiceClient(UdpEndpoint):
    """Pulls streams from a :class:`UdpTransferService`."""

    def __init__(
        self,
        server: Tuple[str, int],
        protocol: str = "blast",
        strategy: str = "selective",
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        error_model: Optional[ErrorModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: Optional[int] = None,
        pull_timeout_s: float = 0.25,
        pull_retries: int = 40,
        recv_timeout_s: float = 2.0,
        linger_s: float = 0.3,
    ):
        super().__init__(bind=bind, error_model=error_model,
                         fault_plan=fault_plan, fault_seed=fault_seed)
        self.server = server
        self.protocol = protocol
        self.strategy = strategy
        self.pull_timeout_s = pull_timeout_s
        self.pull_retries = pull_retries
        self.recv_timeout_s = recv_timeout_s
        self.linger_s = linger_s
        # Send-only batch layer for the control request; receives (and
        # the receiver machine's replies) stay on the endpoint's
        # blocking path, so the socket keeps its timeout-driven mode.
        self._io = DatagramBatchIO(self.sock, ring_slots=1,
                                   nonblocking=False)

    def pull(self, stream_id: int, size: int) -> UdpPullResult:
        """Request stream ``stream_id`` of ``size`` bytes and receive it."""
        started = time.monotonic()
        body = json.dumps({"op": "pull", "size": size, "stream": stream_id},
                          sort_keys=True).encode()
        request = encode(ControlFrame(transfer_id=0, request_id=stream_id,
                                      body=body))
        response = None
        for _ in range(self.pull_retries):
            self._io.send_datagram(request, self.server)
            response = self._await_reply(stream_id, self.pull_timeout_s)
            if response is not None:
                break
        if response is None:
            return UdpPullResult(stream_id, "no-response",
                                 elapsed_s=time.monotonic() - started,
                                 error="control response never arrived")
        if response.get("status") != "ok":
            return UdpPullResult(stream_id, response.get("status", "error"),
                                 elapsed_s=time.monotonic() - started,
                                 error=response.get("reason", ""))

        # Auto-tuned servers tell the client which protocol they picked
        # for this stream; otherwise the configured protocol applies.
        receiver = receiver_for(response.get("protocol", self.protocol),
                                stream_id, self.strategy)
        # The shared endpoint loop carries the receiver: it answers the
        # server's frames, and once complete lingers re-answering
        # wants_reply duplicates so a lost final ACK cannot wedge the
        # server's sender machine.
        self._drive_receiver(receiver, self.recv_timeout_s, self.linger_s)
        if not receiver.done:
            return UdpPullResult(
                stream_id, "stalled",
                elapsed_s=time.monotonic() - started,
                error="transfer stalled before completion",
            )
        data = receiver.data
        expected = service_payload(response["seed"], stream_id, size)
        return UdpPullResult(
            stream_id,
            "ok",
            size_bytes=len(data),
            payload_ok=data == expected,
            duplicates=receiver.duplicates,
            elapsed_s=time.monotonic() - started,
        )

    def _await_reply(self, stream_id: int, timeout_s: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            got = self._recv_frame(timeout_s=remaining)
            if got is None:
                return None
            frame, _sender = got
            if (isinstance(frame, ControlFrame)
                    and frame.request_id == stream_id
                    and frame.stream_id in (0, stream_id)):
                try:
                    return json.loads(frame.body.decode())
                except (ValueError, UnicodeDecodeError):
                    return None

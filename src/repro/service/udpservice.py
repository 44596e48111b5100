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
drains a whole ring of datagrams, feeds them all to the core, stages
its replies and a whole batch of grants, and flushes them once before
it waits again — the per-packet software overhead the paper identifies
as the bottleneck is paid once per *burst* (one segmented send per
destination) instead of once per datagram.  The loop still never
blocks without a bound: the poll timeout is derived from the core's
``next_deadline`` and the fault layer's held-datagram due times,
clamped to ``MAX_WAIT_S`` so stop requests and duration limits stay
responsive.  When a positive wait expires with nothing readable,
fault-held (reordered) datagrams are force-flushed — the same "bounded
plans never wedge" guarantee the old per-receive timeout provided.

The client side is :class:`~repro.service.clientpump.UdpClientPump`.
"""

from __future__ import annotations

import selectors
import threading
import time
from typing import Optional, Tuple

from ..core.wire import HEADER2_BYTES, WireError, decode
from ..faults.plan import FaultPlan
from ..simnet.errors import ErrorModel
from ..udpnet.endpoints import UdpEndpoint
from .engine import ServiceConfig, ServiceCore
from .iobatch import MAX_RUN_BYTES

__all__ = ["UdpTransferService", "deliver_ring"]

#: Loop never sleeps longer than this (keeps stop()/duration responsive).
MAX_WAIT_S = 0.05
#: Frames granted (and sent) per wakeup before draining receives again.
SEND_BATCH = 128


def deliver_ring(core: ServiceCore, batch, datagrams, now: float) -> None:
    """Feed one ring of datagrams to ``core`` at one ``now``, staging its
    answers on ``batch``: each run of consecutive ACKs from one client for
    one stream in one ``on_acks`` call, without building a frame."""
    stream = client = None      # whose ACKs ``seqs`` holds
    seqs = []
    for view, addr in datagrams:
        try:
            frame = decode(view, True)
        except WireError:
            continue  # corrupted: exactly like a loss
        if type(frame) is tuple:
            if frame[0] != stream or addr != client:
                if seqs:
                    core.on_acks(stream, seqs, now, client=client)
                stream, client, seqs = frame[0], addr, []
            seqs.append(frame[1])
            continue
        if seqs:
            core.on_acks(stream, seqs, now, client=client)
            stream, seqs = None, []
        for out, dst in core.on_frame(frame, now, client=addr):
            batch.send_frame(out, dst)
    if seqs:
        core.on_acks(stream, seqs, now, client=client)


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
        # A data frame (stream header + packet) must fit one datagram,
        # or the first grant would kill serve() in the codec or sendto.
        if self.config.packet_bytes + HEADER2_BYTES > MAX_RUN_BYTES:
            raise ValueError(
                f"packet_bytes {self.config.packet_bytes} + the "
                f"{HEADER2_BYTES}-byte header exceeds the largest UDP "
                f"datagram ({MAX_RUN_BYTES} bytes)"
            )
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

        Each wakeup: stage up to ``SEND_BATCH`` granted frames behind
        the replies the last wakeup staged, flush them (once per turn,
        before the wait and before every return, so nothing staged is
        ever left behind), poll the selector with a deadline-bounded
        timeout (one syscall, however many clients are talking), drain
        the whole receive ring, and feed every frame to the core.  A
        quiet positive-wait expiry force-flushes fault-held datagrams,
        matching the old per-receive timeout semantics.
        """
        start = time.monotonic()
        core = self.core
        batch = self.io
        selector = selectors.DefaultSelector()
        selector.register(batch.fileno(), selectors.EVENT_READ)
        monotonic = time.monotonic

        try:
            while not self._stop.is_set():
                now = monotonic() - start
                # One timer pass and one grant pass fill the whole
                # send batch (see ServiceCore.drain_sends).
                for frame, addr in core.drain_sends(now, SEND_BATCH):
                    batch.send_frame(frame, addr)
                batch.flush()
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
                deliver_ring(core, batch, datagrams, monotonic() - start)
            # Graceful stop: take in what the kernel has already
            # delivered (one ring, no waiting) — a final ACK that
            # arrived while the loop was busy sending would otherwise
            # be reported as an unfinished transfer — then flush every
            # already-granted frame, so receivers are not cut off
            # mid-window and the final metrics report reflects all work
            # the core admitted.
            deliver_ring(core, batch, batch.recv_batch(), monotonic() - start)
            now = monotonic() - start
            while True:
                drained = core.drain_sends(now, SEND_BATCH)
                if not drained:
                    break
                for frame, addr in drained:
                    batch.send_frame(frame, addr)
            batch.flush()
        finally:
            selector.close()
        return False

    def _io_stats(self) -> Optional[dict]:
        """The report's ``io`` section: the batch layer's counters."""
        return None if self._io is None else self._io.stats()

    def report_json(self) -> str:
        return self.core.metrics.to_json(self.config.to_dict(),
                                         self._io_stats())

    def report_table(self) -> str:
        return self.core.metrics.render_table(self.config.to_dict(),
                                              self._io_stats())

    def canonical_report_json(self) -> str:
        """Deterministic outcome projection (see ServiceMetrics)."""
        return self.core.metrics.canonical_json()


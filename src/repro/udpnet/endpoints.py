"""Shared plumbing for the UDP protocol endpoints.

:class:`UdpEndpoint` owns the socket, the one batch layer
(:class:`~repro.service.iobatch.DatagramBatchIO`) every datagram enters
and leaves through, and the two blocking driver loops that carry a
substrate-free protocol machine (:mod:`repro.service.machines`) over
it: the loops supply the clock and move frames, the machine makes every
protocol decision.  They are duck-typed — this module imports no
machine.  The loops only *stage* what they send; the wait
(:meth:`UdpEndpoint._recv_frame`) flushes before it blocks, so a burst
crosses the kernel once.  Absolute throughput over loopback is bounded
by the Python interpreter, so the benches assert protocol *orderings*,
not megabits (see EXPERIMENTS.md).
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.wire import WireError, decode
from ..faults.plan import FaultPlan
from ..faults.socket import RECV_BUFFER_BYTES, FaultySocket
from ..service.iobatch import DatagramBatchIO
from ..simnet.errors import ErrorModel

__all__ = [
    "UdpEndpoint",
    "UdpTransferOutcome",
    "DEFAULT_PACKET_BYTES",
    "RECV_BUFFER_BYTES",
]

#: Payload bytes per data packet — the paper's 1 KB packets.
DEFAULT_PACKET_BYTES = 1024

#: A sender burst is flushed, and the processor yielded, after this many
#: frames.  Loopback has no wire to pace a blast: the whole burst would
#: leave before a receiver sharing this process (or this core) runs at
#: all, and the kernel's default socket queue holds only about 90
#: one-kilobyte datagrams, so the tail of every longer burst would be
#: dropped.  (It stays until a push handshake can advertise the
#: receiver's credit, as the pull verdict does: ROADMAP item 3.)
YIELD_EVERY_FRAMES = 32

# RECV_BUFFER_BYTES is defined in :mod:`repro.faults.socket` (the
# lowest layer that owns a receive buffer) and re-exported here:
# FaultySocket's scratch buffer and the batch-I/O arenas in
# :mod:`repro.service.iobatch` size their buffers with it.


@dataclass
class UdpTransferOutcome:
    """Result of one UDP transfer (sender or receiver side)."""

    ok: bool
    elapsed_s: float
    payload_bytes: int
    n_packets: int
    data: bytes = b""
    data_frames_sent: int = 0
    reply_frames_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    rounds: int = 0
    duplicates: int = 0
    error: str = ""

    @property
    def throughput_bps(self) -> float:
        """Delivered payload bits per second (interpreter-bound!)."""
        if self.elapsed_s <= 0:
            return 0.0
        return 8.0 * self.payload_bytes / self.elapsed_s


class UdpEndpoint:
    """Base class owning a UDP socket: the kernel's own, or a
    :class:`~repro.faults.socket.FaultySocket` around it when an error
    model or a fault plan is given."""

    def __init__(
        self,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        error_model: Optional[ErrorModel] = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: Optional[int] = None,
        reuse_port: bool = False,
    ):
        if packet_bytes < 1:
            raise ValueError(f"packet_bytes must be >= 1, got {packet_bytes}")
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            if reuse_port:
                # Cluster placement mode: N worker processes bind the same
                # (host, port) and the kernel hashes each client's 4-tuple
                # to one of them (see repro.cluster.placement).
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            raw.bind(bind)
        except BaseException:
            raw.close()  # a restarted worker's port may still be taken
            raise
        # A fault-free endpoint talks to the kernel socket directly: the
        # wrapper would add two Python frames and a clock read to every
        # datagram for nothing, and its plan must see one datagram per
        # call, which rules out segmented sends and coalesced reads.
        if error_model is None and fault_plan is None:
            self.sock = raw
        else:
            self.sock = FaultySocket(raw, error_model=error_model,
                                     plan=fault_plan, seed=fault_seed)
        self.packet_bytes = packet_bytes
        self._io: Optional[DatagramBatchIO] = None
        #: Decoded ``(frame, sender)`` pairs one read brought in beyond
        #: the one :meth:`_recv_frame` was asked for.
        self._inbox: deque = deque()

    @property
    def io(self) -> DatagramBatchIO:
        """The batch layer over :attr:`sock`: the only way a datagram
        enters or leaves the endpoint.  Built at first use (it makes
        the socket non-blocking and asks the kernel to coalesce)."""
        if self._io is None:
            self._io = DatagramBatchIO(self.sock)
        return self._io

    @property
    def address(self) -> Tuple[str, int]:
        """The endpoint's bound (host, port)."""
        return self.sock.getsockname()

    def close(self) -> None:
        """Release the socket."""
        self.sock.close()

    def __enter__(self) -> "UdpEndpoint":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

    # -- I/O helpers --------------------------------------------------------
    def _recv_frame(self, timeout_s: Optional[float]):
        """Receive one valid frame, or None on timeout.

        Everything staged is flushed before the wait.  The wait is
        bounded by the fault layer's next held-datagram due time, and
        when it expires with nothing readable the reorder-held
        datagrams are released, so a bounded plan can never wedge a
        transfer (the discipline of ``UdpTransferService.serve``).
        Corrupted datagrams (bad CRC, truncation) are treated exactly
        like losses: skipped, and the wait continues with the remaining
        time budget.
        """
        inbox = self._inbox
        if inbox:
            return inbox.popleft()
        io = self.io
        io.flush()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            now = time.monotonic()
            wait = None if deadline is None else deadline - now
            if wait is not None and wait <= 0:
                if not io.flush_held():
                    return None
            elif not io.has_ready:
                held_due = io.next_held_due()
                if held_due is not None:
                    due_in = max(held_due - now, 0.0)
                    wait = due_in if wait is None else min(wait, due_in)
                select.select([io.fileno()], [], [], wait)
            for view, sender in io.recv_batch():
                try:
                    # decode() copies the payload out, so the frame
                    # outlives the arena slot it arrived in.
                    inbox.append((decode(view), sender))
                except WireError:
                    continue  # corrupted: indistinguishable from a loss
            if inbox:
                return inbox.popleft()

    # -- machine drivers ----------------------------------------------------
    def _drive_sender(self, machine, dst: Tuple[str, int]) -> int:
        """Run a sender machine to completion; returns the timeout count.

        Each turn advances the machine's timers, stages every frame it
        has ready (see ``YIELD_EVERY_FRAMES``), then waits for a reply
        until exactly the machine's next deadline.  Machine time is
        seconds since this call.
        """
        io = self.io
        start = time.monotonic()
        timeouts = 0
        while True:
            now = time.monotonic() - start
            machine.poll(now)
            burst = 0
            while machine.has_frame(now):
                io.send_frame(machine.next_frame(now), dst)
                burst += 1
                if burst % YIELD_EVERY_FRAMES == 0:
                    io.flush()
                    time.sleep(0)
            if machine.finished:
                io.flush()
                return timeouts
            got = self._recv_frame(machine.next_deadline() - now)
            if got is None:
                timeouts += 1
                continue
            frame, _sender = got
            if frame.stream_id == machine.stream_id:
                machine.on_frame(frame, time.monotonic() - start)

    def _drive_receiver(self, machine, idle_timeout_s: float,
                        linger_s: float, first=None) -> bool:
        """Feed a receiver machine until its transfer is over.

        Every reply the machine produces goes back to the frame's
        source.  Returns False when ``idle_timeout_s`` passes without a
        frame for the machine's stream before the transfer is complete
        *and answered* (the sender has been sent a reply since
        completion).  From then on the loop lingers, still answering
        duplicates so a lost final reply can be repaired, and returns
        True after ``linger_s`` of quiet.  ``first`` is an
        already-received ``(frame, source)`` pair to start from.
        """
        io = self.io
        start = time.monotonic()
        answered = False
        quiet_s = idle_timeout_s
        deadline = start + quiet_s
        got = first or self._recv_frame(deadline - time.monotonic())
        while got is not None:
            frame, source = got
            if frame.stream_id == machine.stream_id:
                replies = machine.on_frame(frame, time.monotonic() - start)
                for reply in replies:
                    io.send_frame(reply, source)
                if replies and machine.done:
                    answered = True
                    quiet_s = linger_s
                deadline = time.monotonic() + quiet_s
            got = self._recv_frame(deadline - time.monotonic())
        return answered

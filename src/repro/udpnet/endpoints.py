"""Shared plumbing for the UDP protocol endpoints.

The UDP transport reuses the byte-level wire format
(:mod:`repro.core.wire`), the receiver tracker and the retransmission
strategies from :mod:`repro.core` — only the I/O loop differs from the
simulated engines.  Absolute throughput over loopback is bounded by the
Python interpreter, so the benches assert protocol *orderings*, not
megabits (see EXPERIMENTS.md).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.wire import WireError, decode
from ..faults.plan import FaultPlan
from ..faults.socket import RECV_BUFFER_BYTES, FaultySocket
from ..simnet.errors import ErrorModel

__all__ = [
    "UdpEndpoint",
    "UdpTransferOutcome",
    "DEFAULT_PACKET_BYTES",
    "RECV_BUFFER_BYTES",
]

#: Payload bytes per data packet — the paper's 1 KB packets.
DEFAULT_PACKET_BYTES = 1024

# RECV_BUFFER_BYTES is defined in :mod:`repro.faults.socket` (the
# lowest layer that owns a receive buffer) and re-exported here: the
# endpoint fast path, FaultySocket's scratch buffer, and the batch-I/O
# ring in :mod:`repro.service.iobatch` all size their buffers with it.


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
    """Base class owning a (possibly lossy) UDP socket."""

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
        if reuse_port:
            # Cluster placement mode: N worker processes bind the same
            # (host, port) and the kernel hashes each client's 4-tuple
            # to one of them (see repro.cluster.placement).
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        raw.bind(bind)
        self.sock = FaultySocket(
            raw, error_model=error_model, plan=fault_plan, seed=fault_seed
        )
        self.packet_bytes = packet_bytes
        # One receive buffer per endpoint, reused by every recvfrom_into
        # (endpoints are single-threaded receivers).
        self._recv_buffer = bytearray(RECV_BUFFER_BYTES)

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

        Corrupted datagrams (bad CRC, truncation) are treated exactly
        like losses: skipped, and the wait continues with the remaining
        time budget.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        buffer = self._recv_buffer
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                count, sender = self.sock.recvfrom_into(buffer)
            except socket.timeout:
                return None
            try:
                # decode() copies the payload out, so handing it a view
                # of the reusable buffer never aliases the next datagram.
                return decode(memoryview(buffer)[:count]), sender
            except WireError:
                continue  # corrupted: indistinguishable from a loss

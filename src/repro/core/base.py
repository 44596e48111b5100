"""Shared machinery for the simulated protocol engines.

:func:`chunk_payload` is the one place a whole payload is sliced into
packets (the service's machines read theirs from a stream, one packet
at a time); :func:`packetize` / :func:`reassemble` convert between a byte
blob and the frame sequence; :class:`TransferResult` is what every engine
returns; :class:`Transfer` is the engine base class that wires sender and
receiver processes onto two simulated hosts.

Engine conventions (mirroring the paper's setup):

- the *sender* measures elapsed time "including the receipt of the last
  acknowledgement at the source";
- the receiver is an open-ended process — it keeps answering duplicate
  reply-requesting frames so a lost final ack can always be repaired; the
  run ends when the sender's process completes;
- data packets carry ``wants_reply`` only where the protocol calls for a
  response (every packet for stop-and-wait/sliding-window, the last
  packet for the blast family).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional

from ..sim import Environment, Process
from ..simnet.host import Host
from .frames import AckFrame, DataFrame, NakFrame

__all__ = [
    "chunk_payload",
    "packetize",
    "reassemble",
    "TransferResult",
    "TransferStats",
    "Transfer",
]


def chunk_payload(data: bytes, packet_bytes: int) -> List[bytes]:
    """Slice ``data`` into per-packet payloads of ``packet_bytes``.

    An empty payload still produces one (empty) chunk so that every
    transfer has a last packet to acknowledge.
    """
    if packet_bytes < 1:
        raise ValueError(f"packet_bytes must be >= 1, got {packet_bytes}")
    chunks = [data[i : i + packet_bytes] for i in range(0, len(data), packet_bytes)]
    return chunks or [b""]


def packetize(
    data: bytes, packet_bytes: int, transfer_id: int = 1
) -> List[DataFrame]:
    """Split ``data`` into :class:`DataFrame` packets of ``packet_bytes``."""
    chunks = chunk_payload(data, packet_bytes)
    total = len(chunks)
    return [
        DataFrame(transfer_id=transfer_id, seq=seq, total=total, payload=chunk)
        for seq, chunk in enumerate(chunks)
    ]


def reassemble(payloads: Dict[int, bytes], total: int) -> bytes:
    """Join per-sequence payloads back into the original byte blob."""
    if set(payloads) != set(range(total)):
        missing = sorted(set(range(total)) - set(payloads))
        raise ValueError(f"cannot reassemble: missing packets {missing[:10]}")
    return b"".join(payloads[seq] for seq in range(total))


@dataclass
class TransferStats:
    """Mutable counters the sender/receiver processes update as they run."""

    data_frames_sent: int = 0
    reply_frames_sent: int = 0
    retransmitted_data_frames: int = 0
    timeouts: int = 0
    rounds: int = 0
    duplicates_received: int = 0


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one complete transfer."""

    protocol: str
    strategy: Optional[str]
    ok: bool
    elapsed_s: float
    n_packets: int
    payload_bytes: int
    data: bytes
    data_intact: bool
    stats: TransferStats

    @property
    def throughput_bps(self) -> float:
        """Delivered payload bits per second of elapsed time."""
        if self.elapsed_s <= 0:
            return float("inf") if self.payload_bytes else 0.0
        return 8.0 * self.payload_bytes / self.elapsed_s

    @property
    def goodput_fraction(self) -> float:
        """Useful data frames over all data frames sent (1.0 = no waste)."""
        if self.stats.data_frames_sent == 0:
            return 0.0
        return self.n_packets / self.stats.data_frames_sent


class Transfer:
    """Base class for the simulated protocol engines.

    Subclasses implement :meth:`_sender` and :meth:`_receiver` as
    simulation processes.  Typical use::

        transfer = BlastTransfer(env, host_a, host_b, data)
        result = transfer.run()          # drives env until the ack returns

    or, when composing with other traffic, ``env.process``-friendly::

        done = transfer.launch()
        env.run(until=done)
        result = transfer.result()
    """

    #: Protocol name reported in results; set by subclasses.
    name: ClassVar[str] = ""

    def __init__(
        self,
        env: Environment,
        sender: Host,
        receiver: Host,
        data: bytes,
        transfer_id: int = 1,
        timeout_s: Optional[float] = None,
    ):
        self.env = env
        self.sender = sender
        self.receiver = receiver
        self.data = data
        self.transfer_id = transfer_id
        self.params = sender.params
        self.frames = packetize(data, self.params.data_packet_bytes, transfer_id)
        self.timeout_s = timeout_s if timeout_s is not None else self.default_timeout()
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        self.stats = TransferStats()
        self.received_payloads: Dict[int, bytes] = {}
        self._send_proc: Optional[Process] = None
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    # -- demultiplexing -------------------------------------------------------
    def _is_my_data(self, frame) -> bool:
        """Predicate: a data frame belonging to this transfer."""
        return (
            isinstance(frame, DataFrame)
            and frame.transfer_id == self.transfer_id
        )

    def _is_my_reply(self, frame) -> bool:
        """Predicate: an ACK/NAK belonging to this transfer."""
        return (
            isinstance(frame, (AckFrame, NakFrame))
            and frame.transfer_id == self.transfer_id
        )

    def _send_data(self, frame):
        """Send a data frame sender -> receiver (generator).

        Always names the destination explicitly so transfers work on
        multi-host networks (:func:`repro.simnet.make_network`) where no
        default peer exists.
        """
        yield from self.sender.send(frame, dst=self.receiver)

    def _send_reply(self, frame):
        """Send an ACK/NAK receiver -> sender (generator)."""
        yield from self.receiver.send(frame, dst=self.sender)

    def _recv_data(self, timeout_s: Optional[float] = None):
        """Receive the next data frame of this transfer (generator).

        Demultiplexing by transfer id keeps concurrent or consecutive
        transfers (multi-blast chunks, kernel IPC traffic) from stealing
        each other's frames.
        """
        frame = yield from self.receiver.receive(timeout_s, predicate=self._is_my_data)
        return frame

    def _recv_reply(self, timeout_s: Optional[float] = None):
        """Receive the next ACK/NAK of this transfer (generator)."""
        frame = yield from self.sender.receive(timeout_s, predicate=self._is_my_reply)
        return frame

    # -- subclass API -------------------------------------------------------
    def _sender(self):
        """Sender process body (generator)."""
        raise NotImplementedError

    def _receiver(self):
        """Receiver process body (generator); usually an infinite loop."""
        raise NotImplementedError

    def default_timeout(self) -> float:
        """Default retransmission interval for this protocol."""
        from ..analysis.errorfree import t_blast

        # A generous default: the error-free blast time of the whole
        # sequence (Figure 5's "T_r = T0(D)" curve).
        return t_blast(len(self.frames), self.params)

    def strategy_name(self) -> Optional[str]:
        """Retransmission strategy name, if the protocol has one."""
        return None

    # -- execution ------------------------------------------------------------
    def launch(self) -> Process:
        """Start receiver and sender processes; returns the sender process.

        The receiver process deliberately outlives the transfer (it keeps
        re-acknowledging duplicates), so callers wait on the *sender*.
        """
        if self._send_proc is not None:
            raise RuntimeError("transfer already launched")
        self._started_at = self.env.now
        self.env.process(self._guarded_receiver())
        self._send_proc = self.env.process(self._guarded_sender())
        return self._send_proc

    def _guarded_sender(self):
        yield from self._sender()
        self._finished_at = self.env.now

    def _guarded_receiver(self):
        yield from self._receiver()

    def run(self) -> TransferResult:
        """Launch and drive the environment until the transfer completes."""
        done = self.launch()
        self.env.run(until=done)
        return self.result()

    def result(self) -> TransferResult:
        """Build the :class:`TransferResult` (after the sender finished)."""
        if self._finished_at is None or self._started_at is None:
            raise RuntimeError("transfer has not completed")
        total = len(self.frames)
        try:
            received = reassemble(self.received_payloads, total)
            intact = received == self.data
        except ValueError:
            received = b""
            intact = False
        return TransferResult(
            protocol=self.name,
            strategy=self.strategy_name(),
            ok=True,
            elapsed_s=self._finished_at - self._started_at,
            n_packets=total,
            payload_bytes=len(self.data),
            data=received,
            data_intact=intact,
            stats=self.stats,
        )

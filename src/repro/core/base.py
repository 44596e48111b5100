"""The simulated transfers: a DES driver over the protocol machines.

Stop-and-wait, sliding window and blast are decided in one place,
:mod:`repro.service.machines` — the machines the concurrent service
(simulated and on UDP sockets) and the cluster also run.
:class:`MachineTransfer` is their driver on the simulator, so the
copy-in, wire and copy-out costs (and every trace span) come from
``simnet`` and every protocol decision from the machine.  The three protocol classes only name their
machine, its options and its default timer; :class:`MultiBlastTransfer`
is a loop over blasts.

Conventions (mirroring the paper's setup):

- the *sender* measures elapsed time "including the receipt of the last
  acknowledgement at the source";
- the receiver is an open-ended process — it keeps answering duplicate
  reply-requesting frames so a lost final ack can always be repaired; the
  run ends when the sender's process completes;
- a retransmission timer counts from the moment its frame has left the
  host (``on_sent``; docs/service.md, "Driver contract").

:func:`chunk_payload` is the one place a whole payload is sliced into
packets (the machines read theirs from a stream: it is what their tests
compare that stream against); :func:`reassemble` joins them back.
"""

from __future__ import annotations

import zlib
from dataclasses import astuple, dataclass, replace
from typing import ClassVar, Dict, List, Optional, Union

from ..analysis.errorfree import t_blast, t_single_exchange
from ..congestion.controller import UNBOUNDED_WINDOW
from ..service.machines import make_sender_machine, packet_count, receiver_for
from ..sim import Environment, Process, Store
from ..simnet.host import Host
from .frames import AckFrame, DataFrame, NakFrame
from .strategies import RetransmissionStrategy, get_strategy
from .timers import AdaptiveTimeout

__all__ = [
    "chunk_payload",
    "reassemble",
    "TransferResult",
    "TransferStats",
    "Transfer",
    "MachineTransfer",
    "StopAndWaitTransfer",
    "SlidingWindowTransfer",
    "BlastTransfer",
    "MultiBlastTransfer",
]

#: Processor speed of the whole-segment software checksum, bytes per
#: second (``BlastTransfer(verify_checksum=True)``).
CHECKSUM_BYTES_PER_S = 2e6


def chunk_payload(data: bytes, packet_bytes: int) -> List[bytes]:
    """Slice ``data`` into per-packet payloads of ``packet_bytes``.

    An empty payload still produces one (empty) chunk so that every
    transfer has a last packet to acknowledge.
    """
    if packet_bytes < 1:
        raise ValueError(f"packet_bytes must be >= 1, got {packet_bytes}")
    chunks = [data[i : i + packet_bytes] for i in range(0, len(data), packet_bytes)]
    return chunks or [b""]


def reassemble(payloads: Dict[int, bytes], total: int) -> bytes:
    """Join per-sequence payloads back into the original byte blob."""
    if set(payloads) != set(range(total)):
        missing = sorted(set(range(total)) - set(payloads))
        raise ValueError(f"cannot reassemble: missing packets {missing[:10]}")
    return b"".join(payloads[seq] for seq in range(total))


@dataclass
class TransferStats:
    """Counters of one transfer, read off its machines and its driver:
    ``timeouts`` are the sender's waits that a timer ended, ``rounds``
    the machine's (blast rounds; a window's first pass plus each resend)
    except under stop-and-wait, one exchange per packet."""

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
    """What every simulated transfer offers.  Typical use::

        transfer = BlastTransfer(env, host_a, host_b, data)
        result = transfer.run()          # drives env until the ack returns

    or, when composing with other traffic, ``env.process``-friendly::

        done = transfer.launch()
        env.run(until=done)
        result = transfer.result()

    A subclass starts its processes in :meth:`_start` and keeps
    ``stats`` and ``received_payloads``.
    """

    #: Protocol name reported in results; set by subclasses.
    name: ClassVar[str] = ""
    #: The blast family's retransmission strategy.
    strategy: Optional[RetransmissionStrategy] = None
    stats: TransferStats
    received_payloads: Dict[int, bytes]

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes, transfer_id: int = 1):
        self.env = env
        self.sender = sender
        self.receiver = receiver
        self.data = data
        self.transfer_id = transfer_id
        self.params = sender.params
        self.n_packets = packet_count(len(data), self.params.data_packet_bytes)
        self._send_proc: Optional[Process] = None
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    def _start(self) -> Process:
        """Start the transfer's processes; returns the one that ends it,
        which sets ``_finished_at`` as its last act."""
        raise NotImplementedError

    def strategy_name(self) -> Optional[str]:
        """Retransmission strategy name, if the protocol has one."""
        return self.strategy.name if self.strategy is not None else None

    def launch(self) -> Process:
        """Start the transfer; returns the sender process.

        The receiver process deliberately outlives the transfer (it keeps
        re-acknowledging duplicates), so callers wait on the *sender*.
        """
        if self._send_proc is not None:
            raise RuntimeError("transfer already launched")
        self._started_at = self.env.now
        self._send_proc = self._start()
        return self._send_proc

    def run(self) -> TransferResult:
        """Launch and drive the environment until the transfer completes."""
        self.env.run(until=self.launch())
        return self.result()

    def result(self) -> TransferResult:
        """Build the :class:`TransferResult` (after the sender finished)."""
        if self._finished_at is None or self._started_at is None:
            raise RuntimeError("transfer has not completed")
        try:
            received = reassemble(self.received_payloads, self.n_packets)
        except ValueError:
            received = None
        return TransferResult(
            protocol=self.name,
            strategy=self.strategy_name(),
            ok=True,
            elapsed_s=self._finished_at - self._started_at,
            n_packets=self.n_packets,
            payload_bytes=len(self.data),
            data=received or b"",
            data_intact=received == self.data,
            stats=self.stats,
        )


class MachineTransfer(Transfer):
    """One transfer between two simulated hosts, run by the machines.

    ``machine`` names the protocol for ``make_sender_machine`` and
    ``receiver_for``; ``machine_options`` are the sender machine's.  A
    ``timeout_policy`` (:class:`~repro.core.timers.AdaptiveTimeout`)
    replaces the fixed ``timeout_s`` as the machine's controller: the
    machine feeds it Karn-clean round-trip samples and expiries.

    The *send loop* is the four lines every driver of the machines has —
    ``poll``, send while ``has_frame``, wait for a reply until
    ``next_deadline``, feed it to ``on_frame`` — plus ``on_sent`` after
    each send, because a simulated send takes time.  The *receive loop*
    answers with the receiver machine's replies at the experiment's ack
    size.  Stop-and-wait and blast senders are idle while they wait, so
    the send loop takes the reply itself; a sliding window's acks arrive
    while it is sending and are taken at interrupt level (the paper's
    third assumption) by a *reply collector* that feeds the machine and
    wakes the send loop.
    """

    #: The machines' name for this protocol; set by subclasses.
    machine: ClassVar[str] = ""
    #: Replies are collected by their own process while the sender sends.
    interrupt_level_acks: ClassVar[bool] = False

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes, transfer_id: int = 1,
                 timeout_s: Optional[float] = None,
                 timeout_policy: Optional[AdaptiveTimeout] = None,
                 max_rounds: int = 10_000, **machine_options):
        super().__init__(env, sender, receiver, data, transfer_id)
        self.timeout_s = timeout_s if timeout_s is not None else self.default_timeout()
        self._sender_machine = make_sender_machine(
            self.machine, transfer_id, data, self.params.data_packet_bytes,
            self.timeout_s, max_rounds=max_rounds,
            congestion=timeout_policy or "fixed",
            **machine_options)
        self._receiver_machine = receiver_for(
            self.machine, transfer_id,
            machine_options.get("strategy", "selective"), total=self.n_packets)
        self.received_payloads = self._receiver_machine.chunks
        self._timeouts = 0
        #: Whole-segment checksum: the CRC-32 stamped on every data frame
        #: (None = off) and the processor seconds one check costs.
        self._segment_crc: Optional[int] = None
        self._checksum_s = 0.0
        self._acked = Store(env) if self.interrupt_level_acks else None

    def default_timeout(self) -> float:
        """Default retransmission interval for this protocol."""
        raise NotImplementedError

    def _rounds(self) -> int:
        return self._sender_machine.rounds

    @property
    def stats(self) -> TransferStats:
        sent, received = self._sender_machine, self._receiver_machine
        return TransferStats(
            sent.data_frames_sent, received.replies_sent, sent.retransmits,
            self._timeouts, self._rounds(), received.duplicates)

    # Demultiplexing is by transfer id, so concurrent or consecutive
    # transfers (multi-blast chunks, kernel IPC traffic) do not steal
    # each other's frames.
    def _is_my_data(self, frame) -> bool:
        return (isinstance(frame, DataFrame)
                and frame.transfer_id == self.transfer_id)

    def _is_my_reply(self, frame) -> bool:
        return (isinstance(frame, (AckFrame, NakFrame))
                and frame.transfer_id == self.transfer_id)

    def _start(self) -> Process:
        self.env.process(self._receive_loop())
        if self._acked is not None:
            self.env.process(self._collect_replies())
        return self.env.process(self._send_loop())

    def _checksum_cost(self, host: Host):
        """Charge ``host``'s processor for checksumming the whole segment."""
        wait = host.cpu.acquire()
        if wait is not None:
            yield wait
        yield self.env.timeout(self._checksum_s)
        host.cpu.release()

    def _send_loop(self):
        # Destinations are always named, so transfers work on multi-host
        # networks (make_network) where no default peer exists.
        env, host, peer = self.env, self.sender, self.receiver
        machine, acked, mine = self._sender_machine, self._acked, self._is_my_reply
        crc = self._segment_crc
        if crc is not None:
            yield from self._checksum_cost(host)
        while True:
            now = env.now
            machine.poll(now)
            while machine.has_frame(now):
                frame = machine.next_frame(now)
                if crc is not None:
                    frame = replace(frame, segment_crc=crc)
                yield from host.send(frame, peer)
                now = env.now
                # Only a frame that wants a reply starts a timer (the call
                # skipped for the others is in test_des_call_budget's bound).
                if frame.wants_reply:
                    machine.on_sent(frame, now)
            deadline = machine.next_deadline()
            if deadline is None:
                break  # nothing to send and nothing to wait for: finished
            if acked is None:
                reply = yield from host.receive(deadline - now, mine)
                if reply is not None:
                    machine.on_frame(reply, env.now)
            else:
                reply = yield acked.get(None, deadline - now)
            if reply is None:
                self._timeouts += 1
        if machine.failed:
            raise RuntimeError(f"{self.name}: {machine.error}")
        self._finished_at = env.now

    def _collect_replies(self):
        env, host, machine = self.env, self.sender, self._sender_machine
        acked, mine = self._acked, self._is_my_reply
        while not machine.finished:
            reply = yield from host.receive(None, mine)
            machine.on_frame(reply, env.now)
            if not acked.items:
                acked.try_put(reply)  # wakes a send loop that is waiting

    def _receive_loop(self):
        env, host, peer = self.env, self.receiver, self.sender
        machine, mine = self._receiver_machine, self._is_my_data
        ack_bytes = self.params.ack_bytes
        charged = 0  # whole-segment checks whose processor time was paid
        while True:
            frame = yield from host.receive(None, mine)
            replies = machine.on_frame(frame, env.now)
            if machine.checksums != charged:
                charged += 1
                yield from self._checksum_cost(host)
            for reply in replies:
                if reply.wire_bytes != ack_bytes:
                    reply = replace(reply, wire_bytes=ack_bytes)
                yield from host.send(reply, peer)


class StopAndWaitTransfer(MachineTransfer):
    """Stop-and-wait (paper Figure 3.a): no packet is sent until the one
    before is acknowledged; a timeout retransmits it.  The two processors
    are never active in parallel, so every packet pays the full
    ``2C + T + 2Ca + Ta`` — ~2x the pipelined protocols on a LAN.

    The machine is a window of one; an acknowledgement for anything but
    the outstanding packet (a duplicate, or one delayed past its
    retransmission) is ignored and the wait goes on.  A
    ``timeout_policy`` is fed every clean exchange, a retransmitted one
    never (Karn's rule).
    """

    name = "stop_and_wait"
    machine = "saw"

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes, transfer_id: int = 1,
                 timeout_s: Optional[float] = None,
                 timeout_policy: Optional[AdaptiveTimeout] = None):
        super().__init__(env, sender, receiver, data, transfer_id, timeout_s,
                         timeout_policy)

    def default_timeout(self) -> float:
        """Per-packet timer: the error-free single-exchange time."""
        return t_single_exchange(self.params)

    def _rounds(self) -> int:
        return self.n_packets  # one exchange per packet, however often retried


class SlidingWindowTransfer(MachineTransfer):
    """Sliding window (paper Figure 3.c): every packet is acknowledged on
    its own but the sender goes on transmitting.  Each ack costs the
    sender a Ca copy-out, taken at interrupt level, that serialises with
    its data copies — the small deficit against blast.

    ``window=None`` is the paper's window that never closes; a finite
    ``window`` stalls the sender at that many unacknowledged packets.  On
    a LAN ``window=2`` already behaves like an infinite window and
    ``window=1`` degenerates to stop-and-wait
    (``benchmarks/test_ablation_window.py``).  A lost packet is resent
    alone when its own timer expires ("similar to ... the blast protocol
    with selective retransmission").
    """

    name = "sliding_window"
    machine = "sliding"
    interrupt_level_acks = True

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes, transfer_id: int = 1,
                 timeout_s: Optional[float] = None,
                 window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 or None, got {window}")
        self.window = window
        super().__init__(env, sender, receiver, data, transfer_id, timeout_s,
                         window=UNBOUNDED_WINDOW if window is None else window)

    def default_timeout(self) -> float:
        """Per-packet timer: one exchange plus one pipeline slot,
        ``t_single_exchange + (C + Ca + T)``.

        A packet's timer starts when the packet has left the host.  Alone,
        its ack is in after the rest of the exchange, ``C + 2Ca + Ta``.
        In a full pipeline on busy-waiting hosts the ack also queues: for
        the wire behind one data packet (at most ``T``), and for the
        sender's processor behind one earlier ack being copied out
        (``Ca``) and one data packet being copied in and, busy-waiting,
        transmitted (``C + T``).  That is at most ``2(C + T) + 3Ca + Ta``
        from send completion, plus the latencies of any exchange —
        ``2(C + Ca + T) + Ca`` between matched hosts — where one exchange
        *from its start* is only ``2C + T + 2Ca + Ta``: a timer of one
        exchange expires on every packet of a full pipeline.  This one is
        ``C`` above the bound, so it cannot expire while acks are merely
        queueing, at any window (tests/core/test_engine_reference.py).
        """
        p = self.params
        return (t_single_exchange(p)
                + p.copy_data_s + p.copy_ack_s + p.transmit_data_s)


class BlastTransfer(MachineTransfer):
    """Blast (paper Figure 3.b): the whole sequence back to back, one
    acknowledgement at the end; failure handling by ``strategy`` (a
    :class:`RetransmissionStrategy` or its name, see
    :mod:`repro.core.strategies`; default the paper's ``"gobackn"``).

    ``timeout_s`` is the (long) T_r of the timer-driven strategies,
    default the error-free blast time of the whole sequence, and
    ``timeout_policy`` replaces it (an adaptive timer is reusable, so a
    long-lived sender converges).  ``reliable_retry_s`` is the period at
    which ``gobackn`` / ``selective`` resend their reliable last packet,
    default one error-free exchange.  ``verify_checksum`` is Spector's
    whole-segment software checksum: every data frame carries the CRC-32
    of the body, both hosts pay ``len(data) / CHECKSUM_BYTES_PER_S`` of
    processor time, and the receiver discards a body that fails instead
    of acknowledging it.
    """

    name = "blast"
    machine = "blast"

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes,
                 strategy: Union[str, RetransmissionStrategy] = "gobackn",
                 transfer_id: int = 1, timeout_s: Optional[float] = None,
                 reliable_retry_s: Optional[float] = None,
                 max_rounds: int = 10_000, verify_checksum: bool = False,
                 timeout_policy: Optional[AdaptiveTimeout] = None):
        self.strategy = get_strategy(strategy)
        if reliable_retry_s is None:
            reliable_retry_s = t_single_exchange(sender.params)
        super().__init__(env, sender, receiver, data, transfer_id, timeout_s,
                         timeout_policy, max_rounds,
                         strategy=self.strategy.name,
                         reliable_retry_s=reliable_retry_s)
        if verify_checksum:
            self._segment_crc = zlib.crc32(data)
            self._checksum_s = len(data) / CHECKSUM_BYTES_PER_S

    def default_timeout(self) -> float:
        """Figure 5's "T_r = T0(D)": the error-free time of the blast."""
        return t_blast(self.n_packets, self.params)


class MultiBlastTransfer(Transfer):
    """A large transfer as consecutive independent blasts of at most
    ``blast_packets`` packets (paper §3.1.3: "for such very large sizes,
    we suggest the use of multiple blasts"; ``examples/remote_dump.py``).
    ``strategy``, ``timeout_s`` and ``reliable_retry_s`` go to every
    :class:`BlastTransfer` (``None``: each blast's own default).
    """

    name = "multiblast"

    def __init__(self, env: Environment, sender: Host, receiver: Host,
                 data: bytes, blast_packets: int = 64,
                 strategy: Union[str, RetransmissionStrategy] = "gobackn",
                 transfer_id: int = 1, timeout_s: Optional[float] = None,
                 reliable_retry_s: Optional[float] = None):
        if blast_packets < 1:
            raise ValueError(f"blast_packets must be >= 1, got {blast_packets}")
        super().__init__(env, sender, receiver, data, transfer_id)
        self.blast_packets = blast_packets
        self.strategy = get_strategy(strategy)
        self._blast_options = dict(strategy=self.strategy, timeout_s=timeout_s,
                                   reliable_retry_s=reliable_retry_s)
        self.stats = TransferStats()
        self.received_payloads = {}

    @property
    def n_blasts(self) -> int:
        """Number of constituent blasts."""
        return packet_count(self.n_packets, self.blast_packets)

    def _start(self) -> Process:
        return self.env.process(self._blasts())

    def _blasts(self):
        chunk_bytes = self.blast_packets * self.params.data_packet_bytes
        for index in range(self.n_blasts):
            blast = BlastTransfer(
                self.env, self.sender, self.receiver,
                self.data[index * chunk_bytes:(index + 1) * chunk_bytes],
                transfer_id=self.transfer_id * 1000 + index,
                **self._blast_options)
            yield blast.launch()
            # Fold the chunk's payloads and counters into the whole.
            offset = index * self.blast_packets
            for seq, payload in blast.received_payloads.items():
                self.received_payloads[offset + seq] = payload
            self.stats = TransferStats(*map(
                sum, zip(astuple(self.stats), astuple(blast.stats))))
        self._finished_at = self.env.now

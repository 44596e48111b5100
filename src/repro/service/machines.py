"""Substrate-free per-transfer state machines.

Each protocol is written once, here, as a *poll/step* machine: no clock
reads, no I/O — the caller supplies ``now`` and carries what it sends.
The same classes run under every driver — the simulated transfer of the
paper's tables (:mod:`repro.core.base`) and the concurrent service on
the simulator and on sockets (docs/service.md, "Driver contract") —
which keeps results deterministic and fault-plan-replayable, and a
protocol fix from living in one copy only.

- :class:`BlastSenderMachine` — strategy-driven rounds reusing the
  :mod:`repro.core.strategies` menu and its report semantics;
- :class:`WindowSenderMachine` — per-packet-acknowledged window of
  ``window`` outstanding packets (``window=1`` is stop-and-wait);
- :class:`ReceiverMachine` — the client side: tracks arrivals and
  produces the replies the sender's protocol expects.

Shared step API of the sender machines::

    machine.poll(now)        # advance timers; may start a new round
    machine.has_frame(now)   # is a data frame ready to transmit?
    machine.next_run(now, n) # take n packets (the scheduler grants sends)
    machine.next_frame(now)  # take one, as a DataFrame
    machine.on_sent(f, now)  # optional: frame f, wanting a reply, left
    machine.on_frame(f, now) # feed an ACK/NAK back in
    machine.on_acks(seqs, now)  # a run of ACKs, as on_frame one by one
    machine.next_deadline()  # earliest time poll() must run again
    machine.done / machine.failed / machine.outcome()

``next_run`` is the one send step: it draws, accounts for and retains
up to ``frames_available`` packets, returned as a *run* ``(seqs,
payloads, wants)`` that the socket substrate encodes without frame
objects; ``next_frame`` is a run of one as a :class:`DataFrame`, for
the simulator.  A retransmission timer counts from the moment its
packet has left the host: ``next_run`` arms it, exact for a socket; a
driver whose sends take time (the simulator) says when with ``on_sent``.

The body is a *stream*, not a buffer: a packet is read the first time
a run needs it and its payload kept only until it is acknowledged, so
building a machine is O(1) and memory follows the window
(docs/performance.md, "Streaming body").  :class:`BodyStream` is the
service's body; caller-supplied ``bytes`` take the same path.
"""

from __future__ import annotations

import io
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..congestion.controller import CongestionController, make_controller
from ..core.frames import AckFrame, DataFrame, NakFrame
from ..core.strategies import FailureDetection, get_strategy
from ..core.tracker import ReceiverTracker, ReceptionReport
from ..parallel.pool import mix_seed

__all__ = [
    "BodyStream",
    "TransferOutcome",
    "BlastSenderMachine",
    "WindowSenderMachine",
    "ReceiverMachine",
    "make_sender_machine",
    "packet_count",
    "receiver_for",
    "service_payload",
]


#: Frames are built positionally on the per-packet paths (a keyword
#: costs a tenth of a microsecond): these are the defaults, read from
#: their one owner, of the fields passed over on the way to ``stream_id``.
_DATA_WIRE_BYTES, _DATA_SEGMENT_CRC = (
    DataFrame.__dataclass_fields__[name].default
    for name in ("wire_bytes", "segment_crc"))
_ACK_WIRE_BYTES = AckFrame.__dataclass_fields__["wire_bytes"].default


def service_payload(seed: int, stream_id: int, size: int) -> bytes:
    """The deterministic body of stream ``stream_id`` (server and client
    derive it independently, so byte-equality is checkable end to end)."""
    return random.Random(mix_seed(seed, stream_id)).randbytes(size)


def packet_count(size: int, packet_bytes: int) -> int:
    """Packets a body of ``size`` bytes is cut into.  An empty body is
    still one (empty) packet, so every transfer has a last packet to
    acknowledge."""
    return max(1, -(-size // packet_bytes))


class BodyStream:
    """:func:`service_payload` as a sequential byte stream.

    ``Random.randbytes`` consumes whole 32-bit words, so a body drawn in
    pieces equals the one-shot body as long as every piece but the last
    is a multiple of four bytes long; :meth:`read` draws such blocks
    and slices them, whatever lengths its caller asks for.  The
    generator (2.5 KB of state) is seeded at the first draw and dropped
    at the last, so a stream that is queued or finished holds none.
    """

    #: Bytes drawn per generator call (a multiple of 4): large enough
    #: that the per-call overhead of ``randbytes`` is amortised, small
    #: enough that a stream never holds more than a few packets ahead.
    BLOCK = 16 * 1024

    def __init__(self, seed: int, stream_id: int, size: int):
        self._seed = mix_seed(seed, stream_id)
        self._draw = None
        self._size = size
        self._undrawn = size
        self._block = b""
        self._pos = 0

    def __len__(self) -> int:
        return self._size

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes of the body (fewer once it runs out)."""
        block, pos = self._block, self._pos
        if pos + n > len(block) and self._undrawn:
            draw = self._draw or random.Random(self._seed).randbytes
            short = pos + n - len(block)
            take = min(self._undrawn, max(self.BLOCK, -(-short // 4) * 4))
            self._undrawn -= take
            self._draw = draw if self._undrawn else None
            block = self._block = block[pos:] + draw(take)
            pos = 0
        self._pos = pos + n
        return block[pos:pos + n]


@dataclass
class TransferOutcome:
    """Counters and verdict for one completed (or failed) transfer."""

    stream_id: int
    ok: bool
    size_bytes: int
    packets: int
    data_frames_sent: int = 0
    retransmits: int = 0
    rounds: int = 0
    error: str = ""
    #: Congestion-controller snapshot (cwnd/ssthresh/rto timeline);
    #: None under the fixed controller, keeping legacy reports intact.
    congestion: Optional[dict] = None


class _SenderBase:
    """State shared by the sender machines."""

    def __init__(self, stream_id: int, payload, packet_bytes: int,
                 timeout_s: float, max_rounds: int,
                 controller: Optional[CongestionController] = None):
        if stream_id < 1:
            raise ValueError(f"stream_id must be >= 1, got {stream_id}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if packet_bytes < 1:
            raise ValueError(f"packet_bytes must be >= 1, got {packet_bytes}")
        self.stream_id = stream_id
        # A BodyStream or plain bytes, consumed one packet at a time.
        self._read = (payload.read if isinstance(payload, BodyStream)
                      else io.BytesIO(payload).read)
        self.size_bytes = len(payload)
        self.packet_bytes = packet_bytes
        self.timeout_s = timeout_s
        self.max_rounds = max_rounds
        # All window and timer arithmetic routes through the controller;
        # the default FixedController returns timeout_s and an unbounded
        # window, reproducing the pre-congestion machines byte-for-byte.
        self.controller = (controller if controller is not None
                          else make_controller("fixed", timeout_s))
        self.total = packet_count(self.size_bytes, packet_bytes)
        self.done = False
        self.failed = False
        self.error = ""
        self.data_frames_sent = 0
        self.retransmits = 0
        self.rounds = 0
        #: Dirty counter for the engine's lazy-invalidation deadline
        #: index: bumped whenever the value :meth:`next_deadline`
        #: reports moves (or clears), so a ``(deadline, stream, epoch)``
        #: heap entry is valid while the epoch it was pushed under is
        #: current.  The window sender bumps it *only* then, which is
        #: what keeps the index at about one push per acknowledged
        #: packet.
        self.timer_epoch = 0

    @property
    def finished(self) -> bool:
        return self.done or self.failed

    def outcome(self) -> TransferOutcome:
        return TransferOutcome(
            stream_id=self.stream_id,
            ok=self.done and not self.failed,
            size_bytes=self.size_bytes,
            packets=self.total,
            data_frames_sent=self.data_frames_sent,
            retransmits=self.retransmits,
            rounds=self.rounds,
            error=self.error,
            congestion=self.controller.snapshot(),
        )

    def next_frame(self, now: float) -> DataFrame:
        """The next packet as a frame: :meth:`next_run` of one."""
        (seq,), (payload,), (wants_reply,) = self.next_run(now, 1)
        stream_id = self.stream_id
        return DataFrame(stream_id, seq, self.total, payload, wants_reply,
                         _DATA_WIRE_BYTES, _DATA_SEGMENT_CRC, stream_id)

    def _read_packets(self, count: int) -> List[bytes]:
        """The body's next ``count`` (> 1) packets, in one read (a run of
        one reads inline: a call per simulated frame is budgeted)."""
        size = self.packet_bytes
        chunk = self._read(count * size)
        return [chunk[start:start + size]
                for start in range(0, count * size, size)]

    def _fail(self, message: str) -> None:
        self.failed = True
        self.error = message
        self.timer_epoch += 1  # finished machines report no deadline


class BlastSenderMachine(_SenderBase):
    """One blast transfer as a poll/step machine.

    Each round transmits the strategy's working set back to back (the
    blast discipline: no per-packet pacing), marks the round's last
    frame ``wants_reply``, then waits up to ``timeout_s`` for the
    receiver's verdict.  An ACK for the whole sequence completes the
    transfer; a NAK report shapes the next working set; a timeout falls
    back to the strategy's no-report behaviour (full retransmission).

    A round goes out in *bursts*: at most ``min(controller.window(),
    credit)`` packets, the last one ``wants_reply``.  ``credit`` is the
    number of packets the receiver said its buffer holds (None: the
    whole body, the paper's first assumption); with it the transfer is
    the paper's multi-blast.  A report that finds every packet sent so
    far in place is then flow control, not a failure: the round simply
    continues with its next burst and ``rounds`` does not move.

    ``reliable_retry_s`` makes the last packet of a burst *reliable*
    under the strategies that say so (``gobackn``, ``selective``; paper
    section 3.2.3): silence for that long resends it alone, without a
    new round, until some reply arrives.
    """

    def __init__(self, stream_id: int, payload: bytes, packet_bytes: int,
                 timeout_s: float, max_rounds: int = 60,
                 strategy: str = "selective",
                 controller: Optional[CongestionController] = None,
                 credit: Optional[int] = None,
                 reliable_retry_s: Optional[float] = None):
        super().__init__(stream_id, payload, packet_bytes, timeout_s,
                         max_rounds, controller=controller)
        if credit is not None and credit < 1:
            raise ValueError(f"credit must be >= 1, got {credit}")
        if reliable_retry_s is not None and reliable_retry_s <= 0:
            raise ValueError("reliable_retry_s must be > 0")
        self.strategy = get_strategy(strategy)
        self.credit = credit
        self._nudge_s = (
            reliable_retry_s
            if self.strategy.mode is FailureDetection.LAST_PACKET_RELIABLE
            else None)
        self._nudges = 0
        self._queue: Sequence[int] = range(self.total)
        self._index = 0
        self._burst_end = 0  # index into _queue where the open burst stops
        self._reply_deadline: Optional[float] = None
        self._reply_requested_at: Optional[float] = None
        self._burst_clean = True
        self._received_est = 0
        self.dropped = 0  # reports naming another transfer's total
        self.rounds = 1
        #: Retention: packet ``seq``'s payload at index ``seq``, kept
        #: until the body is acknowledged (a retransmission resends it).
        self._retained: List[bytes] = []
        self._drawn = 0  # packets read from the body so far
        self._open_burst()

    # -- step API ----------------------------------------------------------
    def poll(self, now: float) -> None:
        if self.finished:
            return
        if self._reply_deadline is not None and now >= self._reply_deadline:
            if self._nudge_s is None:
                self.controller.on_timeout(now)
                self._start_round(None, "timeout")
            elif self._nudges >= self.max_rounds:
                self._fail("reliable last packet never acknowledged")
                self._burst_end = 0
            else:
                self._nudges += 1
                self._index -= 1  # the burst's last packet, once more
                self._reply_deadline = None
                self.timer_epoch += 1

    def has_frame(self, now: float) -> bool:
        return self._index < self._burst_end

    def frames_available(self, now: float) -> int:
        """Frames this machine could emit right now without new input."""
        return max(0, self._burst_end - self._index)

    def next_run(self, now: float, count: int):
        """The open burst's next ``count`` packets (at most
        :meth:`frames_available`); only a run that ends the burst asks
        for a reply, with its last packet."""
        index = self._index
        end = self._index = index + count
        seqs = self._queue[index:end]
        self.data_frames_sent += count
        # A working set ascends (a range, or a report's sorted missing
        # set), so the packets read before — sent before — come first.
        first, top = seqs[0], seqs[-1] + 1
        drawn = self._drawn
        if first < drawn:
            self.retransmits += bisect_left(seqs, drawn)
            self._burst_clean = False
        if top > drawn:
            # The one place a blast draws and retains: first transmissions
            # in sequence order (a forged report may name a packet further
            # ahead; the ones it skips wait in the table).
            self._retained += ([self._read(self.packet_bytes)]
                               if top - drawn == 1
                               else self._read_packets(top - drawn))
            self._drawn = top
        retained = self._retained
        payloads = (retained[first:top] if top - first == count
                    else list(map(retained.__getitem__, seqs)))
        wants = [False] * count
        if end >= self._burst_end:
            wants[-1] = True
            self._reply_deadline = now + (self._nudge_s or self.controller.rto())
            self._reply_requested_at = now
            self.timer_epoch += 1
        return seqs, payloads, wants

    def on_sent(self, frame: DataFrame, now: float) -> None:
        """``frame`` has left the host: a reply timer counts from here."""
        if frame.wants_reply and self._reply_deadline is not None:
            self._reply_deadline = now + (self._nudge_s or self.controller.rto())
            self.timer_epoch += 1

    def on_frame(self, frame, now: float) -> None:
        if isinstance(frame, AckFrame):
            self.on_acks((frame.seq,), now)
        elif isinstance(frame, NakFrame) and not self.finished:
            if frame.total != self.total:
                # Stale or forged: it may name packets past the body.
                self.dropped += 1
                return
            self._sample_reply_rtt(now)
            received = frame.total - len(frame.missing)
            newly = received - self._received_est
            if newly > 0:
                self.controller.on_ack(newly, now)
                self._received_est = received
            else:
                self.controller.on_dup_ack(now)
            index = self._index
            if (self.credit is not None
                    and index == self._burst_end < len(self._queue)
                    and frame.first_missing > self._queue[index - 1]):
                # The burst arrived whole and the round has more to
                # send: the report is the receiver returning credit.
                self._open_burst()
                return
            self.controller.on_loss(now)
            report = ReceptionReport(
                total=frame.total,
                complete=False,
                first_missing=frame.first_missing,
                missing=frame.missing,
            )
            self._start_round(report, "nak")

    def on_acks(self, seqs: Sequence[int], now: float) -> None:
        """A run of ACKs: only one for the whole sequence means anything."""
        if self.finished or self.total - 1 not in seqs:
            return
        self._sample_reply_rtt(now)
        newly = self.total - self._received_est
        if newly > 0:
            self.controller.on_ack(newly, now)
        self.done = True
        self._burst_end = 0
        self._retained.clear()  # a blast holds its body until here
        self._reply_deadline = None
        self.timer_epoch += 1

    def next_deadline(self) -> Optional[float]:
        if self.finished:
            return None
        return self._reply_deadline

    # -- internals ---------------------------------------------------------
    def _sample_reply_rtt(self, now: float) -> None:
        # Karn's rule: only a burst with no retransmitted frames gives
        # an unambiguous request->reply measurement.
        if self._burst_clean and self._reply_requested_at is not None:
            self.controller.on_rtt_sample(max(0.0, now - self._reply_requested_at))

    def _start_round(self, report: Optional[ReceptionReport], why: str) -> None:
        if self.rounds >= self.max_rounds:
            self._fail(f"gave up after {self.rounds} rounds (last: {why})")
            self._burst_end = 0
            return
        self.rounds += 1
        self._queue = self.strategy.next_working_set(self.total, report)
        self._index = 0
        self._open_burst()

    def _open_burst(self) -> None:
        """Let the next burst of the round go, from ``_index`` on.

        The one place the burst is sized: the controller's window is
        read here, after the reply or timeout that ended the last burst
        has been fed to it, and nothing between two bursts moves it.
        """
        window = self.controller.window()
        if self.credit is not None and self.credit < window:
            window = self.credit
        self._burst_end = min(len(self._queue), self._index + window)
        self._reply_deadline = None
        self._reply_requested_at = None
        self._burst_clean = True
        self._nudges = 0
        self.timer_epoch += 1


class WindowSenderMachine(_SenderBase):
    """Per-packet-acknowledged window sender (``window=1`` = stop-and-wait).

    Up to ``window`` packets are outstanding at once, every one marked
    ``wants_reply``; an un-acknowledged packet is retransmitted when its
    timer expires, with a per-packet attempt cap standing in for the
    blast machine's round cap.

    Every step of the ack clock is constant-time in the window (see
    docs/performance.md, "Constant-time ack clock").  ``_outstanding``
    maps ``seq`` to the packet's one record, ``[deadline, attempts,
    first sent, payload]``; it is insertion-ordered and sequence numbers
    only grow, so its first key is the lowest outstanding packet.
    ``_timers`` is a lazy-invalidation heap of ``(deadline, seq,
    record)`` entries, valid iff ``record[0] == deadline`` (None once
    acknowledged); ``_deadline`` caches the earliest valid one.  The
    table is scanned only once ``now >= _deadline``.
    """

    def __init__(self, stream_id: int, payload: bytes, packet_bytes: int,
                 timeout_s: float, max_rounds: int = 60, window: int = 4,
                 controller: Optional[CongestionController] = None):
        super().__init__(stream_id, payload, packet_bytes, timeout_s,
                         max_rounds, controller=controller)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._next_unsent = 0
        self._outstanding: Dict[int, list] = {}  # seq -> its record
        self._timers: List[Tuple[float, int, list]] = []
        self._deadline: Optional[float] = None  # earliest valid timer
        self._fast_retx: Set[int] = set()
        self._backoff_blackout = float("-inf")
        self._acked = 0
        self.rounds = 1

    # -- step API ----------------------------------------------------------
    def poll(self, now: float) -> None:
        deadline = self._deadline
        if self.finished or deadline is None or now < deadline:
            return
        # Due entries form a subtree at the heap's root (a child is
        # never earlier than its parent), so the walk touches overdue
        # packets only, never the rest of the window.
        heap = self._timers
        exhausted = []
        stack = [0]
        while stack:
            index = stack.pop()
            if index < len(heap) and heap[index][0] <= now:
                due, seq, record = heap[index]
                if record[0] == due and record[1] >= self.max_rounds:
                    exhausted.append(seq)
                stack += (2 * index + 1, 2 * index + 2)
        if exhausted:
            self._fail(f"packet {min(exhausted)} unacknowledged after "
                       f"{self.max_rounds} attempts")

    def has_frame(self, now: float) -> bool:
        """``frames_available(now) > 0``, without the count."""
        if self.done or self.failed:
            return False
        deadline = self._deadline
        if deadline is not None and now >= deadline:
            return True  # the earliest timer is due: a retransmission
        return (self._next_unsent < self.total and len(self._outstanding)
                < min(self.window, self.controller.window()))

    def frames_available(self, now: float) -> int:
        """Frames this machine could emit right now without new input."""
        if self.done or self.failed:
            return 0
        # Fresh sends respect both the configured window and the
        # congestion window (unbounded for the fixed controller);
        # retransmissions are already in flight and always allowed.
        window = min(self.window, self.controller.window())
        available = max(0, min(window - len(self._outstanding),
                               self.total - self._next_unsent))
        deadline = self._deadline
        if deadline is not None and now >= deadline:
            available += sum(1 for record in self._outstanding.values()
                             if now >= record[0])
        return available

    def next_run(self, now: float, count: int):
        """Up to ``count`` packets (at most :meth:`frames_available`):
        overdue retransmissions, lowest sequence number first, then first
        transmissions — fewer when a retransmission's timeout has closed
        the congestion window."""
        deadline = self._deadline
        seqs: List[int] = []
        payloads: List[bytes] = []
        fresh = count
        if deadline is not None and now >= deadline:
            controller = self.controller
            # Deterministic: _outstanding is insertion-ordered and
            # sequence numbers only grow.
            for seq, record in self._outstanding.items():
                if len(seqs) == count:
                    break
                if now >= record[0]:
                    self.retransmits += 1
                    self.rounds += 1
                    record[1] += 1
                    if seq in self._fast_retx:
                        # A fast retransmit is loss recovery, not a
                        # timer expiry — no RTO backoff.
                        self._fast_retx.discard(seq)
                    elif now >= self._backoff_blackout:
                        # One backoff per RTO period, however many
                        # packets expired together in the burst.
                        controller.on_timeout(now)
                        self._backoff_blackout = now + controller.rto()
                    self._arm(seq, record, now + controller.rto())
                    seqs.append(seq)
                    payloads.append(record[3])
            self._retime()
            deadline = self._deadline
            fresh = min(count - len(seqs), max(0, min(
                self.window, controller.window()) - len(self._outstanding)))
        self.data_frames_sent += len(seqs) + fresh
        if fresh:
            # First transmissions, in sequence order: drawn and retained
            # here, each in its packet's one record.
            first = self._next_unsent
            end = self._next_unsent = first + fresh
            drawn = ([self._read(self.packet_bytes)] if fresh == 1
                     else self._read_packets(fresh))
            due = now + self.controller.rto()
            outstanding, timers = self._outstanding, self._timers
            for seq, payload in enumerate(drawn, first):
                record = outstanding[seq] = [due, 1, now, payload]
                heappush(timers, (due, seq, record))
            if len(timers) > 2 * self.window + 64:
                self._compact_timers()
            if deadline is None or due < deadline:
                # Only an earlier timer moves the index.  Fresh sends come
                # in time order, but under Reno the RTO may have shrunk.
                self._deadline = due
                self.timer_epoch += 1
            seqs += range(first, end)
            payloads += drawn
        return seqs, payloads, [True] * len(seqs)

    def on_sent(self, frame: DataFrame, now: float) -> None:
        """``frame`` has left the host: its timer counts from here."""
        seq = frame.seq
        record = self._outstanding.get(seq)
        if record is not None:
            armed = record[0]
            self._arm(seq, record, now + self.controller.rto())
            if armed == self._deadline:  # else the earliest timer stands
                self._retime()

    def on_frame(self, frame, now: float) -> None:
        if isinstance(frame, AckFrame):
            self.on_acks((frame.seq,), now)

    def on_acks(self, seqs: Sequence[int], now: float) -> None:
        """A run of ACKs in arrival order, as ``on_frame`` would take
        them one at a time, with one re-derivation of the timers."""
        if self.done or self.failed:
            return
        outstanding = self._outstanding
        controller = self.controller
        for seq in seqs:
            if seq not in outstanding:
                # Duplicate/stale ack for an already-acknowledged packet.
                self._signal_dup_ack(now)
                continue
            lowest = next(iter(outstanding))
            # The packet's bookkeeping dies with its ack (so per-stream
            # state is O(window), not O(transfer)), and its heap entries
            # go stale with it.
            record = outstanding.pop(seq)
            record[0] = None
            self._acked += 1
            if seq == lowest:
                controller.on_ack(1, now)
            else:
                # An ack above the lowest outstanding packet is gap
                # evidence — the per-packet-ack analogue of a duplicate
                # ack (SACK-style).  Three of them fast-retransmit the
                # presumed-lost packet by making it overdue now.
                self._signal_dup_ack(now)
            if record[1] == 1:
                # Karn's rule: only first-transmission exchanges are
                # unambiguous RTT samples.
                controller.on_rtt_sample(max(0.0, now - record[2]))
            if self._acked == self.total:
                self.done = True
                break
        self._retime()

    def next_deadline(self) -> Optional[float]:
        return None if self.finished else self._deadline

    # -- internals ---------------------------------------------------------
    def _signal_dup_ack(self, now: float) -> None:
        outstanding = self._outstanding
        if self.controller.on_dup_ack(now) and outstanding:
            lowest = next(iter(outstanding))
            self._fast_retx.add(lowest)
            # Overdue: retransmit immediately.
            self._arm(lowest, outstanding[lowest], now)

    def _arm(self, seq: int, record: list, deadline: float) -> None:
        """(Re)start one packet's timer (the caller re-derives ``_deadline``)."""
        record[0] = deadline
        timers = self._timers
        heappush(timers, (deadline, seq, record))
        if len(timers) > 2 * self.window + 64:
            self._compact_timers()

    def _compact_timers(self) -> None:
        """Drop stale entries buried under a long-lived valid one."""
        self._timers = [item for item in self._timers if item[2][0] == item[0]]
        heapify(self._timers)

    def _retime(self) -> None:
        """Re-derive the earliest timer after ``_outstanding`` changed.

        Amortised O(1): every entry is pushed once and popped once.
        ``timer_epoch`` moves only when the earliest deadline does — a
        fresh send behind an older outstanding packet leaves both alone
        — so the engine's ``(deadline, epoch)`` index entry for this
        stream stays valid until the deadline it names is wrong.
        """
        heap = self._timers
        while heap and heap[0][2][0] != heap[0][0]:
            heappop(heap)
        deadline = heap[0][0] if heap else None
        if deadline != self._deadline:
            self._deadline = deadline
            self.timer_epoch += 1


def make_sender_machine(protocol: str, stream_id: int, payload: bytes,
                        packet_bytes: int, timeout_s: float,
                        max_rounds: int = 60, strategy: str = "selective",
                        window: int = 4,
                        congestion: Union[str, CongestionController] = "fixed",
                        credit: Optional[int] = None,
                        reliable_retry_s: Optional[float] = None):
    """Factory keyed by the service's protocol names.  ``congestion`` is
    a controller name, or a controller to use as it is.  ``credit`` (the
    receiver's buffer, in packets) bounds a blast's bursts and
    ``reliable_retry_s`` makes their last packet reliable; the
    per-packet-acknowledged protocols are clocked by their window and
    have no use for either."""
    controller = (congestion if isinstance(congestion, CongestionController)
                  else make_controller(congestion, timeout_s))
    if protocol == "blast":
        return BlastSenderMachine(stream_id, payload, packet_bytes,
                                  timeout_s, max_rounds, strategy=strategy,
                                  controller=controller, credit=credit,
                                  reliable_retry_s=reliable_retry_s)
    if protocol == "sliding":
        return WindowSenderMachine(stream_id, payload, packet_bytes,
                                   timeout_s, max_rounds, window=window,
                                   controller=controller)
    if protocol == "saw":
        return WindowSenderMachine(stream_id, payload, packet_bytes,
                                   timeout_s, max_rounds, window=1,
                                   controller=controller)
    raise ValueError(
        f"unknown service protocol {protocol!r}; "
        "choose from ['blast', 'sliding', 'saw']"
    )


class ReceiverMachine:
    """Client-side reception for one stream: track, reply, reassemble.

    ``per_packet_ack=True`` acknowledges every data frame (window/saw
    senders); otherwise replies go out only for ``wants_reply`` frames —
    ACK when complete, NAK with the reception report when the sender's
    strategy listens for one, silence for the timer-only strategy.

    ``total`` is the packet count when the caller knows it (a pull's
    verdict names it); otherwise the first data frame fixes it.  A data
    frame naming another count is dropped and counted, like a corrupted
    datagram.  Accepted packets wait in :attr:`chunks` for their
    consumer: :attr:`data` joins them all at the end, a
    :class:`~repro.service.pullclient.PullMachine` pops each one as
    soon as it has verified it.

    A reply-requesting frame that carries a ``segment_crc`` has the
    complete body checked against it before the ACK; a body that fails
    is discarded whole and reported missing.  :attr:`checksums` counts
    the checks, so a driver that models processor time can charge them.
    """

    def __init__(self, stream_id: int, per_packet_ack: bool, nak: bool,
                 total: Optional[int] = None):
        self.stream_id = stream_id
        self.per_packet_ack = per_packet_ack
        self.nak = nak
        self.tracker: Optional[ReceiverTracker] = (
            None if total is None else ReceiverTracker(total))
        self.chunks: Dict[int, bytes] = {}
        self.duplicates = 0
        self.dropped = 0
        self.replies_sent = 0
        self.checksums = 0

    @property
    def done(self) -> bool:
        return self.tracker is not None and self.tracker.is_complete

    @property
    def data(self) -> bytes:
        if not self.done:
            raise RuntimeError("transfer incomplete; data unavailable")
        assert self.tracker is not None
        return b"".join(self.chunks[seq] for seq in range(self.tracker.total))

    def on_frame(self, frame, now: float) -> List[object]:
        """Feed an incoming frame; returns the reply frames to transmit."""
        stream_id = self.stream_id
        if not isinstance(frame, DataFrame) or frame.stream_id != stream_id:
            return []
        tracker = self.tracker
        if tracker is None:
            tracker = self.tracker = ReceiverTracker(frame.total)
        elif frame.total != tracker.total:
            # A stale frame from a reused stream id, or a hostile peer:
            # dropped like a corrupted one (its seq may be out of range).
            self.dropped += 1
            return []
        seq = frame.seq
        if tracker.add(seq):
            self.chunks[seq] = frame.payload
        else:
            self.duplicates += 1
        if self.per_packet_ack:
            self.replies_sent += 1
            return [AckFrame(stream_id, seq, _ACK_WIRE_BYTES, stream_id)]
        if not frame.wants_reply:
            return []  # a blast's body: nearly every frame it receives
        if tracker.is_complete and frame.segment_crc is not None:
            self.checksums += 1
            if zlib.crc32(self.data) != frame.segment_crc:
                # Silent corruption got through: start over.
                self.tracker = ReceiverTracker(frame.total)
                self.chunks.clear()
        replies = self._report()
        self.replies_sent += len(replies)
        return replies

    def on_run(self, seqs: Sequence[int], totals: Sequence[int],
               payloads: Sequence[bytes], wants: Sequence[bool],
               now: float) -> List[object]:
        """:meth:`on_frame` over a run of this stream's data packets, as
        :func:`~repro.core.wire.decode_data_run` returns them: the same
        replies, in order, and counters, with no frame."""
        if not seqs:
            return []
        tracker = self.tracker
        if tracker is None:
            tracker = self.tracker = ReceiverTracker(totals[0])
        expected, received, chunks = tracker.total, tracker.received, self.chunks
        stream_id, ack, replies = self.stream_id, self.per_packet_ack, []
        for seq, total, payload, want in zip(seqs, totals, payloads, wants):
            if total != expected:
                self.dropped += 1   # as on_frame: like a corrupted frame
                continue
            if seq in received:
                self.duplicates += 1
                tracker.duplicates += 1
            else:
                received.add(seq)
                chunks[seq] = payload
            if ack:
                replies.append(AckFrame(stream_id, seq, _ACK_WIRE_BYTES,
                                        stream_id))
            elif want:
                replies += self._report()
        self.replies_sent += len(replies)
        return replies

    def _report(self) -> List[object]:
        """A blast's reply to a packet that wants one (see the class)."""
        tracker, stream_id = self.tracker, self.stream_id
        if tracker.is_complete:
            return [AckFrame(stream_id, tracker.total - 1, stream_id=stream_id)]
        if self.nak:
            report = tracker.report()
            return [NakFrame(stream_id, report.first_missing, report.missing,
                             report.total, stream_id=stream_id)]
        return []


def receiver_for(protocol: str, stream_id: int, strategy: str = "selective",
                 total: Optional[int] = None) -> ReceiverMachine:
    """The receiver that matches a sender machine's reply expectations."""
    if protocol == "blast":
        uses_nak = get_strategy(strategy).mode is not FailureDetection.TIMER_ONLY
        return ReceiverMachine(stream_id, per_packet_ack=False, nak=uses_nak,
                               total=total)
    if protocol in ("sliding", "saw"):
        return ReceiverMachine(stream_id, per_packet_ack=True, nak=False,
                               total=total)
    raise ValueError(f"unknown service protocol {protocol!r}")

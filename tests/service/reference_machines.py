"""Reference window sender: the pre-heap ``WindowSenderMachine``, verbatim.

The oracle for ``test_window_machine_equivalence.py``: ``_SenderBase``
and ``WindowSenderMachine`` exactly as they stood before the
constant-time ack clock (every step re-scans the ``_outstanding``
table, every mutation bumps ``timer_epoch``, no table is ever pruned),
moved here unchanged from ``repro.service.machines`` (only the import
paths and the class names' ``Reference`` prefix differ).  The property
test drives it in lockstep with the live machine.

Do **not** optimize this module.  Its whole value is staying naive in
exactly the old way.
"""

from typing import Dict, Optional, Set

from repro.congestion.controller import CongestionController, make_controller
from repro.core.base import chunk_payload
from repro.core.frames import AckFrame, DataFrame, FrameKind
from repro.service.machines import TransferOutcome


class _ReferenceSenderBase:
    """State shared by the sender machines."""

    def __init__(self, stream_id: int, payload: bytes, packet_bytes: int,
                 timeout_s: float, max_rounds: int,
                 controller: Optional[CongestionController] = None):
        if stream_id < 1:
            raise ValueError(f"stream_id must be >= 1, got {stream_id}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.stream_id = stream_id
        self.payload = payload
        self.packet_bytes = packet_bytes
        self.timeout_s = timeout_s
        self.max_rounds = max_rounds
        # All window and timer arithmetic routes through the controller;
        # the default FixedController returns timeout_s and an unbounded
        # window, reproducing the pre-congestion machines byte-for-byte.
        self.controller = (controller if controller is not None
                          else make_controller("fixed", timeout_s))
        self.chunks = chunk_payload(payload, packet_bytes)
        self.total = len(self.chunks)
        self.done = False
        self.failed = False
        self.error = ""
        self.data_frames_sent = 0
        self.retransmits = 0
        self.rounds = 0
        #: Dirty counter for the engine's lazy-invalidation deadline
        #: index: bumped by every mutation that can move (or clear) the
        #: value :meth:`next_deadline` reports, so a ``(deadline,
        #: stream, epoch)`` heap entry is valid exactly while the epoch
        #: it was pushed under is current.
        self.timer_epoch = 0
        #: Retransmit chunk cache: ``(seq, wants_reply)`` -> DataFrame.
        #: Frames are immutable values on both substrates, so a
        #: retransmission reuses the first transmission's frame instead
        #:  of re-slicing and re-wrapping the payload chunk.
        self._frame_cache: Dict[tuple, DataFrame] = {}

    def _rto(self) -> float:
        return self.controller.rto()

    @property
    def finished(self) -> bool:
        return self.done or self.failed

    def outcome(self) -> TransferOutcome:
        return TransferOutcome(
            stream_id=self.stream_id,
            ok=self.done and not self.failed,
            size_bytes=len(self.payload),
            packets=self.total,
            data_frames_sent=self.data_frames_sent,
            retransmits=self.retransmits,
            rounds=self.rounds,
            error=self.error,
            congestion=self.controller.snapshot(),
        )

    def _fail(self, message: str) -> None:
        self.failed = True
        self.error = message
        self.timer_epoch += 1  # finished machines report no deadline

    def _data(self, seq: int, wants_reply: bool) -> DataFrame:
        self.data_frames_sent += 1
        frame = self._frame_cache.get((seq, wants_reply))
        if frame is None:
            frame = DataFrame(
                transfer_id=self.stream_id,
                seq=seq,
                total=self.total,
                payload=self.chunks[seq],
                wants_reply=wants_reply,
                stream_id=self.stream_id,
            )
            self._frame_cache[seq, wants_reply] = frame
        return frame


class ReferenceWindowSenderMachine(_ReferenceSenderBase):
    """Per-packet-acknowledged window sender (``window=1`` = stop-and-wait).

    Up to ``window`` packets are outstanding at once, every one marked
    ``wants_reply``; an un-acknowledged packet is retransmitted when its
    timer expires, with a per-packet attempt cap standing in for the
    blast machine's round cap.
    """

    #: Per-packet acknowledgement needs no NAK reports, and control
    #: traffic is ServiceCore's business (replint REP114).
    FSM_IGNORES = (FrameKind.NAK, FrameKind.CONTROL)

    def __init__(self, stream_id: int, payload: bytes, packet_bytes: int,
                 timeout_s: float, max_rounds: int = 60, window: int = 4,
                 controller: Optional[CongestionController] = None):
        super().__init__(stream_id, payload, packet_bytes, timeout_s,
                         max_rounds, controller=controller)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._next_unsent = 0
        self._outstanding: Dict[int, float] = {}  # seq -> retransmit deadline
        self._attempts: Dict[int, int] = {}
        self._sent_at: Dict[int, float] = {}  # seq -> first transmission time
        self._fast_retx: Set[int] = set()
        self._backoff_blackout = float("-inf")
        self._acked = 0
        self.rounds = 1

    # -- step API ----------------------------------------------------------
    def poll(self, now: float) -> None:
        if self.finished:
            return
        for seq, deadline in self._outstanding.items():
            if now >= deadline and self._attempts.get(seq, 0) >= self.max_rounds:
                self._fail(f"packet {seq} unacknowledged after "
                           f"{self.max_rounds} attempts")
                return

    def has_frame(self, now: float) -> bool:
        return self.frames_available(now) > 0

    def frames_available(self, now: float) -> int:
        """Frames this machine could emit right now without new input."""
        if self.finished:
            return 0
        overdue = sum(1 for deadline in self._outstanding.values()
                      if now >= deadline)
        # Fresh sends respect both the configured window and the
        # congestion window (unbounded for the fixed controller);
        # retransmissions are already in flight and always allowed.
        window = min(self.window, self.controller.window())
        fresh_room = min(window - len(self._outstanding),
                         self.total - self._next_unsent)
        return overdue + max(0, fresh_room)

    def next_frame(self, now: float) -> DataFrame:
        # Overdue retransmissions first, lowest sequence number first —
        # deterministic because _outstanding is insertion-ordered and
        # sequence numbers only grow.
        for seq, deadline in self._outstanding.items():
            if now >= deadline:
                self.retransmits += 1
                self.rounds += 1
                self._attempts[seq] = self._attempts.get(seq, 0) + 1
                if seq in self._fast_retx:
                    # A fast retransmit is loss recovery, not a timer
                    # expiry — no RTO backoff.
                    self._fast_retx.discard(seq)
                elif now >= self._backoff_blackout:
                    # One backoff per RTO period, however many packets
                    # expired together in the burst.
                    self.controller.on_timeout(now)
                    self._backoff_blackout = now + self._rto()
                self._outstanding[seq] = now + self._rto()
                self.timer_epoch += 1
                return self._data(seq, wants_reply=True)
        seq = self._next_unsent
        self._next_unsent += 1
        self._attempts[seq] = 1
        self._sent_at[seq] = now
        self._outstanding[seq] = now + self._rto()
        self.timer_epoch += 1
        return self._data(seq, wants_reply=True)

    def on_frame(self, frame, now: float) -> None:
        if self.finished or not isinstance(frame, AckFrame):
            return
        if frame.seq in self._outstanding:
            lowest = min(self._outstanding)
            del self._outstanding[frame.seq]
            self.timer_epoch += 1
            self._acked += 1
            if frame.seq == lowest:
                self.controller.on_ack(1, now)
            else:
                # An ack above the lowest outstanding packet is gap
                # evidence — the per-packet-ack analogue of a duplicate
                # ack (SACK-style).  Three of them fast-retransmit the
                # presumed-lost packet by making it overdue now.
                self._signal_dup_ack(now)
            if self._attempts.get(frame.seq, 0) == 1 and frame.seq in self._sent_at:
                # Karn's rule: only first-transmission exchanges are
                # unambiguous RTT samples.
                self.controller.on_rtt_sample(
                    max(0.0, now - self._sent_at[frame.seq]))
            if self._acked == self.total:
                self.done = True
        else:
            # Duplicate/stale ack for an already-acknowledged packet.
            self._signal_dup_ack(now)

    def next_deadline(self) -> Optional[float]:
        if self.finished or not self._outstanding:
            return None
        return min(self._outstanding.values())

    # -- internals ---------------------------------------------------------
    def _signal_dup_ack(self, now: float) -> None:
        if self.controller.on_dup_ack(now) and self._outstanding:
            lowest = min(self._outstanding)
            self._outstanding[lowest] = now  # overdue: retransmit immediately
            self._fast_retx.add(lowest)
            self.timer_epoch += 1

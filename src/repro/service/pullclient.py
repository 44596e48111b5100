"""The pull protocol's client side, once: a substrate-free state machine.

Same discipline as :mod:`repro.service.machines` — no clock reads, no
I/O; the driver supplies ``now`` and carries frames — so the one
:class:`PullMachine` runs under the discrete-event simulator
(:mod:`repro.service.simservice`) and behind a selector on real sockets
(:mod:`repro.service.clientpump`), and a fake clock can test it.

A pull passes through three timed states:

1. **pulling** — the control request is out; it is sent again after
   every quiet ``pull_timeout_s`` until the server's verdict arrives,
   ``pull_retries`` sends in all;
2. **receiving** — data frames of the stream go to the protocol
   receiver the verdict names, its replies go back; ``recv_timeout_s``
   without one is a stall.  Each packet is verified on arrival, in
   sequence order (an early one waits in the receiver), against the
   client's own :class:`~repro.service.machines.BodyStream` seeded from
   the (seed, stream) pair the verdict echoes, then released — payload
   integrity needs no checksum exchange and no whole-body buffer;
3. **linger** — ``wants_reply`` duplicates are re-answered for
   ``linger_s`` so a lost final ACK cannot wedge the server's sender.

The driver may also know how many packets its receive buffer holds;
when that is less than the body it says so (``credit=``) and the
request carries it, so a blast server sends no more than that between
two of this client's reports (docs/service.md, "Credit").

All three obey one driver contract, the *quiet period*: send the frames
the last call returned, then wait up to :attr:`PullMachine.quiet_s` for
a frame the machine :meth:`~PullMachine.wants`.  Hand that frame to
:meth:`~PullMachine.on_frame`, a whole read to
:meth:`~PullMachine.on_frames`, or, once the verdict is in, a read's
data packets as one run to :meth:`~PullMachine.on_run`; if the period
passes without one, call :meth:`~PullMachine.on_quiet`.  Either call
restarts the period.  Stop when :attr:`PullMachine.done`.  What a
driver does with a frame the machine does not want (the DES keeps it
buffered, the pump drops it) is the substrate's business.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.frames import ControlFrame, DataFrame
from ..core.strategies import get_strategy
from .machines import BodyStream, packet_count, receiver_for

__all__ = ["PullMachine", "UdpPullResult"]

_PULLING = 0
_RECEIVING = 1
_LINGER = 2


@dataclass
class UdpPullResult:
    """One client-side pull, verified end to end."""

    stream_id: int
    status: str
    size_bytes: int = 0
    payload_ok: bool = False
    duplicates: int = 0
    #: Data frames naming another packet count than the verdict's.
    dropped: int = 0
    elapsed_s: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.payload_ok


class PullMachine:
    """Request one stream, receive it, verify it, linger."""

    def __init__(self, stream_id: int, size: int, protocol: str,
                 strategy: str, pull_timeout_s: float, pull_retries: int,
                 recv_timeout_s: float, linger_s: float,
                 client: Optional[str] = None,
                 credit: Optional[int] = None):
        self.stream_id = stream_id
        self.size = size
        self.protocol = protocol
        self.strategy = strategy
        self.pull_retries = pull_retries
        self.recv_timeout_s = recv_timeout_s
        self.linger_s = linger_s
        # A bad protocol or strategy name of our own raises here, so the
        # same ValueError later can only mean a bad name in a response.
        receiver_for(protocol, stream_id, strategy)
        body = {"op": "pull", "size": size, "stream": stream_id}
        if client is not None:
            # DES frames carry no source address: the request names it.
            body["client"] = client
        if credit is not None and get_strategy(strategy).uses_nak:
            # The driver's receive buffer holds fewer packets than the
            # body has: a blast may have only this many unreported.  A
            # receiver that stays silent until the body is complete
            # (the timer-only strategy) has no report to return credit
            # with, so it advertises none.
            if credit < 1:
                raise ValueError(f"credit must be >= 1, got {credit}")
            body["credit"] = credit
        self._request = ControlFrame(
            transfer_id=0, request_id=stream_id,
            body=json.dumps(body, sort_keys=True).encode())
        self._state = _PULLING
        self._attempts = 0
        self._receiver = None
        self._body: Optional[BodyStream] = None
        self._verified = 0      # packets checked so far == next seq to check
        self._bytes = 0
        self._intact = True
        self.started = 0.0
        #: How long the driver waits for a wanted frame in this state.
        self.quiet_s = pull_timeout_s
        self.done = False
        #: The verdict; set before ``done`` when a good pull lingers.
        self.result: Optional[UdpPullResult] = None

    def start(self, now: float) -> List[object]:
        """Begin the pull; returns the first request to send."""
        self.started = now
        self._attempts = 1
        return [self._request]

    def wants(self, frame) -> bool:
        """Is ``frame`` one this state consumes?  (A pure predicate.)"""
        if self._state == _PULLING:
            return (isinstance(frame, ControlFrame)
                    and frame.request_id == self.stream_id
                    and frame.stream_id in (0, self.stream_id))
        # Duplicate verdicts and other streams' frames are not progress.
        return (isinstance(frame, DataFrame)
                and frame.stream_id == self.stream_id)

    def on_frame(self, frame, now: float) -> List[object]:
        """Consume a wanted frame; returns the frames to send."""
        return self.on_frames((frame,), now) or []

    def on_frames(self, frames: Sequence[object],
                  now: float) -> Optional[List[object]]:
        """Consume one read's frames in arrival order, each judged in the
        state the ones before left (a read may carry the verdict and the
        first packets); returns the frames to send, or None if it wanted
        none.  Arrivals are verified, and completion checked, once."""
        replies = None
        start = 0
        if self._state == _PULLING:
            for start, frame in enumerate(frames, 1):
                if self.wants(frame):
                    replies = []
                    self._on_verdict(frame, now)
                    if self._state != _PULLING or self.done:
                        break
            if self._state == _PULLING:
                return replies
        receiver = self._receiver
        stream_id = self.stream_id
        for frame in frames[start:]:
            # ``wants`` once the verdict is in.
            if isinstance(frame, DataFrame) and frame.stream_id == stream_id:
                if replies is None:
                    replies = []
                replies += receiver.on_frame(frame, now)
        self._verify(now)
        return replies

    def on_run(self, seqs: Sequence[int], totals: Sequence[int],
               payloads: Sequence[bytes], wants: Sequence[bool],
               now: float) -> Optional[List[object]]:
        """:meth:`on_frames` for one read's data packets once not
        :attr:`pulling`, as :func:`~repro.core.wire.decode_data_run` gives."""
        if not seqs:
            return None
        replies = self._receiver.on_run(seqs, totals, payloads, wants, now)
        self._verify(now)
        return replies

    @property
    def pulling(self) -> bool:
        """Is the verdict still awaited (reads go to :meth:`on_frames`)?"""
        return self._state == _PULLING

    def _verify(self, now: float) -> None:
        """Verify what arrived in sequence order, check for completion."""
        receiver = self._receiver
        arrived = receiver.chunks
        verified = self._verified
        if verified in arrived:
            run = []    # in sequence order: compared at its offset in the body
            while verified in arrived:
                run.append(arrived.pop(verified))
                verified += 1
            body = b"".join(run)
            self._bytes += len(body)
            if body != self._body.read(len(body)):
                self._intact = False
            self._verified = verified
        if self._state == _RECEIVING and receiver.done:
            # Every packet has been compared at its offset in the body,
            # so equal length is all that is left of byte-equality.
            self.result = UdpPullResult(
                self.stream_id, "ok", size_bytes=self._bytes,
                payload_ok=self._intact and self._bytes == self.size,
                duplicates=receiver.duplicates, dropped=receiver.dropped,
                elapsed_s=now - self.started)
            self._body = None  # nothing is verified during the linger
            self._state = _LINGER
            self.quiet_s = self.linger_s

    def on_quiet(self, now: float) -> List[object]:
        """A quiet period passed; returns the frames to send."""
        if self._state == _LINGER:
            self.done = True
        elif self._state == _RECEIVING:
            self._fail("stalled", now, "transfer stalled before completion")
        elif self._attempts < self.pull_retries:
            self._attempts += 1
            return [self._request]
        else:
            self._fail("no-response", now, "control response never arrived")
        return []

    def _on_verdict(self, frame: ControlFrame, now: float) -> None:
        # Anything but a well-formed verdict is ignored like a corrupted
        # datagram: the request keeps being retried.
        try:
            verdict = json.loads(frame.body.decode())
        except (ValueError, UnicodeDecodeError):
            return
        if not isinstance(verdict, dict):
            return
        status, seed = verdict.get("status"), verdict.get("seed")
        if not isinstance(status, str):
            return
        if status != "ok":
            self._fail(status, now, str(verdict.get("reason", "")))
            return
        packets = verdict.get("packets")
        if type(seed) is not int or not self._cuts_into(packets):
            return
        try:
            # Auto-tuned servers name the protocol they picked for this
            # stream; otherwise the configured one applies.  The packet
            # count is the verdict's: no data frame gets to set it.
            self._receiver = receiver_for(
                verdict.get("protocol", self.protocol), self.stream_id,
                self.strategy, total=packets)
        except ValueError:
            return
        self._body = BodyStream(seed, self.stream_id, self.size)
        self._state = _RECEIVING
        self.quiet_s = self.recv_timeout_s

    def _cuts_into(self, packets) -> bool:
        """Is there a packet size that cuts ``size`` bytes into exactly
        ``packets``?  (The smallest that needs no more decides it.)"""
        if type(packets) is not int or packets < 1:  # not a JSON true
            return False
        packet_bytes = packet_count(self.size, packets)
        return packets == packet_count(self.size, packet_bytes)

    def _fail(self, status: str, now: float, error: str) -> None:
        self.result = UdpPullResult(self.stream_id, status,
                                    elapsed_s=now - self.started, error=error)
        self.done = True

"""TCP-Reno congestion control as a substrate-free state machine.

Three states over a (cwnd, ssthresh) pair, windows counted in packets
(the protocol family's MSS):

- **slow start** — cwnd grows by one packet per new ack (doubling per
  round trip) until it crosses ssthresh;
- **congestion avoidance** — cwnd grows by ``1/cwnd`` per new ack
  (one packet per round trip);
- **fast recovery** — entered on the third duplicate ack for the same
  outstanding packet: ssthresh drops to half the flight, the lost
  packet is retransmitted immediately (fast retransmit, signalled by
  :meth:`on_dup_ack` returning True exactly once per loss event), and
  cwnd inflates by one per further duplicate until a new ack deflates
  it back to ssthresh.

A retransmission-timer expiry from any state halves ssthresh, resets
cwnd to one packet and re-enters slow start; the RTO itself comes from
the Jacobson/Karels estimator in :class:`repro.core.timers.AdaptiveTimeout`
(SRTT/RTTVAR with Karn's rule: ambiguous exchanges are never sampled,
and expiry doubles the working RTO until the next clean sample), which
Reno composes through the same controller methods it implements.

Every transfer starts in slow start at ``INIT_CWND`` = 1 packet with
``INIT_SSTHRESH`` = 64 packets, effectively "slow start until the first
loss event"; the estimator's first guess is the caller's fixed T_r.

Invariants, pinned by ``tests/congestion/test_reno_properties.py``:
``cwnd >= 1`` and ``ssthresh >= 2`` after any event sequence, and fast
recovery is never re-entered for the same loss event (the only exits
are a new ack or a timeout, both of which rearm the dup-ack counter).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.timers import AdaptiveTimeout
from .controller import CongestionController

__all__ = ["RenoController", "SLOW_START", "CONGESTION_AVOIDANCE", "FAST_RECOVERY"]

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
FAST_RECOVERY = "fast_recovery"

#: Floor for ssthresh, in packets (RFC 5681's "max(FlightSize/2, 2*SMSS)").
MIN_SSTHRESH = 2.0

#: Initial congestion window and slow-start threshold, packets.
INIT_CWND = 1.0
INIT_SSTHRESH = 64.0

#: Duplicate acks that trigger fast retransmit.
DUP_ACK_THRESHOLD = 3

#: Timeline entries kept per transfer — enough to see the sawtooth,
#: bounded so a pathological transfer cannot bloat the metrics report.
TIMELINE_CAP = 256

_ROUND = 9  # decimals in timeline floats, matching the metrics report


class RenoController(CongestionController):
    """Reno slow start / congestion avoidance / fast recovery.

    Parameters
    ----------
    timeout_s:
        Initial RTO before the first RTT sample (the caller's fixed
        T_r is the natural seed).
    """

    name = "reno"

    def __init__(self, timeout_s: float):
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.cwnd = INIT_CWND
        self.ssthresh = INIT_SSTHRESH
        self.state = SLOW_START
        self.rtt = AdaptiveTimeout(initial_s=timeout_s)
        self._dup_acks = 0
        self.fast_retransmits = 0
        self.rto_events = 0
        self.acks_seen = 0
        self._timeline: List[Tuple[float, str, float, float, float]] = []
        self._timeline_dropped = 0
        self._note(0.0, "start")

    # -- CongestionController API -------------------------------------------
    def window(self) -> int:
        win = int(self.cwnd)
        return win if win >= 1 else 1

    def rto(self) -> float:
        return self.rtt.rto()

    def on_ack(self, newly_acked: int = 1, now: float = 0.0) -> None:
        if newly_acked < 1:
            return
        self.acks_seen += newly_acked
        self._dup_acks = 0
        if self.state == FAST_RECOVERY:
            # Deflate: the recovery window's inflation served its
            # purpose once new data is acknowledged.
            self.cwnd = self.ssthresh
            self.state = CONGESTION_AVOIDANCE
            self._note(now, "recover")
            newly_acked -= 1  # the deflating ack itself does not grow cwnd
        for _ in range(newly_acked):
            if self.state == SLOW_START:
                self.cwnd += 1.0
                if self.cwnd >= self.ssthresh:
                    self.state = CONGESTION_AVOIDANCE
                    self._note(now, "ss_exit")
            else:
                self.cwnd += 1.0 / self.cwnd

    def on_dup_ack(self, now: float = 0.0) -> bool:
        if self.state == FAST_RECOVERY:
            # Each further duplicate means another packet left the
            # network: inflate so transmission can continue.
            self.cwnd += 1.0
            return False
        self._dup_acks += 1
        if self._dup_acks < DUP_ACK_THRESHOLD:
            return False
        # Third duplicate: one loss event, one fast retransmit.  The
        # state flips to FAST_RECOVERY, so further duplicates inflate
        # instead of re-triggering — re-entry requires leaving first
        # (new ack or timeout), which is the property the Hypothesis
        # suite pins.
        self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
        self.cwnd = self.ssthresh + float(DUP_ACK_THRESHOLD)
        self.state = FAST_RECOVERY
        self._dup_acks = 0
        self.fast_retransmits += 1
        self._note(now, "fast_retx")
        return True

    def on_loss(self, now: float = 0.0) -> None:
        # Explicit loss evidence (a NAK report) — a multiplicative
        # decrease without the dup-ack choreography, since the blast
        # protocols learn of loss in one report rather than ack by ack.
        if self.state == FAST_RECOVERY:
            return
        self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
        self.cwnd = max(self.ssthresh, 1.0)
        self.state = CONGESTION_AVOIDANCE
        self._dup_acks = 0
        self._note(now, "loss")

    def on_timeout(self, now: float = 0.0) -> None:
        self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
        self.cwnd = 1.0
        self.state = SLOW_START
        self._dup_acks = 0
        self.rto_events += 1
        self.rtt.on_timeout(now)  # Karn backoff: RTO doubles until a clean sample
        self._note(now, "rto")

    def on_rtt_sample(self, rtt_s: float) -> None:
        self.rtt.on_rtt_sample(rtt_s)

    def snapshot(self) -> dict:
        srtt = self.rtt.srtt
        return {
            "controller": self.name,
            "state": self.state,
            "cwnd": round(self.cwnd, _ROUND),
            "ssthresh": round(self.ssthresh, _ROUND),
            "rto_s": round(self.rto(), _ROUND),
            "srtt_s": None if srtt is None else round(srtt, _ROUND),
            "rtt_samples": self.rtt.samples,
            "acks": self.acks_seen,
            "fast_retransmits": self.fast_retransmits,
            "rto_events": self.rto_events,
            "timeline": [
                {
                    "t": t,
                    "event": event,
                    "cwnd": cwnd,
                    "ssthresh": ssthresh,
                    "rto_s": rto,
                }
                for t, event, cwnd, ssthresh, rto in self._timeline
            ],
            "timeline_dropped": self._timeline_dropped,
        }

    # -- internals ----------------------------------------------------------
    def _note(self, now: float, event: str) -> None:
        if len(self._timeline) >= TIMELINE_CAP:
            self._timeline_dropped += 1
            return
        self._timeline.append(
            (
                round(now, _ROUND),
                event,
                round(self.cwnd, _ROUND),
                round(self.ssthresh, _ROUND),
                round(self.rto(), _ROUND),
            )
        )

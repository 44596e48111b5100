"""Per-transfer protocol auto-tuning.

Arslan & Kosar tune {parallelism, pipelining, concurrency} per transfer
from file size and measured network conditions; the analogue here is
{protocol, window, congestion controller} chosen from the transfer size
and an online loss-rate estimate.

The decision table (calibrated against the loss-sweep ledger,
``benchmarks/results/congestion_sweep.txt``):

==================  ==========  ========================================
condition           choice      why
==================  ==========  ========================================
size <= 1 packet    saw/fixed   nothing to pipeline; per-packet ack is
                                the whole transfer
loss < 1%           blast/      the paper's regime: the full-blast
                    fixed       working set wins outright on a clean LAN
loss >= 1%          sliding/    per-packet acks localise loss, Reno's
                    reno        adaptive RTO replaces stalls on the
                                fixed T_r with quick recovery, and the
                                closed window stops retransmission
                                storms
==================  ==========  ========================================

The loss estimate is an EWMA over completed transfers of
``retransmits / data_frames_sent`` — retransmissions as a fraction of
frames offered, the only loss signal every protocol in the family
exposes.  No RNG, no clock: the tuner is deterministic given the
transfer history, which is what keeps auto-tuned ledgers byte-stable
(``tests/lint/test_source_rules.py`` refuses a seed that does not flow
in from the caller).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AutoTuner", "TunerChoice"]


@dataclass(frozen=True)
class TunerChoice:
    """One transfer's tuned tuple."""

    protocol: str
    window: int
    congestion: str


#: EWMA gain of the loss estimate.
GAIN = 0.3
#: Estimated loss fraction above which the tuner abandons blast for the
#: congestion-controlled sliding window (the 1% row of the table above).
LOSSY_THRESHOLD = 0.01
#: Sliding-window depth used in the lossy regime.
LOSSY_WINDOW = 8


class AutoTuner:
    """Chooses {protocol, window, congestion} per transfer.

    The loss estimate starts at 0 — trust the LAN until it misbehaves,
    which makes the first choice on a clean network identical to the
    paper's.

    Parameters
    ----------
    packet_bytes:
        The service's packet size — the size threshold is "fits in one
        packet".
    """

    def __init__(self, packet_bytes: int):
        if packet_bytes < 1:
            raise ValueError(f"packet_bytes must be >= 1, got {packet_bytes}")
        self.packet_bytes = packet_bytes
        self.loss_estimate = 0.0
        self.observations = 0

    def observe(self, data_frames_sent: int, retransmits: int) -> None:
        """Fold one completed transfer's counters into the loss estimate."""
        if data_frames_sent <= 0:
            return
        sample = min(max(retransmits / data_frames_sent, 0.0), 1.0)
        self.observations += 1
        if self.observations == 1:
            self.loss_estimate = sample
        else:
            self.loss_estimate += GAIN * (sample - self.loss_estimate)

    def choose(self, size_bytes: int) -> TunerChoice:
        """The tuned {protocol, window, congestion} for one transfer."""
        if size_bytes <= self.packet_bytes:
            return TunerChoice(protocol="saw", window=1, congestion="fixed")
        if self.loss_estimate < LOSSY_THRESHOLD:
            return TunerChoice(protocol="blast", window=1, congestion="fixed")
        return TunerChoice(
            protocol="sliding", window=LOSSY_WINDOW, congestion="reno"
        )

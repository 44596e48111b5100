"""The adaptive retransmission timer.

The paper uses a *fixed* retransmission interval T_r (``timeout_s``,
which every transfer turns into a
:class:`~repro.congestion.controller.FixedController`) and Figure 6
shows how much its choice matters: sigma of the timer-driven strategies
is proportional to T_r.  Picking T_r needs knowledge of T0(D) — which
varies with transfer size, load and technology.  This module adds the
textbook alternative as an extension: an adaptive timer estimating the
round-trip time online (Jacobson's EWMA of mean and deviation, with
Karn's rule of not sampling ambiguous rounds and exponential backoff on
expiry).  Its gains, multiplier, backoff and 60 s ceiling are RFC
6298's constants; only the first guess is the caller's.

It is a congestion controller whose window never closes, so a transfer
hands it to its machine like any other.  It is deliberately stateful and
reusable across transfers: a file server performing many MoveTos hands
the same timer to every transfer and the estimate converges over the
workload (``benchmarks/test_ablation_adaptive_timer.py``).  Reno
composes one for its RTO.
"""

from __future__ import annotations

from ..congestion.controller import UNBOUNDED_WINDOW, CongestionController

__all__ = ["AdaptiveTimeout"]

#: RFC 6298: EWMA gains of the mean and the deviation, the deviation
#: multiplier, and the expiry backoff.
ALPHA = 0.125
BETA = 0.25
K = 4.0
BACKOFF = 2.0
#: Clamp on the RTO, seconds: a 0.1 ms floor (RFC 6298's 1 s would
#: swamp the paper's 4 ms exchange) and RFC 6298's 60 s ceiling.
MIN_RTO_S = 1e-4
MAX_RTO_S = 60.0


class AdaptiveTimeout(CongestionController):
    """Jacobson/Karels RTO estimation with Karn backoff.

    ``rto = srtt + K * rttvar`` with EWMA gains ``ALPHA`` (mean) and
    ``BETA`` (deviation); timer expiry doubles the working RTO (bounded
    by ``MAX_RTO_S``) until the next clean sample.

    Parameters
    ----------
    initial_s:
        RTO used before the first sample — deliberately allowed to be a
        terrible guess; convergence is the point.
    """

    def __init__(self, initial_s: float = 1.0):
        if initial_s <= 0:
            raise ValueError("initial_s must be > 0")
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self._rto = min(max(initial_s, MIN_RTO_S), MAX_RTO_S)
        self.samples = 0
        self.expirations = 0

    def window(self) -> int:
        return UNBOUNDED_WINDOW

    def rto(self) -> float:
        return self._rto

    def on_rtt_sample(self, rtt_s: float) -> None:
        if rtt_s < 0:
            raise ValueError("rtt_s must be >= 0")
        self.samples += 1
        if self.srtt is None:
            # RFC 6298 initialisation.
            self.srtt = rtt_s
            self.rttvar = rtt_s / 2.0
        else:
            error = rtt_s - self.srtt
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(error)
            self.srtt = self.srtt + ALPHA * error
        self._rto = min(max(self.srtt + K * self.rttvar, MIN_RTO_S), MAX_RTO_S)

    def on_timeout(self, now: float = 0.0) -> None:
        self.expirations += 1
        self._rto = min(self._rto * BACKOFF, MAX_RTO_S)

"""Expected transfer times under independent packet loss (paper §3.1).

The model: each frame transmission fails independently with probability
``p_n``.  An *exchange* (one attempt of the whole unit being retried)
fails with probability ``p_c``; attempts repeat until one succeeds, so the
number of failed attempts is geometric with mean ``p_c / (1 - p_c)`` and
each failed attempt costs the error-free attempt time plus the
retransmission interval ``T_r``:

    E[T] = T0 + (T0 + T_r) * p_c / (1 - p_c)

For stop-and-wait the retried unit is a single packet (D independent
single-packet exchanges, ``p_c = 1 - (1-p_n)^2`` for data + ack); for
blast with full retransmission the unit is the whole D-packet sequence
plus its acknowledgement (``p_c = 1 - (1-p_n)^(D+1)``).
"""

from __future__ import annotations

import math

__all__ = [
    "p_fail_saw_exchange",
    "p_fail_blast",
    "mean_retries",
    "expected_time_saw",
    "expected_time_blast",
]


def _check_pn(p_n: float) -> None:
    if not 0.0 <= p_n <= 1.0:
        raise ValueError(f"p_n must be in [0, 1], got {p_n}")


def p_fail_saw_exchange(p_n: float) -> float:
    """Probability one stop-and-wait exchange fails: data or ack lost."""
    _check_pn(p_n)
    return 1.0 - (1.0 - p_n) ** 2


def p_fail_blast(p_n: float, d_packets: int) -> float:
    """Probability a D-packet blast attempt fails: any of D data frames
    or the final acknowledgement lost — ``1 - (1-p_n)^(D+1)``."""
    _check_pn(p_n)
    if d_packets < 1:
        raise ValueError(f"d_packets must be >= 1, got {d_packets}")
    return 1.0 - (1.0 - p_n) ** (d_packets + 1)


def mean_retries(p_c: float) -> float:
    """Expected number of *failed* attempts before the success.

    Geometric: ``p_c / (1 - p_c)``; infinite when ``p_c == 1``.
    """
    if not 0.0 <= p_c <= 1.0:
        raise ValueError(f"p_c must be in [0, 1], got {p_c}")
    if p_c >= 1.0:
        return math.inf
    return p_c / (1.0 - p_c)


def expected_time_saw(
    d_packets: int, t0_single: float, t_retry: float, p_n: float
) -> float:
    """E[T] for a D-packet stop-and-wait transfer (paper §3.1.1).

    ``D x [ T0(1) + (T0(1) + T_r) x p_c / (1 - p_c) ]`` with
    ``p_c = 1 - (1-p_n)^2``.

    Parameters
    ----------
    d_packets: D, number of packets.
    t0_single: T0(1), error-free single-exchange time.
    t_retry:   T_r, retransmission interval.
    p_n:       per-frame loss probability.
    """
    if d_packets < 1:
        raise ValueError(f"d_packets must be >= 1, got {d_packets}")
    p_c = p_fail_saw_exchange(p_n)
    return d_packets * (t0_single + (t0_single + t_retry) * mean_retries(p_c))


def expected_time_blast(
    d_packets: int, t0_full: float, t_retry: float, p_n: float
) -> float:
    """E[T] for blast with full retransmission on error (paper §3.1.2).

    ``T0(D) + (T0(D) + T_r) x p_c / (1 - p_c)`` with
    ``p_c = 1 - (1-p_n)^(D+1)``.

    Parameters
    ----------
    d_packets: D, number of packets per blast.
    t0_full:   T0(D), error-free blast time for the whole sequence.
    t_retry:   T_r, retransmission interval.
    p_n:       per-frame loss probability.
    """
    p_c = p_fail_blast(p_n, d_packets)
    return t0_full + (t0_full + t_retry) * mean_retries(p_c)

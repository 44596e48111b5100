"""Closed-form elapsed times for error-free transfers (paper §2.1.3).

These are the paper's formulas with the propagation-delay (tau) and
device-latency terms written out explicitly so the discrete-event
simulator can be checked against them *exactly*.  Notation follows the
paper:

=====  ==========================================================
N      number of data packets
C      processor copy time of a data packet (params.copy_data_s)
Ca     processor copy time of an ack (params.copy_ack_s)
T      wire time of a data packet (params.transmit_data_s)
Ta     wire time of an ack (params.transmit_ack_s)
tau    one-way propagation delay
L      per-frame device latency (0 in the accounted model)
=====  ==========================================================

Stop-and-wait serialises everything per packet; blast and sliding window
overlap the sender's copy-in of packet k+1 with the receiver's copy-out of
packet k, which is the whole story of the paper.
"""

from __future__ import annotations

from typing import Optional

from ..simnet.params import NetworkParams

__all__ = [
    "t_stop_and_wait",
    "t_blast",
    "t_sliding_window",
    "t_double_buffered",
    "t_single_exchange",
    "network_utilization",
]


def _check_n(n_packets: int) -> None:
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")


def t_single_exchange(params: Optional[NetworkParams] = None) -> float:
    """One-packet reliable exchange: ``2C + T + 2Ca + Ta + 2tau + 2L``.

    This is the paper's Table 2 total (3.91 ms accounted, 4.08 ms with the
    observed device-latency residual).
    """
    return t_stop_and_wait(1, params)


def t_stop_and_wait(n_packets: int, params: Optional[NetworkParams] = None) -> float:
    """T_SAW = N x (2C + T + 2Ca + Ta + 2 tau + 2L).

    Every packet performs the full serial round trip; the two processors
    are never active in parallel (paper Figure 3.a).
    """
    _check_n(n_packets)
    p = params if params is not None else NetworkParams.standalone()
    per_packet = (
        2 * p.copy_data_s
        + p.transmit_data_s
        + 2 * p.copy_ack_s
        + p.transmit_ack_s
        + 2 * p.propagation_delay_s
        + 2 * p.device_latency_s
    )
    return n_packets * per_packet


def t_blast(n_packets: int, params: Optional[NetworkParams] = None) -> float:
    """T_B = N x (C + T) + C + 2Ca + Ta + 2 tau + 2L.

    The receiver's copy-out of packet k overlaps the sender's copy-in of
    packet k+1 (paper Figure 3.b); only the last packet's copy-out, the
    single acknowledgement and the end-to-end latencies appear as
    constants.
    """
    _check_n(n_packets)
    p = params if params is not None else NetworkParams.standalone()
    return (
        n_packets * (p.copy_data_s + p.transmit_data_s)
        + p.copy_data_s
        + 2 * p.copy_ack_s
        + p.transmit_ack_s
        + 2 * p.propagation_delay_s
        + 2 * p.device_latency_s
    )


def t_sliding_window(n_packets: int, params: Optional[NetworkParams] = None) -> float:
    """T_SW = N x (C + Ca + T) + C + Ta + 2 tau + 2L.

    Like blast, but the sender additionally copies one acknowledgement
    out of its interface per packet (paper Figure 3.c), and the busy-wait
    discipline prevents hiding that copy inside the wire time.
    """
    _check_n(n_packets)
    p = params if params is not None else NetworkParams.standalone()
    return (
        n_packets * (p.copy_data_s + p.copy_ack_s + p.transmit_data_s)
        + p.copy_data_s
        + p.transmit_ack_s
        + 2 * p.propagation_delay_s
        + 2 * p.device_latency_s
    )


def t_double_buffered(n_packets: int, params: Optional[NetworkParams] = None) -> float:
    """Blast over a double-buffered interface (paper Figure 3.d).

    - T <= C (copy-bound, the paper's hardware):
      ``T_dbuf = N x C + T + C + 2Ca + Ta (+ latencies)``
    - T > C (wire-bound): ``T_dbuf = N x T + 2C + 2Ca + Ta (+ latencies)``

    A third buffer provides no further improvement because both C and T
    are constants.
    """
    _check_n(n_packets)
    p = params if params is not None else NetworkParams.standalone()
    tail = (
        2 * p.copy_ack_s
        + p.transmit_ack_s
        + 2 * p.propagation_delay_s
        + 2 * p.device_latency_s
    )
    if p.transmit_data_s <= p.copy_data_s:
        return n_packets * p.copy_data_s + p.transmit_data_s + p.copy_data_s + tail
    return n_packets * p.transmit_data_s + 2 * p.copy_data_s + tail


def network_utilization(n_packets: int, params: Optional[NetworkParams] = None) -> float:
    """Fraction of the blast elapsed time the wire is actually busy.

    ``u = (N x T + Ta) / T_B`` — about 38 % for the paper's 64 KB blast
    on the single-buffered 3-Com interface.
    """
    _check_n(n_packets)
    p = params if params is not None else NetworkParams.standalone()
    wire_time = n_packets * p.transmit_data_s + p.transmit_ack_s
    return wire_time / t_blast(n_packets, p)

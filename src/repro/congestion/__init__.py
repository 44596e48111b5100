"""Congestion control and adaptive protocol tuning.

The paper fixes its window and retransmission interval for life: the
window never closes (§2.3's blast discipline) and T_r is a constant
picked from measured T0(D).  Both assumptions only hold on an idle LAN.
This package breaks them behind one pluggable seam:

- :class:`~repro.congestion.controller.CongestionController` — the
  interface every transfer path consults for the current window
  (packets in flight / burst depth) and retransmission timeout, and
  feeds with ack / duplicate-ack / loss / timeout / RTT events;
- :class:`~repro.congestion.controller.FixedController` — the paper's
  behaviour, byte-for-byte: unbounded window, constant RTO, every
  event ignored (the default everywhere, so existing ledgers never
  move);
- :class:`~repro.congestion.reno.RenoController` — TCP-Reno slow
  start / congestion avoidance / fast recovery with fast retransmit on
  three duplicate acks, over the Jacobson/Karn RTT estimator from
  :mod:`repro.core.timers`;
- :class:`~repro.congestion.tuner.AutoTuner` — per-transfer
  {protocol, window, pipelining depth} selection from the transfer
  size and the measured loss rate, after Arslan & Kosar's heuristic
  protocol tuning;
- :func:`~repro.congestion.fairness.jain_index` — Ghaderi & Towsley's
  per-flow goodput fairness quantity, pinned by the conformance
  harness's multi-flow cells;
- :mod:`~repro.congestion.sweep` — the goodput-vs-loss-rate regression
  ledger (``benchmarks/results/congestion_sweep.txt``).

Everything in this package is substrate-free and deterministic: no
clock reads, no RNG, no I/O — callers supply ``now`` and carry frames,
which is what lets the same controller instance run under the DES
simulator and on real UDP sockets and lets replint hold the package to
the deterministic-layer rules (REP102/REP113).
"""

from .controller import (
    CONTROLLER_NAMES,
    CongestionController,
    FixedController,
    make_controller,
)
from .fairness import jain_index
from .reno import RenoController
from .tuner import AutoTuner, TunerChoice

__all__ = [
    "CONTROLLER_NAMES",
    "AutoTuner",
    "CongestionController",
    "FixedController",
    "RenoController",
    "TunerChoice",
    "jain_index",
    "make_controller",
]

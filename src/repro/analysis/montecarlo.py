"""Monte Carlo evaluation of blast retransmission strategies (paper §3.2).

The paper derives closed forms for full retransmission (with and without
negative acknowledgement) but resorts to computer simulation for the
partial and selective strategies: "We have simulated the procedures by
computer and determined both the expected time and the variance from the
simulation."  This module is that simulator.

It is an *abstract* protocol simulation — frame-loss coin flips plus the
linear time model ``t0(k) = k(C+T) + C + 2Ca + Ta + 2tau`` — rather than
the full discrete-event machinery, which makes sweeping p_n over many
thousand trials cheap.  The DES transfers (:mod:`repro.core`) provide the
mechanistic cross-check; ``tests/integration`` ties the two together.

Strategy mechanics follow the paper exactly:

- ``full_no_nak``: send all D; the receiver stays silent unless the
  sequence is complete; failures are discovered by the timer (cost
  ``t0(D) + T_r`` per failed attempt).
- ``full_nak``: the receiver replies to the *last* packet with ACK or
  NAK; only a lost last packet (or lost reply) falls back to the timer.
- ``gobackn`` (the paper's "partial"): D-1 packets unreliable, the last
  sent reliably (periodic retransmission); the reply names the first
  missing packet; resume from there.
- ``selective``: same, but the reply names the full missing set and only
  those are resent.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from ..parallel.pool import (
    DEFAULT_TRIAL_SHARD_SIZE,
    ExperimentPool,
    mix_seed,
    shard_counts,
)
from ..simnet.params import NetworkParams
from .errorfree import t_blast, t_single_exchange

__all__ = [
    "STRATEGIES",
    "TransferSample",
    "TrialSummary",
    "RoundCostModel",
    "simulate_blast_transfer",
    "simulate_saw_transfer",
    "run_trials",
]

#: Names accepted by :func:`simulate_blast_transfer` / :func:`run_trials`.
STRATEGIES = ("full_no_nak", "full_nak", "gobackn", "selective")


@dataclass(frozen=True)
class TransferSample:
    """Outcome of one simulated transfer."""

    elapsed_s: float
    rounds: int
    data_frames_sent: int
    reply_frames_sent: int


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate statistics over many simulated transfers."""

    n_trials: int
    mean_s: float
    std_s: float
    min_s: float
    max_s: float
    mean_rounds: float
    mean_data_frames: float

    @classmethod
    def from_samples(cls, samples: Sequence[TransferSample]) -> "TrialSummary":
        if not samples:
            raise ValueError("no results to summarise")
        elapsed = [s.elapsed_s for s in samples]
        return cls(
            n_trials=len(samples),
            mean_s=statistics.fmean(elapsed),
            std_s=statistics.stdev(elapsed) if len(elapsed) > 1 else 0.0,
            min_s=min(elapsed),
            max_s=max(elapsed),
            mean_rounds=statistics.fmean(s.rounds for s in samples),
            mean_data_frames=statistics.fmean(s.data_frames_sent for s in samples),
        )


class RoundCostModel:
    """Linear time model for blast rounds, shared with the closed forms."""

    def __init__(self, params: Optional[NetworkParams] = None):
        self.params = params if params is not None else NetworkParams.standalone()

    def t0(self, k_packets: int) -> float:
        """Error-free time of a k-packet blast round including the reply."""
        return t_blast(k_packets, self.params)

    def t0_single(self) -> float:
        """Error-free single-packet exchange (stop-and-wait unit)."""
        return t_single_exchange(self.params)


def simulate_blast_transfer(
    strategy: str,
    d_packets: int,
    p_n: float,
    t_retry: float,
    cost: RoundCostModel,
    rng: random.Random,
    t_retry_last: Optional[float] = None,
    cumulative: bool = False,
    max_rounds: int = 100_000,
) -> TransferSample:
    """Simulate one D-packet blast transfer under loss probability ``p_n``.

    Parameters
    ----------
    strategy:
        One of :data:`STRATEGIES`.
    t_retry:
        T_r — the (long) timer fallback when no reply arrives.
    t_retry_last:
        Retransmission period of the reliably-sent last packet in the
        gobackn/selective scheme; defaults to the single-exchange time.
    cumulative:
        For the full-retransmission strategies: when True the receiver
        keeps packets across rounds (what a real implementation does);
        when False each round stands alone (the paper's analytical
        approximation).  gobackn/selective are inherently cumulative.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if d_packets < 1:
        raise ValueError(f"d_packets must be >= 1, got {d_packets}")
    if not 0.0 <= p_n < 1.0:
        raise ValueError(f"p_n must be in [0, 1), got {p_n}")

    def survives() -> bool:
        return rng.random() >= p_n

    if strategy in ("full_no_nak", "full_nak"):
        return _simulate_full(
            strategy, d_packets, t_retry, cost, survives, cumulative, max_rounds
        )
    return _simulate_last_packet_reliable(
        strategy,
        d_packets,
        t_retry_last if t_retry_last is not None else cost.t0_single(),
        cost,
        survives,
        max_rounds,
    )


def _simulate_full(
    strategy: str,
    d: int,
    t_retry: float,
    cost: RoundCostModel,
    survives: Callable[[], bool],
    cumulative: bool,
    max_rounds: int,
) -> TransferSample:
    elapsed = 0.0
    rounds = 0
    data_sent = 0
    replies = 0
    received: set = set()
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"{strategy}: no success within {max_rounds} rounds")
        if not cumulative:
            received = set()
        arrived = [survives() for _ in range(d)]
        data_sent += d
        received.update(i for i, ok in enumerate(arrived) if ok)
        complete = len(received) == d
        last_arrived = arrived[d - 1]

        if strategy == "full_no_nak":
            # The receiver only ever sends a positive ack, and only when
            # it holds the complete sequence and sees the final packet.
            if complete and last_arrived:
                replies += 1
                if survives():
                    return TransferSample(
                        elapsed + cost.t0(d), rounds, data_sent, replies
                    )
            elapsed += cost.t0(d) + t_retry
        else:  # full_nak
            if last_arrived:
                replies += 1
                if survives():  # reply (ACK or NAK) delivered
                    if complete:
                        return TransferSample(
                            elapsed + cost.t0(d), rounds, data_sent, replies
                        )
                    # NAK arrived where the ack would have: no timer wait.
                    elapsed += cost.t0(d)
                    continue
            elapsed += cost.t0(d) + t_retry


def _simulate_last_packet_reliable(
    strategy: str,
    d: int,
    t_retry_last: float,
    cost: RoundCostModel,
    survives: Callable[[], bool],
    max_rounds: int,
) -> TransferSample:
    """The paper's §3.2.3 scheme for partial and selective retransmission.

    Each round sends its working set with the final packet "reliable"
    (retransmitted every ``t_retry_last`` until a reply gets through);
    the reply names the first missing packet (gobackn) or the missing
    set (selective), which becomes the next working set.
    """
    elapsed = 0.0
    rounds = 0
    data_sent = 0
    replies = 0
    received: set = set()
    working: List[int] = list(range(d))
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"{strategy}: no success within {max_rounds} rounds")
        # D'-1 packets unreliably...
        for seq in working[:-1]:
            data_sent += 1
            if survives():
                received.add(seq)
        # ...and the last packet reliably.
        last = working[-1]
        while True:
            data_sent += 1
            last_ok = survives()
            if last_ok:
                received.add(last)
                replies += 1
                if survives():  # the reply to the reliable packet
                    break
            elapsed += t_retry_last
        elapsed += cost.t0(len(working))
        missing = sorted(set(range(d)) - received)
        if not missing:
            return TransferSample(elapsed, rounds, data_sent, replies)
        if strategy == "gobackn":
            working = list(range(missing[0], d))
        else:  # selective
            working = missing


def simulate_saw_transfer(
    d_packets: int,
    p_n: float,
    t_retry: float,
    cost: RoundCostModel,
    rng: random.Random,
    max_attempts: int = 100_000,
) -> TransferSample:
    """Stop-and-wait: D independent single-packet exchanges (paper §3.1.1)."""
    if d_packets < 1:
        raise ValueError(f"d_packets must be >= 1, got {d_packets}")
    if not 0.0 <= p_n < 1.0:
        raise ValueError(f"p_n must be in [0, 1), got {p_n}")
    elapsed = 0.0
    data_sent = 0
    replies = 0
    t0 = cost.t0_single()
    for _ in range(d_packets):
        attempts = 0
        while True:
            attempts += 1
            if attempts > max_attempts:
                raise RuntimeError("stop-and-wait: no success within bound")
            data_sent += 1
            if rng.random() >= p_n:  # data frame delivered
                replies += 1
                if rng.random() >= p_n:  # ack delivered
                    elapsed += t0
                    break
            elapsed += t0 + t_retry
    return TransferSample(elapsed, d_packets, data_sent, replies)


def run_trials(
    strategy: str,
    d_packets: int,
    p_n: float,
    n_trials: int,
    t_retry: float,
    params: Optional[NetworkParams] = None,
    seed: int = 0,
    t_retry_last: Optional[float] = None,
    cumulative: bool = False,
    n_jobs: int = 1,
    shard_size: Optional[int] = None,
) -> TrialSummary:
    """Run ``n_trials`` independent transfers and summarise.

    ``strategy`` may also be ``"saw"`` for the stop-and-wait baseline.

    The run is cut into fixed-size shards, shard *k* drawing from the
    stream ``random.Random(mix_seed(seed, k))`` — so the result is
    byte-identical for every ``n_jobs`` (``1`` executes the shards
    sequentially in-process; ``N`` fans them over a process pool;
    ``-1`` uses every CPU).
    """
    if shard_size is None:
        shard_size = DEFAULT_TRIAL_SHARD_SIZE
    worker = partial(_trials_shard, strategy, d_packets, p_n, t_retry,
                     RoundCostModel(params), t_retry_last, cumulative)
    specs = [(mix_seed(seed, k), count)
             for k, count in enumerate(shard_counts(n_trials, shard_size))]
    shards = ExperimentPool(n_jobs).map_shards(worker, specs)
    return TrialSummary.from_samples(
        [sample for shard in shards for sample in shard])


def _trials_shard(strategy, d_packets, p_n, t_retry, cost, t_retry_last,
                  cumulative, shard) -> List[TransferSample]:
    """Pool worker: one shard's trials, drawn in order from its own
    stream ``random.Random(shard_seed)``."""
    shard_seed, count = shard
    rng = random.Random(shard_seed)
    if strategy == "saw":
        return [simulate_saw_transfer(d_packets, p_n, t_retry, cost, rng)
                for _ in range(count)]
    return [simulate_blast_transfer(strategy, d_packets, p_n, t_retry, cost,
                                    rng, t_retry_last=t_retry_last,
                                    cumulative=cumulative)
            for _ in range(count)]

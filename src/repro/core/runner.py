"""One-call experiment runner: build a LAN, run a transfer, return results.

This is the library's front door for single measurements::

    from repro import run_transfer
    result = run_transfer("blast", data=bytes(64 * 1024))
    print(result.elapsed_s, result.data_intact)

and for repeated stochastic experiments::

    summary = run_many("blast", data, error_p=1e-4, n_runs=200, seed=7)
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Type

from ..parallel.pool import ExperimentPool, mix_seed
from ..sim import Environment
from ..simnet import (
    BernoulliErrors,
    ErrorModel,
    NetworkParams,
    TraceRecorder,
    make_lan,
)
from .base import (
    BlastTransfer,
    MultiBlastTransfer,
    SlidingWindowTransfer,
    StopAndWaitTransfer,
    Transfer,
    TransferResult,
)

__all__ = ["PROTOCOLS", "run_transfer", "run_many", "RunSummary"]

PROTOCOLS: Dict[str, Type[Transfer]] = {
    StopAndWaitTransfer.name: StopAndWaitTransfer,
    SlidingWindowTransfer.name: SlidingWindowTransfer,
    BlastTransfer.name: BlastTransfer,
    MultiBlastTransfer.name: MultiBlastTransfer,
}


def run_transfer(
    protocol: str,
    data: bytes,
    params: Optional[NetworkParams] = None,
    error_model: Optional[ErrorModel] = None,
    trace: Optional[TraceRecorder] = None,
    **transfer_kwargs,
) -> TransferResult:
    """Run one transfer of ``data`` on a fresh two-host LAN.

    Parameters
    ----------
    protocol:
        One of :data:`PROTOCOLS` (``stop_and_wait``, ``sliding_window``,
        ``blast``, ``multiblast``).
    params:
        Network constants; defaults to the paper's standalone
        calibration.
    error_model:
        Frame-loss model; default lossless.
    trace:
        Optional recorder for timeline analysis.
    transfer_kwargs:
        Extra arguments for the engine (``strategy=``, ``timeout_s=``,
        ``blast_packets=`` ...).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}")
    env = Environment()
    sender, receiver, _ = make_lan(env, params, error_model=error_model, trace=trace)
    transfer = PROTOCOLS[protocol](env, sender, receiver, data, **transfer_kwargs)
    return transfer.run()


@dataclass(frozen=True)
class RunSummary:
    """Statistics over repeated stochastic runs of one configuration."""

    protocol: str
    strategy: Optional[str]
    n_runs: int
    mean_s: float
    std_s: float
    min_s: float
    max_s: float
    mean_rounds: float
    mean_data_frames: float
    all_intact: bool

    @classmethod
    def from_results(cls, results: Sequence[TransferResult]) -> "RunSummary":
        if not results:
            raise ValueError("no results to summarise")
        elapsed = [r.elapsed_s for r in results]
        return cls(
            protocol=results[0].protocol,
            strategy=results[0].strategy,
            n_runs=len(results),
            mean_s=statistics.fmean(elapsed),
            std_s=statistics.stdev(elapsed) if len(elapsed) > 1 else 0.0,
            min_s=min(elapsed),
            max_s=max(elapsed),
            mean_rounds=statistics.fmean(r.stats.rounds for r in results),
            mean_data_frames=statistics.fmean(
                r.stats.data_frames_sent for r in results
            ),
            all_intact=all(r.data_intact for r in results),
        )


def run_many(
    protocol: str,
    data: bytes,
    error_p: float,
    n_runs: int,
    params: Optional[NetworkParams] = None,
    seed: int = 0,
    n_jobs: int = 1,
    **transfer_kwargs,
) -> RunSummary:
    """Repeat a transfer ``n_runs`` times under Bernoulli loss ``error_p``.

    Each run gets a fresh LAN and a derived seed, so runs are independent
    but the whole experiment is reproducible.  Run *i*'s loss-model seed
    is ``mix_seed(seed, i)`` — keyed by the global run index, never by
    worker layout, so ``n_jobs=1`` and ``n_jobs=8`` summarise identical
    result sequences.  (The old ``seed * 1_000_003 + i`` derivation
    collided across nearby root seeds, e.g. ``(0, 1_000_003)`` and
    ``(1, 0)``.)
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    pool = ExperimentPool(n_jobs)
    # Shard size may follow the worker count: runs are seeded by their
    # global index, so the grouping cannot change any result.
    shard_size = max(1, min(32, math.ceil(n_runs / (4 * pool.n_jobs))))
    specs = [range(start, min(start + shard_size, n_runs))
             for start in range(0, n_runs, shard_size)]
    worker = partial(_transfers_shard, protocol, data, error_p, params, seed,
                     transfer_kwargs)
    shards = pool.map_shards(worker, specs)
    return RunSummary.from_results(
        [result for shard in shards for result in shard])


def _transfers_shard(protocol, data, error_p, params, seed, transfer_kwargs,
                     runs: range) -> List[TransferResult]:
    """Pool worker: the runs of one ``run_many`` shard, by global index."""
    return [
        run_transfer(protocol, data, params=params,
                     error_model=BernoulliErrors(error_p,
                                                 seed=mix_seed(seed, index)),
                     **transfer_kwargs)
        for index in runs
    ]

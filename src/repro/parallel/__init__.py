"""Parallel experiment engine: deterministic sharding of repeated
stochastic experiments over a process pool.

:class:`ExperimentPool` fans experiment *shards* across worker
processes with deterministic seed sharding — the same root seed
produces byte-identical statistics whether the work runs on 1 worker
or 8.  The integration points are ``repro.analysis.run_trials(...)`` and
``repro.core.run_many(...)`` (their ``n_jobs=`` parameter) and the
CLI's global ``--jobs`` flag.
"""

from .pool import (
    DEFAULT_TRIAL_SHARD_SIZE,
    ExperimentPool,
    mix_seed,
    resolve_jobs,
    shard_counts,
)

__all__ = [
    "ExperimentPool",
    "mix_seed",
    "resolve_jobs",
    "shard_counts",
    "DEFAULT_TRIAL_SHARD_SIZE",
]

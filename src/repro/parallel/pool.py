"""Deterministic process-pool fan-out for repeated stochastic experiments.

The core contract is *worker-count independence*: an experiment run is
cut into shards, and shard *k* of a run with root seed *s* derives its
RNG stream from the stable mixing function :func:`mix_seed` — keyed by
something the worker count cannot change (a fixed-size shard's index, or
a run's global index).  Results are merged back in shard order, so
``n_jobs=1`` and ``n_jobs=8`` produce byte-identical sample sequences.
The pool knows none of its callers: each one builds its own shard specs
and hands :meth:`ExperimentPool.map_shards` a module-level worker
(``analysis.montecarlo.run_trials``, ``core.runner.run_many``, the
conformance, congestion and cluster sweeps).

Failure policy: a shard whose worker dies (or whose pool breaks) is
retried once *in the parent process* — a shard's result depends only on
its spec, so where it runs cannot change the answer — and the second
failure propagates.  When ``n_jobs <= 1``, the platform has no usable
process support, or there is only one shard, everything runs inline
with zero pool overhead.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, List, Optional, Sequence

__all__ = [
    "DEFAULT_TRIAL_SHARD_SIZE",
    "ExperimentPool",
    "mix_seed",
    "resolve_jobs",
    "shard_counts",
]

#: Trials per Monte Carlo shard.  Fixed (independent of ``n_jobs``) so
#: the per-shard RNG streams — and hence the merged sample sequence —
#: never depend on how many workers happened to be available.
DEFAULT_TRIAL_SHARD_SIZE = 128


def mix_seed(root_seed: int, index: int) -> int:
    """Derive a child seed from ``(root_seed, index)``.

    SHA-256 based: stable across platforms and Python versions, and free
    of the arithmetic collisions of the old ``seed * 1_000_003 + index``
    scheme (where e.g. ``(0, 1_000_003)`` and ``(1, 0)`` coincided).
    Returns a 64-bit integer.
    """
    digest = hashlib.sha256(
        f"repro.parallel:{root_seed}:{index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request: ``None``/``0`` -> 1, ``-1`` -> CPUs."""
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        import os

        return os.cpu_count() or 1
    return n_jobs


def shard_counts(n_items: int, shard_size: int) -> List[int]:
    """Split ``n_items`` into shard sizes (all ``shard_size`` but the last)."""
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    full, rest = divmod(n_items, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def _processes_available() -> bool:
    try:
        import multiprocessing

        return bool(multiprocessing.get_all_start_methods())
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


class ExperimentPool:
    """Fan experiment shards across processes, deterministically.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (default) runs everything inline;
        ``-1`` means one per CPU.  The *results* are identical for every
        value — only wall time changes.
    """

    def __init__(self, n_jobs: Optional[int] = 1):
        self.n_jobs = resolve_jobs(n_jobs)

    def map_shards(
        self, worker: Callable[[Any], Any], specs: Sequence[Any]
    ) -> List[Any]:
        """Apply ``worker`` to every spec, preserving spec order.

        Runs inline unless parallelism is both requested and available.
        A shard that fails in a worker process is retried once in the
        parent; a second failure raises.
        """
        specs = list(specs)
        if self.n_jobs <= 1 or len(specs) <= 1 or not _processes_available():
            return [worker(spec) for spec in specs]

        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        results: List[Any] = [None] * len(specs)
        failed: List[int] = []
        done: set = set()
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(specs))
            ) as executor:
                futures = {
                    executor.submit(worker, spec): i for i, spec in enumerate(specs)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    done.add(index)
                    try:
                        results[index] = future.result()
                    except Exception:
                        failed.append(index)
        except (BrokenProcessPool, OSError):  # pragma: no cover - env dependent
            failed = [i for i in range(len(specs)) if i not in done]
        for index in failed:
            # Retry once, inline: shard results depend only on the spec,
            # so rerunning in the parent cannot change the answer.  A
            # genuine (deterministic) error reproduces here and raises.
            results[index] = worker(specs[index])
        return results

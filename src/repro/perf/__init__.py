"""Determinism proofs of the hot paths (speed is ``layerbench``'s job).

:mod:`repro.perf.workloads` holds the canonical workloads — kernel event
order, wire bytes, traces, ``run_many`` digests, contention scenarios —
whose recordings from earlier kernels live under ``tests/perf/fixtures/``
and are asserted by tier-1 (``tests/perf``).  Timings are taken by
``layerbench`` and recorded by ``benchmarks/bench_history.py``
(``docs/performance.md``).
"""

from .workloads import (
    CANONICAL_EVENTS,
    canonical_datagrams,
    canonical_frames,
    canonical_payload,
    canonical_trace,
    kernel_digest,
    run_digest,
    trace_digest,
    wire_digest,
)

__all__ = [
    "CANONICAL_EVENTS",
    "canonical_datagrams",
    "canonical_frames",
    "canonical_payload",
    "canonical_trace",
    "kernel_digest",
    "run_digest",
    "trace_digest",
    "wire_digest",
]

"""Microbenchmark and perf-regression subsystem (``repro perf``).

The perf subsystem has three jobs:

1. **Measure** the hot paths — DES kernel events/sec, wire-codec
   encode/decode ops/sec, and end-to-end conformance-cell and service
   wall clocks — with a repeatable best-of-N harness
   (:mod:`repro.perf.suites`).
2. **Prove** that speed never bought nondeterminism: every suite
   computes a canonical digest (:mod:`repro.perf.workloads`,
   :mod:`repro.perf.sweeps`) that must match the goldened structure
   ledger, and the kernel and codec digests must match the fixtures
   recorded from the seed under ``tests/perf/fixtures/``.
3. **Record** the trajectory: timings go to ``BENCH_fastpath.json``
   (machine-readable, machine-dependent) while the byte-stable
   *structure* ledger — suite names, canonical workload sizes,
   determinism digests — is goldened in
   ``benchmarks/results/perf_structure.txt`` and diffed in CI.
"""

from .report import render_ledger, write_bench
from .suites import SUITES, run_suites
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
    "SUITES",
    "run_suites",
    "render_ledger",
    "write_bench",
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

"""The ``repro perf`` suites: what is timed, and what must never change.

Each :class:`Suite` couples a *timing recipe* (how many operations, how
the hot path is driven) with a *canonical digest* (a byte-stable proof
that the path under test still produces the output goldened in
``benchmarks/results/perf_structure.txt``).  Only the code in this
checkout is timed; comparing two commits means running the suites on
each (``docs/performance.md``).

``des_events``
    Pure kernel churn: batches of timeouts scheduled and drained
    through ``Environment.run`` — the cost of one simulated packet's
    bookkeeping, with no protocol logic on top.
``des_process``
    A generator process yielding timeouts: adds the resume path
    (``Process._resume``) that every protocol engine exercises.
``codec_encode`` / ``codec_decode``
    The canonical frame mix through ``wire.encode`` / ``wire.decode``.
``conformance_cell``
    One end-to-end DES conformance cell (blast × selective ×
    ``dup+reorder``) — wall clock of real protocol work.
``service_run``
    A 8-stream DES service run through the scheduler/engine stack.
``service_udp_throughput``, ``service_udp_clients``, ``cluster_udp_goodput``, ``service_sched_scale``
    The real-socket, cluster and scheduling-scale cells of
    :mod:`.sweeps`; the last three sweep a grid of scales and export
    per-scale facts through ``extras`` into ``BENCH_fastpath.json``.

Iteration counts scale with the mode (``smoke`` for CI, ``full`` for
the recorded trajectory) but canonical digests never do — the structure
ledger is byte-identical for both modes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import sweeps, workloads

__all__ = ["Suite", "SuiteResult", "SUITES", "run_suites", "suite_names"]

#: Timeouts scheduled per drain in the DES suites.  Matched to the heap
#: depths real runs produce (a transfer in flight holds tens of pending
#: timeouts and frame events, not thousands) so the measured mix of
#: C-level heap work and Python-level dispatch reflects actual runs.
DES_BATCH = 64


Workload = Union[int, Tuple[int, ...]]


@dataclass(frozen=True)
class Suite:
    """One named benchmark: a timing recipe plus its determinism proof."""

    name: str
    #: The workload handed to ``timed``, per mode: an operation count,
    #: or for a sweep suite its grid of scales (the ops are their sum).
    ops_full: Workload
    ops_smoke: Workload
    timed: Callable[[Workload], float]
    digest: Callable[[], str]
    canonical_ops: int
    #: Optional gate run before timing; raises instead of letting a
    #: number be reported for a run that is not deterministic.
    check: Optional[Callable[[], None]] = None
    #: Optional machine-dependent side facts of the last timed run
    #: (e.g. per-client goodput cells) — included in the bench JSON,
    #: never in the structure ledger.
    extras: Optional[Callable[[], dict]] = None


@dataclass(frozen=True)
class SuiteResult:
    """Measured outcome of one suite (timings are machine-dependent)."""

    name: str
    iterations: int
    repeats: int
    best_s: float
    ops_per_s: float
    digest: str
    canonical_ops: int
    extras: Optional[dict] = None

    def ledger_line(self) -> str:
        """The byte-stable structure row (no timings, no machine facts)."""
        return (
            f"{self.name} canonical_ops={self.canonical_ops} "
            f"digest={self.digest}"
        )


# ---------------------------------------------------------------------------
# DES kernel suites
# ---------------------------------------------------------------------------

def _des_events(n: int) -> float:
    from ..sim import Environment

    env = Environment()
    timeout = env.timeout
    run = env.run
    start = perf_counter()
    done = 0
    while done < n:
        m = DES_BATCH if n - done > DES_BATCH else n - done
        for _ in range(m):
            timeout(0.001)
        run()
        done += m
    return perf_counter() - start


def _des_process(n: int) -> float:
    from ..sim import Environment

    env = Environment()

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(0.001)

    proc = env.process(ticker(env, n))
    start = perf_counter()
    env.run(proc)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# Wire codec suites
# ---------------------------------------------------------------------------

def _codec_encode(n: int) -> float:
    from ..core.wire import encode

    frames = workloads.canonical_frames()
    rounds = max(1, n // len(frames))
    start = perf_counter()
    for _ in range(rounds):
        for frame in frames:
            encode(frame)
    return perf_counter() - start


def _codec_decode(n: int) -> float:
    from ..core.wire import decode

    datagrams = workloads.canonical_datagrams()
    rounds = max(1, n // len(datagrams))
    start = perf_counter()
    for _ in range(rounds):
        for datagram in datagrams:
            decode(datagram)
    return perf_counter() - start


def _wire_digest() -> str:
    return workloads.wire_digest(workloads.canonical_datagrams())


# ---------------------------------------------------------------------------
# End-to-end suites
# ---------------------------------------------------------------------------

_CELL_PROTOCOL = "blast"
_CELL_STRATEGY = "selective"
_CELL_PLAN = "dup+reorder"
_CELL_SEED = 7
_CELL_SIZE = 8 * 1024 + 137


def _conformance_cell_result() -> dict:
    from ..faults.conformance import _run_cell_spec
    from ..faults.plans import builtin_plan

    plan = builtin_plan(_CELL_PLAN)
    return _run_cell_spec(
        ("des", _CELL_PROTOCOL, _CELL_STRATEGY, plan.to_json(), _CELL_SEED,
         _CELL_SIZE)
    )


def _conformance_cell(n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        _conformance_cell_result()
    return perf_counter() - start


def _conformance_digest() -> str:
    payload = json.dumps(_conformance_cell_result(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


_SERVICE_STREAMS = 8


def _service_result_json() -> str:
    from ..service import ServiceConfig
    from ..service.loadgen import run_des_loadgen

    result = run_des_loadgen(
        _SERVICE_STREAMS,
        config=ServiceConfig(protocol="blast", policy="rr"),
        sizes="fixed",
        size_bytes=4096,
        arrivals="uniform",
        span_s=0.25,
        workload_seed=3,
    )
    return result.report_json


def _service_run(n: int) -> float:
    start = perf_counter()
    for _ in range(n):
        _service_result_json()
    return perf_counter() - start


def _service_digest() -> str:
    return hashlib.sha256(_service_result_json().encode()).hexdigest()


def _sweep_suite(name: str, sweep: sweeps.Sweep,
                 check: Optional[Callable[[], None]] = None) -> Suite:
    return Suite(
        name=name,
        ops_full=sweep.full,
        ops_smoke=sweep.smoke,
        timed=sweep.timed,
        digest=sweep.digest,
        canonical_ops=sweep.canonical,
        check=check,
        extras=sweep.extras,
    )


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="des_events",
            ops_full=400_000,
            ops_smoke=40_000,
            timed=_des_events,
            digest=workloads.kernel_digest,
            canonical_ops=workloads.CANONICAL_EVENTS,
        ),
        Suite(
            name="des_process",
            ops_full=400_000,
            ops_smoke=40_000,
            timed=_des_process,
            digest=workloads.kernel_digest,
            canonical_ops=workloads.CANONICAL_EVENTS,
        ),
        Suite(
            name="codec_encode",
            ops_full=200_000,
            ops_smoke=20_000,
            timed=_codec_encode,
            digest=_wire_digest,
            canonical_ops=len(workloads.canonical_frames()),
        ),
        Suite(
            name="codec_decode",
            ops_full=200_000,
            ops_smoke=20_000,
            timed=_codec_decode,
            digest=_wire_digest,
            canonical_ops=len(workloads.canonical_frames()),
        ),
        Suite(
            name="conformance_cell",
            ops_full=10,
            ops_smoke=2,
            timed=_conformance_cell,
            digest=_conformance_digest,
            canonical_ops=1,
        ),
        Suite(
            name="service_run",
            ops_full=10,
            ops_smoke=2,
            timed=_service_run,
            digest=_service_digest,
            canonical_ops=_SERVICE_STREAMS,
        ),
        Suite(
            name="service_udp_throughput",
            ops_full=10 * sweeps.THROUGHPUT_STREAMS,
            ops_smoke=sweeps.THROUGHPUT_STREAMS,
            timed=sweeps.time_throughput,
            digest=sweeps.throughput_digest,
            canonical_ops=sweeps.THROUGHPUT_STREAMS,
        ),
        _sweep_suite("service_udp_clients", sweeps.UDP_CLIENTS),
        _sweep_suite("cluster_udp_goodput", sweeps.CLUSTER_WORKERS,
                     check=sweeps.cluster_check),
        _sweep_suite("service_sched_scale", sweeps.SCHED_STREAMS),
    )
}


def suite_names() -> List[str]:
    """Suite names in canonical (registration) order."""
    return list(SUITES)


def run_suites(
    names: Optional[Sequence[str]] = None,
    smoke: bool = False,
    repeats: int = 3,
) -> List[SuiteResult]:
    """Run suites by name (default: all) and return measured results.

    A suite's ``check`` runs before its timing loop — a perf number for
    a run that is not deterministic is worthless, so divergence raises
    instead of reporting.
    """
    if names is None:
        names = suite_names()
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"choose from {', '.join(suite_names())}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    results: List[SuiteResult] = []
    for name in names:
        suite = SUITES[name]
        if suite.check is not None:
            suite.check()
        workload = suite.ops_smoke if smoke else suite.ops_full
        ops = sum(workload) if isinstance(workload, tuple) else workload
        best = max(min(suite.timed(workload) for _ in range(repeats)), 1e-12)
        results.append(
            SuiteResult(
                name=name,
                iterations=ops,
                repeats=repeats,
                best_s=best,
                ops_per_s=ops / best,
                digest=suite.digest(),
                canonical_ops=suite.canonical_ops,
                extras=(
                    suite.extras() if suite.extras is not None else None
                ),
            )
        )
    return results

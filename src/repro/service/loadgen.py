"""Deterministic load generation for the transfer service.

Two drivers share one vocabulary of workloads (sizes from
:mod:`repro.workloads`, arrivals from
:mod:`repro.workloads.arrivals`):

- :func:`run_des_loadgen` — N simulated clients against the DES
  service; fully deterministic, so its reports are byte-comparable.
- :func:`run_udp_loadgen` — one
  :class:`~repro.service.clientpump.UdpClientPump` of N clients against
  a real loopback :class:`~repro.service.udpservice.UdpTransferService`
  served in a thread; verdicts (not timings) are the stable part.

:func:`run_scaling_sweep` is the benchmark entry point: a concurrency ×
protocol × policy grid of DES cells fanned across an
:class:`~repro.parallel.pool.ExperimentPool`, rendered as the
fixed-format ledger committed at ``benchmarks/results/service_scaling.txt``.
Cells are sharded with the same discipline as the conformance matrix —
each cell depends only on its spec, so ``--jobs`` never changes a byte.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel.pool import ExperimentPool
from ..workloads import (
    file_size_mix,
    make_arrivals,
    page_cluster_sizes,
    paper_table_sizes,
)
from .clientpump import PumpRunStats, UdpClientPump
from .engine import ServiceConfig
from .pullclient import UdpPullResult
from .simservice import DesServiceResult, run_des_service
from .udpservice import UdpTransferService

__all__ = [
    "SIZE_WORKLOADS",
    "ScalingCell",
    "ScalingSweepResult",
    "UdpLoadgenResult",
    "make_sizes",
    "run_des_loadgen",
    "run_scaling_sweep",
    "run_udp_loadgen",
]

#: Grid of the committed scaling ledger.
SWEEP_CONCURRENCIES = (1, 4, 16, 64)
SWEEP_PROTOCOLS = ("blast", "sliding")
SWEEP_POLICIES = ("fifo", "rr", "copy-budget")
#: Per-transfer body in sweep cells (small, so 64-way contention is
#: scheduling-bound rather than wire-bound).
SWEEP_SIZE_BYTES = 4096


def _fixed_sizes(count: int, size_bytes: int = SWEEP_SIZE_BYTES,
                 seed: int = 0) -> List[int]:
    return [size_bytes] * count


def _paper_cycle_sizes(count: int, size_bytes: int = 0,
                       seed: int = 0) -> List[int]:
    table = paper_table_sizes()
    return [table[i % len(table)] for i in range(count)]


def _page_cluster(count: int, size_bytes: int = 0, seed: int = 0) -> List[int]:
    return page_cluster_sizes(count=count, seed=seed)


def _file_mix(count: int, size_bytes: int = 0, seed: int = 0) -> List[int]:
    return file_size_mix(count=count, seed=seed)


SIZE_WORKLOADS = {
    "fixed": _fixed_sizes,
    "paper-table": _paper_cycle_sizes,
    "page-cluster": _page_cluster,
    "file-mix": _file_mix,
}


def make_sizes(name: str, count: int, size_bytes: int = SWEEP_SIZE_BYTES,
               seed: int = 0) -> List[int]:
    """Generate ``count`` transfer sizes with the named workload."""
    try:
        generator = SIZE_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown size workload {name!r}; "
            f"choose from {', '.join(SIZE_WORKLOADS)}"
        ) from None
    return generator(count, size_bytes=size_bytes, seed=seed)


def run_des_loadgen(
    clients: int,
    config: Optional[ServiceConfig] = None,
    sizes: str = "fixed",
    size_bytes: int = SWEEP_SIZE_BYTES,
    arrivals: str = "simultaneous",
    span_s: float = 1.0,
    workload_seed: int = 0,
    error_model=None,
) -> DesServiceResult:
    """Drive ``clients`` concurrent DES pulls with a named workload."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    size_list = make_sizes(sizes, clients, size_bytes=size_bytes,
                           seed=workload_seed)
    arrival_list = make_arrivals(arrivals, clients, span_s=span_s,
                                 seed=workload_seed)
    return run_des_service(size_list, arrivals=arrival_list, config=config,
                           error_model=error_model)


# -- scaling sweep ----------------------------------------------------------

@dataclass(frozen=True)
class ScalingCell:
    """One cell of the concurrency-scaling grid (a picklable spec)."""

    concurrency: int
    protocol: str
    policy: str


def _run_scaling_cell(cell: ScalingCell) -> dict:
    """Worker for one sweep cell; module-level so it pickles to shards."""
    config = ServiceConfig(protocol=cell.protocol, policy=cell.policy,
                           max_active=8, max_queue=256)
    result = run_des_loadgen(cell.concurrency, config=config)
    summary = result.report["summary"]
    return {
        "concurrency": cell.concurrency,
        "protocol": cell.protocol,
        "policy": cell.policy,
        "ok": summary["ok"],
        "failed": summary["failed"],
        "rejected": summary["rejected"],
        "p50_s": summary["p50_completion_s"],
        "p99_s": summary["p99_completion_s"],
        "makespan_s": summary["makespan_s"],
        "retransmits": summary["retransmits"],
        "payloads_ok": result.payloads_ok,
    }


@dataclass
class ScalingSweepResult:
    """The full grid plus its rendered ledger."""

    cells: List[dict]
    report: str

    @property
    def all_ok(self) -> bool:
        return all(
            cell["failed"] == 0 and cell["rejected"] == 0
            and cell["payloads_ok"] for cell in self.cells
        )


def _render_scaling_report(cells: Sequence[dict]) -> str:
    lines = [
        "# service scaling: completion-time percentiles vs concurrency",
        "# DES substrate, 4096-byte transfers, simultaneous arrivals,"
        " max_active=8",
        "# columns: concurrency protocol policy ok failed rejected"
        " p50_s p99_s makespan_s retx",
    ]
    for cell in cells:
        lines.append(
            f"{cell['concurrency']:>4d} {cell['protocol']:<8s}"
            f" {cell['policy']:<12s} {cell['ok']:>4d} {cell['failed']:>3d}"
            f" {cell['rejected']:>3d} {cell['p50_s']:.9f}"
            f" {cell['p99_s']:.9f} {cell['makespan_s']:.9f}"
            f" {cell['retransmits']:>4d}"
        )
    lines.append(f"# cells={len(cells)}")
    return "\n".join(lines) + "\n"


def run_scaling_sweep(
    concurrencies: Sequence[int] = SWEEP_CONCURRENCIES,
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    policies: Sequence[str] = SWEEP_POLICIES,
    n_jobs: Optional[int] = 1,
) -> ScalingSweepResult:
    """Run the concurrency-scaling grid; byte-stable across ``n_jobs``."""
    specs = [
        ScalingCell(concurrency=c, protocol=proto, policy=policy)
        for c in concurrencies
        for proto in protocols
        for policy in policies
    ]
    cells = ExperimentPool(n_jobs).map_shards(_run_scaling_cell, specs)
    return ScalingSweepResult(cells=cells,
                              report=_render_scaling_report(cells))


# -- UDP loadgen ------------------------------------------------------------

@dataclass
class UdpLoadgenResult:
    """One loopback run: per-client verdicts, pump stats, server reports."""

    pulls: Dict[int, UdpPullResult]
    report_json: str
    served: bool
    #: Wall-clock facts of the pump run (machine-dependent).
    stats: PumpRunStats
    #: The server's deterministic outcome projection.
    canonical_json: str

    @property
    def all_ok(self) -> bool:
        return bool(self.pulls) and all(p.ok for p in self.pulls.values())


def run_udp_loadgen(
    clients: int,
    config: Optional[ServiceConfig] = None,
    sizes: str = "fixed",
    size_bytes: int = SWEEP_SIZE_BYTES,
    workload_seed: int = 0,
    fault_plan=None,
    fault_seed: Optional[int] = None,
    duration_s: float = 30.0,
    recv_timeout_s: float = 5.0,
    bind: Tuple[str, int] = ("127.0.0.1", 0),
) -> UdpLoadgenResult:
    """Serve on loopback in a thread and pump ``clients`` pulls at it."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    config = config or ServiceConfig()
    size_list = make_sizes(sizes, clients, size_bytes=size_bytes,
                           seed=workload_seed)
    service = UdpTransferService(config, bind=bind, fault_plan=fault_plan,
                                 fault_seed=fault_seed)
    served: List[bool] = [False]

    def serve() -> None:
        served[0] = service.serve(expected_streams=clients,
                                  duration_s=duration_s)

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    pump = UdpClientPump(service.address, size_list,
                         protocol=config.protocol, strategy=config.strategy,
                         recv_timeout_s=recv_timeout_s)
    try:
        pulls = pump.run(overall_timeout_s=duration_s + 10.0)
    finally:
        service.stop()
        server_thread.join(timeout=10.0)
        service.close()
    return UdpLoadgenResult(pulls=pulls, report_json=service.report_json(),
                            served=served[0], stats=pump.stats,
                            canonical_json=service.canonical_report_json())

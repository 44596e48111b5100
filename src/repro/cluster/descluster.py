"""The DES cluster: 10k+ concurrent streams, sharded and byte-stable.

One monolithic DES run with 10k client hosts would thrash the event
heap; the cluster observation is that streams placed on different
shards never share a wire or a scheduler, so shard runs are
*independent* simulations.  Each shard is one
:func:`~repro.service.simservice.run_des_service` group (its own
``ServiceCore``, its own medium) executed via
:class:`~repro.parallel.pool.ExperimentPool` — the same deterministic
seed-sharding discipline as PR 1, so the merged ledger is byte-identical
for any ``--jobs`` value.

Stream ids are global: shard membership comes from the same rendezvous
hash the UDP client uses (:func:`~repro.cluster.placement
.shard_for_stream`), and each shard's local stream ids are relabelled
back to their global ids before merging.  The merged report is then a
pure function of ``(flows, shard_streams, seed)`` — which is exactly
what the committed ``benchmarks/results/cluster_scaling.txt`` golden
pins.

Within each shard, the engine's per-wakeup cost is proportional to due
work, not to the shard's active-stream count (the deadline-heap /
ready-set indexes of :mod:`repro.service.engine`; equivalence-gated in
the ``service_sched_scale`` suite) — the property that keeps the
10,240-stream sweep, and the next order of magnitude, affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..parallel.pool import ExperimentPool, mix_seed
from ..service.engine import ServiceConfig
from ..service.metrics import canonical_from_report
from ..service.simservice import run_des_service
from .merge import ClusterReport, ShardReport, merge_shards
from .placement import partition_streams

__all__ = [
    "CLUSTER_SWEEP_FLOWS",
    "DES_SHARD_STREAMS",
    "DesClusterResult",
    "ClusterSweepResult",
    "run_des_cluster",
    "run_cluster_sweep",
]

#: Target streams per DES shard (the per-core "worker" granularity).
DES_SHARD_STREAMS = 160
#: Flow counts of the committed scaling ledger (top row is the 10k+ item).
CLUSTER_SWEEP_FLOWS = (256, 1024, 4096, 10240)
#: Per-stream body in sweep cells (one packet: contention is
#: scheduling-bound, the regime Ghaderi & Towsley's analysis plots).
SWEEP_SIZE_BYTES = 1024


@dataclass(frozen=True)
class DesShardSpec:
    """One DES shard: its global stream ids and service config (picklable)."""

    shard: int
    streams: Tuple[int, ...]
    config: ServiceConfig
    size_bytes: int


def _relabel(report: dict, streams: Tuple[int, ...]) -> dict:
    """Rewrite the shard's local stream ids 1..K to their global ids."""
    mapping = {local + 1: global_id
               for local, global_id in enumerate(streams)}
    relabelled = dict(report)
    relabelled["transfers"] = [
        {**row, "stream": mapping[row["stream"]]}
        for row in report["transfers"]
    ]
    relabelled["rejections"] = [
        {**row, "stream": mapping[row["stream"]]}
        for row in report.get("rejections", ())
    ]
    return relabelled


def _run_des_shard(spec: DesShardSpec) -> Tuple[ShardReport, bool]:
    """Worker for one shard; module-level so it pickles to pool workers."""
    sizes = [spec.size_bytes] * len(spec.streams)
    result = run_des_service(sizes, config=spec.config)
    report = _relabel(result.report, spec.streams)
    return (
        ShardReport(shard=spec.shard, report=report,
                    canonical=canonical_from_report(report)),
        result.payloads_ok,
    )


@dataclass
class DesClusterResult:
    """One merged DES cluster run."""

    flows: int
    shards: int
    report: ClusterReport
    payloads_ok: bool

    @property
    def all_ok(self) -> bool:
        summary = self.report.summary()
        return (
            self.payloads_ok
            and summary["ok"] == self.flows
            and summary["failed"] == 0
            and summary["rejected"] == 0
        )


def run_des_cluster(
    flows: int,
    shard_streams: int = DES_SHARD_STREAMS,
    protocol: str = "blast",
    policy: str = "fifo",
    size_bytes: int = SWEEP_SIZE_BYTES,
    root_seed: int = 0,
    n_jobs: Optional[int] = 1,
) -> DesClusterResult:
    """Run ``flows`` concurrent streams across hash-placed DES shards.

    Byte-stable: shard membership is the rendezvous hash, shard ``k``'s
    config seed is ``mix_seed(root_seed, k)``, and each shard's result
    depends only on its spec — so the merged report never depends on
    ``n_jobs`` or completion order.
    """
    if flows < 1:
        raise ValueError(f"flows must be >= 1, got {flows}")
    n_shards = max(1, math.ceil(flows / shard_streams))
    groups = partition_streams(range(1, flows + 1), n_shards, seed=root_seed)
    specs = [
        DesShardSpec(
            shard=shard,
            streams=group,
            config=ServiceConfig(
                protocol=protocol, policy=policy, max_active=8,
                max_queue=max(512, len(group)),
                seed=mix_seed(root_seed, shard),
            ),
            size_bytes=size_bytes,
        )
        for shard, group in enumerate(groups)
        if group
    ]
    results = ExperimentPool(n_jobs).map_shards(_run_des_shard, specs)
    return DesClusterResult(
        flows=flows,
        shards=len(specs),
        report=merge_shards([shard_report for shard_report, _ in results]),
        payloads_ok=all(ok for _, ok in results),
    )


# -- the committed scaling ledger -------------------------------------------

@dataclass
class ClusterSweepResult:
    """The flow-count sweep plus its rendered ledger."""

    cells: List[DesClusterResult]
    report: str

    @property
    def all_ok(self) -> bool:
        return all(cell.all_ok for cell in self.cells)


def _render_cluster_ledger(cells: Sequence[DesClusterResult]) -> str:
    lines = [
        "# cluster scaling: sharded DES service, merged via ExperimentPool",
        "# one ServiceCore per shard, rendezvous-hash placement, "
        f"~{DES_SHARD_STREAMS} streams/shard, {SWEEP_SIZE_BYTES}-byte "
        "transfers, max_active=8",
        "# columns: flows shards ok failed rejected bytes makespan_s"
        " agg_goodput_Bps per_stream_Bps p50_s p99_s",
    ]
    for cell in cells:
        summary = cell.report.summary()
        lines.append(
            f"{cell.flows:>6d} {cell.shards:>3d} {summary['ok']:>6d}"
            f" {summary['failed']:>3d} {summary['rejected']:>3d}"
            f" {summary['bytes']:>9d} {summary['makespan_s']:.9f}"
            f" {summary['aggregate_goodput_bytes_per_s']:.3f}"
            f" {summary['per_stream_goodput_bytes_per_s']:.3f}"
            f" {summary['p50_completion_s']:.9f}"
            f" {summary['p99_completion_s']:.9f}"
        )
    lines.append(f"# cells={len(cells)}")
    return "\n".join(lines) + "\n"


def run_cluster_sweep(
    flows: Sequence[int] = CLUSTER_SWEEP_FLOWS,
    root_seed: int = 0,
    n_jobs: Optional[int] = 1,
) -> ClusterSweepResult:
    """Run the flow-count sweep; byte-stable across runs and ``n_jobs``."""
    cells = [
        run_des_cluster(count, root_seed=root_seed, n_jobs=n_jobs)
        for count in flows
    ]
    return ClusterSweepResult(cells=cells,
                              report=_render_cluster_ledger(cells))

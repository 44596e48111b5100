"""Sharded multi-process service cluster (see docs/cluster.md).

The scale-out layer of the reproduction: N worker processes, each
running the existing readiness-loop UDP service around its own
``ServiceCore``, behind either ``SO_REUSEPORT`` or a deterministic
rendezvous-hash stream→shard mapping; a coordinator that spawns,
watches, restarts, and gracefully stops the workers; and an
order-invariant byte-stable merge of the per-shard metrics reports.
The DES twin shards 10k+ independent stream groups across
``ExperimentPool`` workers and merges their ledgers byte-identically
for any ``--jobs`` value.
"""

from ..service.metrics import canonical_from_report
from .coordinator import (
    ClusterCoordinator,
    ClusterRunResult,
    WorkerSpec,
    cluster_worker_main,
    run_udp_cluster,
)
from .descluster import (
    CLUSTER_SWEEP_FLOWS,
    ClusterSweepResult,
    DesClusterResult,
    run_cluster_sweep,
    run_des_cluster,
)
from .merge import (
    CLUSTER_SCHEMA_VERSION,
    ClusterReport,
    ShardReport,
    merge_shards,
)
from .placement import (
    PLACEMENTS,
    partition_streams,
    reuseport_available,
    servers_for_streams,
    shard_for_stream,
)

__all__ = [
    "CLUSTER_SCHEMA_VERSION",
    "CLUSTER_SWEEP_FLOWS",
    "PLACEMENTS",
    "ClusterCoordinator",
    "ClusterReport",
    "ClusterRunResult",
    "ClusterSweepResult",
    "DesClusterResult",
    "ShardReport",
    "WorkerSpec",
    "canonical_from_report",
    "cluster_worker_main",
    "merge_shards",
    "partition_streams",
    "reuseport_available",
    "run_cluster_sweep",
    "run_des_cluster",
    "run_udp_cluster",
    "servers_for_streams",
    "shard_for_stream",
]

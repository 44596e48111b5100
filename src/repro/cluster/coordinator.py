"""The multi-process cluster coordinator and its worker entrypoint.

One :class:`ClusterCoordinator` spawns N worker processes (``spawn``
start method — the entrypoint must pickle by reference, which
``tests/lint/test_source_rules.py`` checks for every
``Process(target=...)``).  Each worker runs
the existing readiness-loop :class:`~repro.service.udpservice
.UdpTransferService` around its own ``ServiceCore`` and talks to the
coordinator over a :func:`multiprocessing.Pipe` control channel:

- ``("ready", shard, [host, port])`` once the socket is bound;
- ``("report", shard, {"report": ..., "canonical": ...})`` after the
  serve loop exits (duration expiry or graceful SIGTERM drain).

Placement is either ``hash`` (each worker on its own ephemeral port,
clients pick the shard with the deterministic rendezvous hash) or
``reuseport`` (all workers behind one ``SO_REUSEPORT`` port, the kernel
picks).  Fault plans compose per-shard: every worker replays the same
plan with a seed mixed from ``(fault_seed, shard)``.

Failure handling: a worker that dies without flushing a report is
detected by exit code (``Process.is_alive``/``exitcode``), its shard is
marked ``degraded`` in the merged report instead of hanging the
collection, and — when the restart budget allows — it is restarted
once *on the same port*, so hash-placement clients keep reaching the
shard without re-resolving addresses.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..parallel.pool import mix_seed
from ..service.clientpump import PumpRunStats, UdpClientPump
from ..service.engine import ServiceConfig
from ..service.loadgen import make_sizes
from ..service.pullclient import UdpPullResult
from ..service.udpservice import UdpTransferService
from .merge import (
    SHARD_DEGRADED,
    SHARD_OK,
    SHARD_RESTARTED,
    ClusterReport,
    ShardReport,
    merge_shards,
)
from .placement import PLACEMENTS, reuseport_available, servers_for_streams

__all__ = [
    "ClusterCoordinator",
    "ClusterRunResult",
    "WorkerSpec",
    "cluster_worker_main",
    "run_udp_cluster",
]

#: How long start() waits for every worker's ready message.
START_TIMEOUT_S = 15.0
#: How long shutdown waits for each worker's final report.
REPORT_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs to serve its shard (picklable)."""

    shard: int
    config: ServiceConfig
    host: str = "127.0.0.1"
    port: int = 0
    reuse_port: bool = False
    fault_plan: Optional[FaultPlan] = None
    fault_seed: Optional[int] = None
    duration_s: Optional[float] = None


def cluster_worker_main(spec: WorkerSpec, conn) -> None:
    """Worker process entrypoint (module-level, so spawn can pickle it).

    SIGTERM/SIGINT ask the serve loop to stop; the loop drains in-flight
    grants before returning, and the final metrics report is always
    flushed down the control pipe before exit — the graceful-shutdown
    contract the satellite tests pin.
    """
    service = UdpTransferService(
        spec.config,
        bind=(spec.host, spec.port),
        fault_plan=spec.fault_plan,
        fault_seed=spec.fault_seed,
        reuse_port=spec.reuse_port,
    )

    def _request_stop(signum, frame):
        service.stop()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        conn.send(("ready", spec.shard, list(service.address)))
        service.serve(duration_s=spec.duration_s)
        conn.send((
            "report",
            spec.shard,
            {
                "report": json.loads(service.report_json()),
                "canonical": json.loads(service.canonical_report_json()),
            },
        ))
    finally:
        service.sock.close()
        conn.close()


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one shard's worker."""

    spec: WorkerSpec
    process: object
    conn: object
    address: Optional[Tuple[str, int]] = None
    status: str = SHARD_OK
    payload: Optional[dict] = None
    restarts: int = 0


def _free_udp_port(host: str) -> int:
    """Pick a currently-free UDP port for the shared reuseport bind."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class ClusterCoordinator:
    """Spawns, watches, stops, and merges N service workers."""

    def __init__(
        self,
        workers: int,
        config: Optional[ServiceConfig] = None,
        placement: str = "hash",
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: Optional[int] = None,
        duration_s: Optional[float] = None,
        restart_limit: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}"
            )
        if placement == "reuseport" and not reuseport_available():
            raise RuntimeError(
                "SO_REUSEPORT is not available on this platform; "
                "use placement='hash'"
            )
        self.workers = workers
        self.config = config or ServiceConfig()
        self.placement = placement
        self.host = host
        self.port = port
        self.fault_plan = fault_plan
        self.fault_seed = fault_seed
        self.duration_s = duration_s
        self.restart_limit = restart_limit
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: List[_WorkerHandle] = []
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.stop()

    def _spec_for(self, shard: int, port: int) -> WorkerSpec:
        # Fault plans compose per-shard: same plan, shard-mixed seed, so
        # every shard replays its own deterministic fault schedule.
        seed = (None if self.fault_seed is None
                else mix_seed(self.fault_seed, shard))
        return WorkerSpec(
            shard=shard,
            config=self.config,
            host=self.host,
            port=port,
            reuse_port=self.placement == "reuseport",
            fault_plan=self.fault_plan,
            fault_seed=seed,
            duration_s=self.duration_s,
        )

    def _spawn(self, spec: WorkerSpec) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=cluster_worker_main, args=(spec, child_conn), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(spec=spec, process=process, conn=parent_conn)

    def start(self, timeout_s: float = START_TIMEOUT_S) -> None:
        """Spawn every worker and wait for all ready messages."""
        if self._handles:
            raise RuntimeError("cluster already started")
        shared_port = self.port
        if self.placement == "reuseport" and shared_port == 0:
            shared_port = _free_udp_port(self.host)
        for shard in range(self.workers):
            port = shared_port if self.placement == "reuseport" else self.port
            self._handles.append(self._spawn(self._spec_for(shard, port)))
        deadline = time.monotonic() + timeout_s
        for handle in self._handles:
            self._await_ready(handle, deadline)

    def _await_ready(self, handle: _WorkerHandle, deadline: float) -> None:
        while handle.address is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump_messages(handle, remaining):
                self._join(handle)
                raise RuntimeError(
                    f"cluster worker {handle.spec.shard} never became ready "
                    f"(exitcode={handle.process.exitcode})"
                )

    def _pump_messages(self, handle: _WorkerHandle, timeout_s: float) -> bool:
        """Receive one control message if available; False on EOF/timeout."""
        try:
            if not handle.conn.poll(max(timeout_s, 0.0)):
                return False
            message = handle.conn.recv()
        except (EOFError, OSError):
            return False
        kind = message[0]
        if kind == "ready":
            handle.address = (message[2][0], message[2][1])
        elif kind == "report":
            handle.payload = message[2]
        return True

    # -- placement ----------------------------------------------------------
    @property
    def addresses(self) -> List[Tuple[str, int]]:
        with self._lock:
            return [handle.address for handle in self._handles]

    def servers_for(self, stream_ids: Sequence[int]) -> List[Tuple[str, int]]:
        """Per-stream server addresses under the configured placement."""
        addresses = self.addresses
        if self.placement == "reuseport":
            return [addresses[0] for _ in stream_ids]
        return servers_for_streams(stream_ids, addresses)

    # -- failure handling ----------------------------------------------------
    def check_workers(self) -> List[int]:
        """Detect dead workers; restart (once) or mark degraded.

        Returns the shard indices acted on.  Safe to call from a
        monitor thread while clients are being driven.
        """
        acted: List[int] = []
        with self._lock:
            for index, handle in enumerate(self._handles):
                while self._pump_messages(handle, 0.0):
                    pass
                if handle.process.is_alive() or handle.payload is not None:
                    continue  # running, or exited after flushing its report
                if handle.status == SHARD_DEGRADED:
                    continue
                if handle.restarts < self.restart_limit \
                        and handle.address is not None:
                    self._join(handle)  # reap it and close its pipe
                    # Rebind the same port so hash-placement clients
                    # keep reaching the shard without re-resolving.
                    spec = replace(handle.spec, port=handle.address[1])
                    replacement = self._spawn(spec)
                    replacement.restarts = handle.restarts + 1
                    replacement.status = SHARD_RESTARTED
                    try:
                        self._await_ready(
                            replacement,
                            time.monotonic() + START_TIMEOUT_S,
                        )
                    except RuntimeError:
                        replacement.status = SHARD_DEGRADED
                    self._handles[index] = replacement
                else:
                    handle.status = SHARD_DEGRADED
                acted.append(handle.spec.shard)
        return acted

    # -- shutdown / reporting ------------------------------------------------
    def _join(self, handle: _WorkerHandle, timeout_s: float = 5.0) -> None:
        handle.process.join(timeout=timeout_s)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=timeout_s)
        handle.conn.close()

    def stop(self, timeout_s: float = REPORT_TIMEOUT_S) -> None:
        """Graceful SIGTERM to every worker; collect final reports."""
        with self._lock:
            for handle in self._handles:
                if handle.process.is_alive():
                    handle.process.terminate()  # SIGTERM -> drain + report
            for handle in self._handles:
                deadline = time.monotonic() + timeout_s
                while handle.payload is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    if not self._pump_messages(handle, remaining):
                        if not handle.process.is_alive():
                            break
                if handle.payload is None and handle.status != SHARD_RESTARTED:
                    handle.status = SHARD_DEGRADED
                self._join(handle)

    def report(self) -> ClusterReport:
        """Merge whatever the shards reported (degraded shards included)."""
        shard_reports = []
        with self._lock:
            for handle in self._handles:
                payload = handle.payload or {}
                status = handle.status
                if payload.get("report") is None \
                        and status != SHARD_DEGRADED:
                    status = SHARD_DEGRADED
                shard_reports.append(ShardReport(
                    shard=handle.spec.shard,
                    status=status,
                    report=payload.get("report"),
                    canonical=payload.get("canonical"),
                ))
        return merge_shards(shard_reports)


# ---------------------------------------------------------------------------
# One-shot cluster loadgen (CLI, CI smoke, perf suite, tests)
# ---------------------------------------------------------------------------

@dataclass
class ClusterRunResult:
    """One cluster loadgen run: verdicts, merged report, wall-clock stats."""

    pulls: Dict[int, UdpPullResult]
    report: ClusterReport
    stats: PumpRunStats
    placement: str
    workers: int

    @property
    def all_ok(self) -> bool:
        summary = self.report.summary()
        return (
            len(self.pulls) > 0
            and all(p.ok for p in self.pulls.values())
            and summary["degraded"] == 0
            and summary["failed"] == 0
        )


def run_udp_cluster(
    workers: int = 2,
    clients: int = 8,
    config: Optional[ServiceConfig] = None,
    placement: str = "hash",
    sizes: str = "fixed",
    size_bytes: int = 4096,
    workload_seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    fault_seed: Optional[int] = None,
    duration_s: float = 30.0,
    restart_limit: int = 1,
    monitor_interval_s: Optional[float] = 0.2,
    overall_timeout_s: Optional[float] = None,
) -> ClusterRunResult:
    """Spin up a loopback cluster, drive ``clients`` pulls, merge reports."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    config = config or ServiceConfig()
    size_list = make_sizes(sizes, clients, size_bytes=size_bytes,
                           seed=workload_seed)
    stream_ids = list(range(1, clients + 1))
    coordinator = ClusterCoordinator(
        workers,
        config=config,
        placement=placement,
        fault_plan=fault_plan,
        fault_seed=fault_seed,
        duration_s=duration_s,
        restart_limit=restart_limit,
    )
    with coordinator:
        pump = UdpClientPump(
            coordinator.servers_for(stream_ids)[0],
            size_list,
            protocol=config.protocol,
            strategy=config.strategy,
            servers=coordinator.servers_for(stream_ids),
        )
        stop_monitor = threading.Event()

        def _watch() -> None:
            while not stop_monitor.wait(monitor_interval_s):
                coordinator.check_workers()

        monitor = None
        if monitor_interval_s is not None:
            monitor = threading.Thread(target=_watch, daemon=True)
            monitor.start()
        try:
            pulls = pump.run(
                overall_timeout_s=(overall_timeout_s
                                   if overall_timeout_s is not None
                                   else duration_s + 10.0)
            )
        finally:
            stop_monitor.set()
            if monitor is not None:
                monitor.join(timeout=5.0)
        coordinator.stop()
        report = coordinator.report()
    return ClusterRunResult(
        pulls=pulls,
        report=report,
        stats=pump.stats,
        placement=placement,
        workers=workers,
    )

"""Sweep suites: one sweep helper and the three cells it drives.

Three suites time a *cell* — one self-contained run at a given scale —
over a grid of scales, export the per-scale facts of the latest sweep
through the suite ``extras`` channel into ``BENCH_fastpath.json``, and
pin the canonical report of one fixed cell in the structure ledger:

``service_udp_clients``
    Per-client goodput versus client count (16/64/256 full, 4/8/16
    smoke) with small 4 KiB pulls over loopback — the scheduling-bound
    shape of the committed scaling ledger.
``cluster_udp_goodput``
    Aggregate goodput of a real multi-process loopback cluster versus
    worker count (1/2/4 full, 1/2 smoke).  Its ``check`` is the cluster
    determinism gate: two fresh runs must merge to byte-identical
    canonical reports — exercising placement, the worker control
    channel, graceful SIGTERM drain and the order-invariant merge.
``service_sched_scale``
    Per-wakeup scheduling cost: a deterministic DES event loop of
    stop-and-wait streams (1k/4k/10k full, 256 smoke) through
    :class:`~repro.service.engine.ServiceCore`.

``service_udp_throughput`` is not a sweep — one fixed cell of 8
concurrent 256 KiB blasts, the paper's large-transfer shape where
per-datagram software overhead dominates — but it runs the same UDP
cell, so it lives here too.

Every cell function returns a dict with ``seconds`` (the cell's timed
window), ``canonical`` (a report that depends only on the workload:
its SHA-256 is the ledger digest, identical in smoke and full modes)
and wall-clock facts, which are machine-dependent and therefore only
ever reach the bench JSON.  A cell raises on a failed or unverified
run: a perf number for a broken run is worthless.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

from ..service.engine import ServiceConfig, ServiceCore
from ..service.pullclient import PullMachine

__all__ = [
    "Sweep",
    "cell_digest",
    "THROUGHPUT_STREAMS",
    "run_udp_cell",
    "time_throughput",
    "throughput_digest",
    "run_cluster_cell",
    "cluster_check",
    "run_sched_cell",
    "UDP_CLIENTS",
    "CLUSTER_WORKERS",
    "SCHED_STREAMS",
]


def cell_digest(cell: dict) -> str:
    """The ledger digest of a cell: SHA-256 of its canonical report."""
    return hashlib.sha256(cell["canonical"].encode()).hexdigest()


class Sweep:
    """One cell function timed over a per-mode grid of scales."""

    def __init__(
        self,
        run_cell: Callable[[int], dict],
        full: Tuple[int, ...],
        smoke: Tuple[int, ...],
        canonical: int,
        extras_key: str,
    ):
        self.run_cell = run_cell
        self.full = full
        self.smoke = smoke
        #: The fixed scale hashed into the structure ledger.
        self.canonical = canonical
        self.extras_key = extras_key
        self._last_cells: List[dict] = []

    def timed(self, grid: Sequence[int]) -> float:
        """Run one cell per scale in ``grid``; returns the summed seconds."""
        cells = [self.run_cell(scale) for scale in grid]
        self._last_cells = [
            {key: value for key, value in cell.items() if key != "canonical"}
            for cell in cells
        ]
        return sum(cell["seconds"] for cell in cells)

    def digest(self) -> str:
        return cell_digest(self.run_cell(self.canonical))

    def extras(self) -> dict:
        """Suite ``extras``: the per-scale facts of the latest sweep."""
        return {self.extras_key: self._last_cells}


# -- loopback UDP service cell ----------------------------------------------

#: The throughput cell: 8 concurrent large blasts.
THROUGHPUT_STREAMS = 8
THROUGHPUT_SIZE_BYTES = 256 * 1024

#: Per-transfer body in the client-count sweep (scheduling-bound,
#: matching the committed DES scaling ledger).
CLIENT_SWEEP_SIZE_BYTES = 4096

_RECV_TIMEOUT_S = 30.0
_OVERALL_TIMEOUT_S = 120.0


def _service_config() -> ServiceConfig:
    return ServiceConfig(protocol="blast", policy="rr", max_active=8,
                         max_queue=256)


def run_udp_cell(clients: int, size_bytes: int) -> dict:
    """Serve ``clients`` pulls of ``size_bytes`` each over loopback.

    The timed window is wall clock around the whole
    :func:`~repro.service.loadgen.run_udp_loadgen` run (server thread,
    pump, linger, settle).
    """
    from ..service.loadgen import run_udp_loadgen

    start = perf_counter()
    result = run_udp_loadgen(
        clients, config=_service_config(), size_bytes=size_bytes,
        duration_s=_OVERALL_TIMEOUT_S, recv_timeout_s=_RECV_TIMEOUT_S)
    seconds = perf_counter() - start
    bad = {s: (r.status, r.error) for s, r in result.pulls.items()
           if not r.ok}
    if len(result.pulls) != clients or bad:
        raise AssertionError(
            f"UDP cell failed ({clients} clients x {size_bytes}B): {bad}"
        )
    stats = result.stats
    return {
        "clients": clients,
        "ok": stats.ok,
        "payload_bytes": stats.payload_bytes,
        "makespan_s": stats.elapsed_s,
        "per_client_goodput_bytes_per_s": (
            stats.per_client_goodput_bytes_per_s
        ),
        "seconds": seconds,
        "canonical": result.canonical_json,
    }


def _throughput_cell() -> dict:
    return run_udp_cell(THROUGHPUT_STREAMS, THROUGHPUT_SIZE_BYTES)


def time_throughput(n: int) -> float:
    """Time ``n`` streams' worth of throughput cells."""
    runs = max(1, n // THROUGHPUT_STREAMS)
    return sum(_throughput_cell()["seconds"] for _ in range(runs))


def throughput_digest() -> str:
    return cell_digest(_throughput_cell())


def _clients_cell(clients: int) -> dict:
    return run_udp_cell(clients, CLIENT_SWEEP_SIZE_BYTES)


UDP_CLIENTS = Sweep(_clients_cell, full=(16, 64, 256), smoke=(4, 8, 16),
                    canonical=16, extras_key="per_client_goodput")


# -- multi-process cluster cell ---------------------------------------------

#: Concurrent pulls per cell and per-transfer body: enough bytes that a
#: cell measures data movement through N service loops, not spawn cost.
CLUSTER_CLIENTS = 16
CLUSTER_SIZE_BYTES = 32 * 1024

_CLUSTER_DURATION_S = 60.0


def run_cluster_cell(workers: int) -> dict:
    """One hash-placement cluster run: spawn, drive, merge, tear down."""
    from ..cluster import run_udp_cluster

    start = perf_counter()
    result = run_udp_cluster(
        workers=workers,
        clients=CLUSTER_CLIENTS,
        config=_service_config(),
        placement="hash",
        size_bytes=CLUSTER_SIZE_BYTES,
        duration_s=_CLUSTER_DURATION_S,
        restart_limit=0,
        monitor_interval_s=None,  # nothing between the pump and the wire
    )
    seconds = perf_counter() - start
    if not result.all_ok:
        raise AssertionError(
            f"cluster cell failed ({workers} workers): "
            f"{result.report.summary()}"
        )
    stats = result.stats
    return {
        "workers": workers,
        "clients": stats.clients,
        "ok": stats.ok,
        "payload_bytes": stats.payload_bytes,
        "makespan_s": stats.elapsed_s,
        "aggregate_goodput_bytes_per_s": (
            stats.payload_bytes / max(stats.elapsed_s, 1e-9)
        ),
        "seconds": seconds,
        "canonical": result.report.canonical_json(),
    }


CLUSTER_WORKERS = Sweep(run_cluster_cell, full=(1, 2, 4), smoke=(1, 2),
                        canonical=2, extras_key="goodput_vs_workers")


def cluster_check() -> None:
    """Merged-report determinism gate: two fresh runs, identical bytes."""
    first = run_cluster_cell(CLUSTER_WORKERS.canonical)
    second = run_cluster_cell(CLUSTER_WORKERS.canonical)
    if first["canonical"] != second["canonical"]:
        raise AssertionError(
            "two identical cluster runs merged to different canonical "
            f"reports:\n  first:  {first['canonical']!r}\n"
            f"  second: {second['canonical']!r}"
        )


# -- DES scheduling-scale cell ----------------------------------------------
#
# The cell shape makes per-wakeup cost the whole story:
#
# - ``saw`` (stop-and-wait) senders, 4 packets each, so every stream is
#   *unsendable* most of the time — exactly one of its packets is in
#   flight — and a scheduler that walks the table inspects thousands of
#   machines to find the handful whose ack just landed;
# - one client per stream with ``max_active`` equal to the stream count:
#   no admission churn, no queue effects, pure scheduling;
# - an enormous ``timeout_s`` so retransmit timers never fire — the
#   deadline heap is kept honest (it indexes every outstanding packet)
#   but the workload's only events are grants and acks.

_PACKET_BYTES = 64
_SIZE_BYTES = 256

#: Ack latency cohorts (sim seconds).  32 distinct values keep wakeups
#: desynchronised — a single shared latency would batch every ack into
#: one wakeup and hide the per-wakeup cost the suite exists to measure.
_COHORTS = 32
_LATENCIES = tuple(0.0011 + 0.00037 * i for i in range(_COHORTS))

#: Retransmit timers must never fire: the workload is lossless, so a
#: timer event would mean the harness mis-modelled the machines.
_TIMEOUT_S = 1.0e6


def _sched_config(streams: int) -> ServiceConfig:
    return ServiceConfig(
        protocol="saw",
        policy="fifo",
        packet_bytes=_PACKET_BYTES,
        timeout_s=_TIMEOUT_S,
        grants_per_poll=64,
        max_active=streams,
        max_queue=0,
    )


def run_sched_cell(streams: int) -> dict:
    """Run ``streams`` stop-and-wait transfers through one ServiceCore.

    The timed window covers only the event loop — grant/ack routing and
    the engine's ``poll``/``next_deadline`` calls — not admission or
    report rendering.  Raises if any stream fails or the loop stalls.
    """
    core = ServiceCore(_sched_config(streams))
    pulls = {}
    now = 0.0
    for stream_id in range(1, streams + 1):
        # The loop below has no quiet periods, so like the retransmit
        # timers the client's never fire.
        pull = PullMachine(stream_id, _SIZE_BYTES, "saw", "selective",
                           pull_timeout_s=_TIMEOUT_S, pull_retries=1,
                           recv_timeout_s=_TIMEOUT_S, linger_s=_TIMEOUT_S)
        for request in pull.start(now):
            for verdict, _client in core.on_frame(
                    request, now, client=f"c{stream_id:05d}"):
                pull.on_frame(verdict, now)
        if pull.done:
            raise AssertionError(f"admission failed: {pull.result}")
        pulls[stream_id] = pull

    acks: List[Tuple[float, int, object]] = []
    ack_counter = 0
    wakeups = 0
    wakeup_budget = 64 * streams + 100_000
    start = perf_counter()
    while core.finished_count < streams:
        wakeups += 1
        if wakeups > wakeup_budget:
            raise AssertionError(
                f"engine stalled at {streams} streams "
                f"({core.finished_count} finished)"
            )
        for frame, _client in core.poll(now):
            stream_id = frame.stream_id
            latency = _LATENCIES[stream_id % _COHORTS]
            for reply in pulls[stream_id].on_frame(frame, now):
                ack_counter += 1
                heappush(acks, (now + latency, ack_counter, reply))
        deadline = core.next_deadline(now)
        if deadline is not None and deadline <= now:
            continue  # more grants available at this instant
        times = [t for t in (deadline, acks[0][0] if acks else None)
                 if t is not None]
        if not times:
            if core.finished_count < streams:
                raise AssertionError(
                    f"engine idle with work left at {streams} streams"
                )
            break
        now = min(times)
        while acks and acks[0][0] <= now:
            _due, _order, reply = heappop(acks)
            core.on_frame(reply, now)
    seconds = perf_counter() - start

    bad = [sid for sid, pull in pulls.items()
           if pull.result is None or not pull.result.ok]
    if bad:
        raise AssertionError(f"incomplete streams: {bad[:5]}...")
    return {
        "streams": streams,
        "seconds": seconds,
        "canonical": core.metrics.canonical_json(),
    }


SCHED_STREAMS = Sweep(run_sched_cell, full=(1024, 4096, 10240), smoke=(256,),
                      canonical=256, extras_key="sched_scale")

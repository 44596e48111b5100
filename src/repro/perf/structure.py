"""The structure ledger: ten canonical runs, each reduced to a digest.

``benchmarks/results/perf_structure.txt`` pins what must *not* vary with
the machine, the worker count or the speed of the code: the DES kernel's
event order, the wire codec's bytes, one conformance cell, one DES
service run, two loopback UDP service runs, one two-worker cluster run
and one scheduling-scale run.  A moved digest means a hot path changed
behaviour, not just speed.  Nothing here is timed: the timing harness is
``layerbench`` with ``benchmarks/bench_history.py``
(``docs/performance.md``).  The rows keep the names of the ``repro
perf`` suites they were recorded under.

Regenerate the ledger, with the kernel and codec fixtures it sits
beside, through ``tests/perf/capture_fixtures.py``; tier-1 asserts it
(``tests/perf/test_suites.py``).  A row raises instead of hashing a
failed or unverified run.
"""

from __future__ import annotations

import hashlib
import json
from heapq import heappop, heappush
from typing import Callable, Dict, List, Tuple

from ..service.engine import ServiceConfig, ServiceCore
from ..service.pullclient import PullMachine
from . import workloads

__all__ = ["SUITES", "structure_rows", "render_ledger"]

LEDGER_HEADER = (
    "# repro perf structure ledger — suite names, canonical workload sizes,\n"
    "# determinism digests.  Byte-stable across machines, modes and --jobs.\n"
    "# regenerate: PYTHONPATH=src python tests/perf/capture_fixtures.py\n"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _wire_digest() -> str:
    return workloads.wire_digest(workloads.canonical_datagrams())


def _conformance_digest() -> str:
    """One DES conformance cell: blast x selective x ``dup+reorder``."""
    from ..faults.conformance import _run_cell_spec
    from ..faults.plans import builtin_plan

    cell = _run_cell_spec(("des", "blast", "selective",
                           builtin_plan("dup+reorder").to_json(), 7,
                           8 * 1024 + 137))
    return _sha256(json.dumps(cell, sort_keys=True))


_SERVICE_STREAMS = 8


def _service_digest() -> str:
    """Eight 4 KiB streams through the DES scheduler/engine stack."""
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
    return _sha256(result.report_json)


# -- loopback UDP service and cluster ---------------------------------------

#: 8 concurrent 256 KiB blasts (the paper's large-transfer shape) and 16
#: 4 KiB pulls (the scheduling-bound shape of the scaling ledger).
_THROUGHPUT = (8, 256 * 1024)
_CLIENTS = (16, 4096)
#: 16 pulls of 32 KiB over a two-worker hash-placement cluster.
_CLUSTER_WORKERS = 2


def _socket_config() -> ServiceConfig:
    return ServiceConfig(protocol="blast", policy="rr", max_active=8,
                         max_queue=256)


def _udp_digest(clients: int, size_bytes: int) -> str:
    from ..service.loadgen import run_udp_loadgen

    result = run_udp_loadgen(
        clients, config=_socket_config(), size_bytes=size_bytes,
        duration_s=120.0, recv_timeout_s=30.0)
    bad = {s: (r.status, r.error) for s, r in result.pulls.items()
           if not r.ok}
    if len(result.pulls) != clients or bad:
        raise AssertionError(
            f"UDP cell failed ({clients} clients x {size_bytes}B): {bad}"
        )
    return _sha256(result.canonical_json)


def _cluster_digest() -> str:
    from ..cluster import run_udp_cluster

    result = run_udp_cluster(
        workers=_CLUSTER_WORKERS,
        clients=16,
        config=_socket_config(),
        placement="hash",
        size_bytes=32 * 1024,
        duration_s=60.0,
        restart_limit=0,
        monitor_interval_s=None,  # nothing between the pump and the wire
    )
    if not result.all_ok:
        raise AssertionError(f"cluster cell failed: {result.report.summary()}")
    return _sha256(result.report.canonical_json())


# -- DES scheduling scale ---------------------------------------------------
#
# ``saw`` senders of 4 packets, one client per stream, ``max_active`` equal
# to the stream count: every stream is unsendable most of the time, there
# is no admission churn, and the only events are grants and acks.

_SCHED_STREAMS = 256
#: Ack latency cohorts (sim seconds): 32 distinct values keep the
#: wakeups desynchronised.
_COHORTS = 32
_LATENCIES = tuple(0.0011 + 0.00037 * i for i in range(_COHORTS))
#: The workload is lossless, so no retransmit or client timer may fire.
_NEVER_S = 1.0e6


def _sched_digest() -> str:
    streams = _SCHED_STREAMS
    core = ServiceCore(ServiceConfig(
        protocol="saw", policy="fifo", packet_bytes=64, timeout_s=_NEVER_S,
        grants_per_poll=64, max_active=streams, max_queue=0))
    pulls = {}
    now = 0.0
    for stream_id in range(1, streams + 1):
        pull = PullMachine(stream_id, 256, "saw", "selective",
                           pull_timeout_s=_NEVER_S, pull_retries=1,
                           recv_timeout_s=_NEVER_S, linger_s=_NEVER_S)
        for request in pull.start(now):
            for verdict, _client in core.on_frame(
                    request, now, client=f"c{stream_id:05d}"):
                pull.on_frame(verdict, now)
        if pull.done:
            raise AssertionError(f"admission failed: {pull.result}")
        pulls[stream_id] = pull

    acks: List[Tuple[float, int, object]] = []
    ack_counter = 0
    for _wakeup in range(64 * streams + 100_000):
        if core.finished_count == streams:
            break
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
            break
        now = min(times)
        while acks and acks[0][0] <= now:
            _due, _order, reply = heappop(acks)
            core.on_frame(reply, now)

    bad = [sid for sid, pull in pulls.items()
           if pull.result is None or not pull.result.ok]
    if bad:
        raise AssertionError(f"incomplete streams: {bad[:5]}...")
    return _sha256(core.metrics.canonical_json())


#: Row name -> (canonical workload size, digest recipe), in ledger order.
SUITES: Dict[str, Tuple[int, Callable[[], str]]] = {
    "des_events": (workloads.CANONICAL_EVENTS, workloads.kernel_digest),
    "des_process": (workloads.CANONICAL_EVENTS, workloads.kernel_digest),
    "codec_encode": (len(workloads.canonical_frames()), _wire_digest),
    "codec_decode": (len(workloads.canonical_frames()), _wire_digest),
    "conformance_cell": (1, _conformance_digest),
    "service_run": (_SERVICE_STREAMS, _service_digest),
    "service_udp_throughput": (_THROUGHPUT[0],
                               lambda: _udp_digest(*_THROUGHPUT)),
    "service_udp_clients": (_CLIENTS[0], lambda: _udp_digest(*_CLIENTS)),
    "cluster_udp_goodput": (_CLUSTER_WORKERS, _cluster_digest),
    "service_sched_scale": (_SCHED_STREAMS, _sched_digest),
}


def structure_rows() -> List[str]:
    """Run every recipe; one ``name canonical_ops=N digest=H`` row each."""
    return [f"{name} canonical_ops={ops} digest={digest()}"
            for name, (ops, digest) in SUITES.items()]


def render_ledger(rows: List[str]) -> str:
    """The byte-stable structure ledger for ``rows``."""
    return (LEDGER_HEADER + "".join(row + "\n" for row in rows)
            + f"total_suites {len(rows)}\n")

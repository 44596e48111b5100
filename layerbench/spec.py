"""What the benchmark runs and what it reports: the single registry.

``BENCHMARK.json`` is :func:`manifest` written to disk; the runners, the
printer and the self-tests all read the same tables, so a workload or
metric cannot exist in one place and not the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "Workload", "Metric", "WORKLOADS", "END_TO_END", "PER_LAYER",
    "RUN_SECONDS", "WARMUP_CELLS", "SETUP_REPEATS", "manifest",
]

KIB = 1024
MIB = 1024 * 1024

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 15
#: Cells run and discarded after every child spawn; counted in setup_s.
WARMUP_CELLS = 2
#: Set-ups per untraced run; setup_s is the fastest of them.
SETUP_REPEATS = 3
#: peak_rss_mib is read when this many cells have been measured, so it
#: prices the same work on every commit however many cells a run fits.
RSS_CELLS = 8
#: Share of a traced run's seconds spent on its untraced reference phase.
REFERENCE_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs.  ``kind`` picks the runner (udp / des)."""

    name: str
    kind: str
    why: str
    #: udp: streams per cell, bytes per stream, and the ``repro serve``
    #: flags; des: the worker's cell recipe.  Never read by the program
    #: under test -- it only ever sees the generated inputs.
    params: Dict[str, object] = field(default_factory=dict)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "udp_bulk_blast", "udp",
        "8 x 256 KiB blast pulls per cell: the paper's case, the server "
        "send path (drain_sends, next_frame, encode_into, sendto) does "
        "nearly all the work",
        dict(streams=8, size=256 * KIB, protocol="blast", policy="rr",
             max_active=8, max_queue=64, window=4),
    ),
    Workload(
        "udp_bulk_sliding", "udp",
        "2 x 4 MiB sliding-window pulls, window 32: every data frame is "
        "ack-clocked, so recv_batch, decode and on_frame run once per "
        "datagram sent",
        dict(streams=2, size=4 * MIB, protocol="sliding", policy="rr",
             max_active=8, max_queue=64, window=32),
    ),
    Workload(
        "udp_many_small", "udp",
        "64 x 4 KiB blast pulls into 8 slots: admission, pending queue, "
        "scheduler grants, control replies and ServiceMetrics dominate "
        "over per-datagram cost",
        dict(streams=64, size=4 * KIB, protocol="blast", policy="rr",
             max_active=8, max_queue=64, window=4),
    ),
    Workload(
        "des_service", "des",
        "1024 simulated stop-and-wait streams with Poisson arrivals: "
        "ServiceCore and the scheduler at a stream count sockets cannot "
        "reach here; wire, iobatch, udpservice, clientpump idle",
        dict(clients=1024, protocol="saw", policy="rr", max_active=64,
             max_queue=1024, span_s=1.0),
    ),
    Workload(
        "des_transfer", "des",
        "64 KiB at 1% loss, 10 runs each of stop-and-wait, sliding "
        "window and three blast strategies: the paper-reproduction path "
        "on sim, simnet and core; the service package idle",
        dict(size=64 * KIB, error_p=0.01, n_runs=10),
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median a later change may
    #: lose before it is a regression.  Calibrated in README.md.
    bound: float = 0.0
    note: str = ""


# Cell-level metrics report the run's quiet decile (see ledger.py).
# Bounds: max(5 %, 2 x the widest quartile spread over 10 seeds on any
# workload), capped at the contract's 25 %; calibration in README.md.
END_TO_END: Tuple[Metric, ...] = (
    Metric("goodput_mib_s", "MiB/s", "higher", 0.25,
           "verified payload MiB / cell makespan (udp) or / cell wall "
           "(des, simulated payload)"),
    Metric("kframes_per_s", "kframes/s", "higher", 0.25,
           "data frames sent by the server (udp) or simulated (des) per "
           "second of cell time, thousands"),
    Metric("completion_p50_ms", "ms", "lower", 0.25,
           "udp: pull sent -> payload verified, over one cell's streams; "
           "des_service: wall of one cell; des_transfer: wall of one "
           "run_many call, over the cell's five"),
    Metric("completion_p90_ms", "ms", "lower", 0.25,
           "as completion_p50_ms, 90th percentile"),
    Metric("server_cpu_ms_per_mib", "ms/MiB", "lower", 0.25,
           "user+sys CPU of the child running the program / verified MiB"),
    Metric("peak_rss_mib", "MiB", "lower", 0.10,
           "peak resident set of the child after RSS_CELLS measured cells"),
    Metric("setup_s", "s", "lower", 0.25,
           "child spawn -> ready line -> warm-up cells done; fastest of "
           "the run's set-ups"),
)

_L = "lower"
_H = "higher"
PER_LAYER: Tuple[Metric, ...] = (
    Metric("wire.encode_into_us", "us", _L),
    Metric("wire.decode_us", "us", _L),
    Metric("iobatch.send_frame_self_us", "us", _L),
    Metric("iobatch.recv_batch_self_us_per_dgram", "us", _L),
    Metric("iobatch.dgrams_per_recv_batch", "count", _H),
    Metric("iobatch.send_drops", "count", _L),
    Metric("udpservice.loop_self_us_per_dgram", "us", _L),
    Metric("udpservice.select_wait_share", "share", _L),
    Metric("udpservice.wakeups_per_kdgram", "count", _L),
    Metric("engine.on_frame_self_us", "us", _L),
    Metric("engine.drain_sends_self_us_per_frame", "us", _L),
    Metric("engine.next_deadline_us", "us", _L),
    Metric("engine.queue_wait_p50_ms", "ms", _L),
    Metric("engine.max_queue_depth", "count", _L),
    Metric("scheduler.grants_us_per_call", "us", _L),
    Metric("scheduler.frames_per_grant_call", "count", _H),
    Metric("machines.next_frame_us", "us", _L),
    Metric("machines.on_frame_us", "us", _L),
    Metric("machines.retransmit_share", "share", _L),
    Metric("machines.rounds_mean", "count", _L),
    Metric("metrics.events_us_per_stream", "us", _L),
    Metric("server.cpu_util", "share", _L),
    Metric("server.sys_cpu_share", "share", _L),
    Metric("server.cpu_us_per_dgram", "us", _L),
    Metric("clientpump.cpu_us_per_dgram", "us", _L),
    Metric("clientpump.cpu_util", "share", _L),
    Metric("clientpump.on_readable_us_per_dgram", "us", _L),
    Metric("clientpump.completion_p99_ms", "ms", _L),
    Metric("sim.event_us", "us", _L),
    Metric("sim.process_resume_us", "us", _L),
    Metric("simnet.frame_us", "us", _L),
    Metric("simservice.self_us_per_frame", "us", _L),
    Metric("core.saw_us_per_frame", "us", _L),
    Metric("core.sliding_us_per_frame", "us", _L),
    Metric("core.blast_us_per_frame", "us", _L),
    Metric("trace.overhead_share", "share", _L),
    Metric("trace.accounted_share", "share", _H),
    Metric("failed_share", "share", _L),
)


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(name)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "layerbench"],
        "paths": ["layerbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def names(metrics: Tuple[Metric, ...]) -> List[str]:
    return [m.name for m in metrics]

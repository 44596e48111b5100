"""``python -m layerbench.des_worker``: the child that runs the two
simulator workloads, one cell per command line read from stdin.

Protocol (all JSON, one object per line on stdout): ``ready`` once the
program is imported; for each ``cell <n>`` line, that cell's timings and
verdicts; on ``quit``, one farewell object with the span dump and the
kernel probes (``--traced`` only), then exit.

Touches only: ``ServiceConfig``, ``run_des_loadgen`` ->
``DesServiceResult.{payloads_ok,report}``; ``repro.core.run_many`` ->
``RunSummary.{all_intact,mean_data_frames}``; and, for the probes,
``Environment.{timeout,process,run}``, ``make_lan``, ``Host.send`` /
``Host.receive`` and ``DataFrame``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from typing import Callable, Dict, Optional

from .spec import Workload, workload as find_workload
from .tracing import SERVICE_PROBES, Tracer

#: des_transfer: (ledger family, run_many protocol, extra kwargs).
TRANSFER_GRID = (
    ("saw", "stop_and_wait", {}),
    ("sliding", "sliding_window", {}),
    ("blast", "blast", {"strategy": "full_no_nak"}),
    ("blast", "blast", {"strategy": "gobackn"}),
    ("blast", "blast", {"strategy": "selective"}),
)

PROBE_EVENTS = 20_000
PROBE_FRAMES = 2_000


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def service_cell(spec: Workload, seed: int, index: int) -> dict:
    from repro.service import ServiceConfig, run_des_loadgen

    p = spec.params
    clients = int(p["clients"])
    config = ServiceConfig(protocol=p["protocol"], policy=p["policy"],
                           max_active=p["max_active"],
                           max_queue=p["max_queue"])
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = run_des_loadgen(clients, config, sizes="fixed",
                             arrivals="poisson", span_s=p["span_s"],
                             workload_seed=seed + index)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    summary = result.report["summary"]
    ok = summary["ok"] if result.payloads_ok else 0
    return {
        "cell": index, "wall_s": wall, "cpu_s": cpu,
        "frames": summary["data_frames"],
        "payload_bytes": summary["bytes"] if result.payloads_ok else 0,
        "attempted": clients, "failed": clients - ok,
        "digest": _digest(result.report), "parts": {},
        "completions_ms": [wall * 1e3],
        "report": {
            "max_queue_depth": summary["max_queue_depth"],
            "retransmits": summary["retransmits"],
            "queue_waits_ms": [
                row["queue_wait_s"] * 1e3 for row in result.report["transfers"]
                if row["queue_wait_s"] is not None],
            "rounds": [row["rounds"] for row in result.report["transfers"]],
        },
    }


def transfer_cell(spec: Workload, seed: int, index: int) -> dict:
    from repro.core import run_many

    p = spec.params
    n_runs, size = int(p["n_runs"]), int(p["size"])
    data = random.Random(seed + index).randbytes(size)
    parts: Dict[str, list] = {}
    calls_ms = []
    summaries = []
    frames = failed = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    for family, protocol, kwargs in TRANSFER_GRID:
        started = time.perf_counter()
        summary = run_many(protocol, data, error_p=p["error_p"],
                           n_runs=n_runs, seed=seed + index, n_jobs=1,
                           **kwargs)
        elapsed = time.perf_counter() - started
        calls_ms.append(elapsed * 1e3)
        part_frames = summary.mean_data_frames * n_runs
        wall_frames = parts.setdefault(family, [0.0, 0.0])
        wall_frames[0] += elapsed
        wall_frames[1] += part_frames
        frames += part_frames
        if not summary.all_intact:
            failed += n_runs    # which runs broke is not in the summary
        summaries.append(repr(summary))
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    attempted = n_runs * len(TRANSFER_GRID)
    return {
        "cell": index, "wall_s": wall, "cpu_s": cpu, "frames": frames,
        "payload_bytes": (attempted - failed) * size,
        "attempted": attempted, "failed": failed,
        "digest": _digest(summaries), "parts": parts, "report": {},
        "completions_ms": calls_ms,
    }


CELLS: Dict[str, Callable[[Workload, int, int], dict]] = {
    "des_service": service_cell,
    "des_transfer": transfer_cell,
}


# -- kernel probes: the layers generators hide from call wrappers ----------
def probe_sim_event_us() -> float:
    """Heap push + pop + dispatch of a bare timeout, no process.  Drained
    a hundred at a time so the heap stays as shallow as a real run's."""
    from repro.sim import Environment

    env = Environment()
    batch = 100
    t0 = time.perf_counter()
    for _ in range(PROBE_EVENTS // batch):
        for tick in range(batch):
            env.timeout(tick * 1e-6)
        env.run()
    return (time.perf_counter() - t0) / PROBE_EVENTS * 1e6


def probe_sim_process_resume_us() -> float:
    """One process yielding timeouts in a chain: timeout, dispatch and
    generator resume, per step."""
    from repro.sim import Environment

    env = Environment()

    def chain():
        for _ in range(PROBE_EVENTS):
            yield env.timeout(1e-6)

    env.process(chain())
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / PROBE_EVENTS * 1e6


def probe_simnet_frame_us() -> float:
    """Two hosts, raw 1 KiB data frames one way, no protocol."""
    from repro.core import DataFrame
    from repro.sim import Environment
    from repro.simnet import make_lan

    env = Environment()
    sender, receiver, _medium = make_lan(env)
    frame = DataFrame(transfer_id=1, seq=0, total=1, payload=bytes(1024))

    def send_all():
        for _ in range(PROBE_FRAMES):
            yield from sender.send(frame)

    def receive_all():
        for _ in range(PROBE_FRAMES):
            yield from receiver.receive()

    env.process(send_all())
    env.process(receive_all())
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / PROBE_FRAMES * 1e6


def run_probes() -> Dict[str, Optional[float]]:
    """Each probe alone may fail on a refactored tree: it then reads
    null with one warning line, and the rest still report."""
    probes: Dict[str, Optional[float]] = {}
    for name, probe in (("sim.event_us", probe_sim_event_us),
                        ("sim.process_resume_us", probe_sim_process_resume_us),
                        ("simnet.frame_us", probe_simnet_frame_us)):
        try:
            probes[name] = probe()
        except Exception as error:  # boundary: report, keep the run alive
            print(f"layerbench: WARNING: probe {name} unavailable: "
                  f"{error!r}", file=sys.stderr)
            probes[name] = None
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layerbench.des_worker")
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    spec = find_workload(args.workload)
    run_cell = CELLS[args.workload]
    tracer = Tracer()
    if args.traced:
        tracer.install(SERVICE_PROBES)
    # Import the program before saying ready, so cell 0 times the
    # simulator and not the import system.
    import repro.core  # noqa: F401
    import repro.service  # noqa: F401

    def say(obj) -> None:
        print(json.dumps(obj, separators=(",", ":")), flush=True)

    say({"ready": True})
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "cell":
            say(run_cell(spec, args.seed, int(argument)))
        elif command == "quit":
            break
    farewell = {"trace": None, "probes": {}}
    if args.traced:
        farewell = {"trace": tracer.dump(), "probes": run_probes()}
    say(farewell)
    return 0


if __name__ == "__main__":
    sys.exit(main())

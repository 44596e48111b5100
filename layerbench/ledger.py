"""From measured phases to named metrics.

:func:`end_to_end` reads one untraced phase.  :func:`per_layer` reads a
traced phase plus the untraced reference phase run beside it: span
metrics come from the traced child, CPU and completion metrics from the
reference (tracing would inflate them), and the ratio of the two phases'
cell times is the tracing overhead.

A per-layer value is ``None`` when the span it is built on was never
installed (its target name no longer exists), and ``0.0`` when the
layer simply did no work on this workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .phase import Phase
from .spec import END_TO_END, PER_LAYER, Workload, names
from .stats import percentile, summarise

__all__ = ["end_to_end", "per_layer", "detail"]

MIB = 1024 * 1024


def _completions(phase: Phase) -> List[float]:
    return [ms for cell in phase.cells for ms in cell.completions_ms]


#: Cell-level end-to-end metrics and which way is better.
_CELL_METRICS = {
    "goodput_mib_s": "higher",
    "kframes_per_s": "higher",
    "completion_p50_ms": "lower",
    "completion_p90_ms": "lower",
    "server_cpu_ms_per_mib": "lower",
}


def _per_cell(phase: Phase) -> Dict[str, List[float]]:
    """One value per fully verified cell for every cell-level metric (a
    failed cell has no honest rate; it is counted in ``failed``)."""
    cells = [c for c in phase.cells if c.failed == 0 and c.busy_s > 0]
    return {
        "goodput_mib_s": [c.payload_bytes / MIB / c.busy_s for c in cells],
        "kframes_per_s": [c.frames / c.busy_s / 1e3 for c in cells],
        "completion_p50_ms": [percentile(c.completions_ms, 0.50)
                              for c in cells],
        "completion_p90_ms": [percentile(c.completions_ms, 0.90)
                              for c in cells],
        "server_cpu_ms_per_mib": [c.cpu_s * 1e3 / (c.payload_bytes / MIB)
                                  for c in cells],
    }


def quiet_decile(values: List[float], better: str) -> float:
    """The value one tenth of the way in from the best cell.

    On a shared host interference only ever slows a cell down, and it
    comes in phases longer than a run, so the median of a run's cells
    moves with the neighbours (run-to-run spread up to 15 % on the
    calibration box) while the fast tail estimates the undisturbed
    machine and repeats about twice as well.  One tenth in, not the
    single best cell, so that one fluke cannot set the number.
    """
    if not values:
        return 0.0
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[(len(ordered) - 1) // 10]


def end_to_end(phase: Phase, setups_s: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced phase."""
    values = {name: quiet_decile(series, _CELL_METRICS[name])
              for name, series in _per_cell(phase).items()}
    values["peak_rss_mib"] = phase.peak_rss_mib
    # Same reasoning as the quiet decile, with three samples: a burst of
    # interference lengthens a 0.5 s set-up by a quarter, and the fastest
    # of three spread over the run repeats where their median does not.
    values["setup_s"] = min(setups_s)
    assert list(values) == names(END_TO_END)
    return values


def detail(phase: Phase) -> Dict[str, Dict[str, float]]:
    """Median, quartiles and sample count of each cell-level series, and
    of the pooled stream completions."""
    out = {name: summarise(series)
           for name, series in _per_cell(phase).items()}
    out["completion_ms"] = summarise(_completions(phase))
    return out


class _Spans:
    """Null-propagating reads of a ``Tracer.dump()``: a key none of whose
    targets resolved reads None, a key that was idle reads 0."""

    _IDLE = {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0}

    def __init__(self, dump: Optional[dict]):
        dump = dump or {}
        self._totals = dump.get("totals", {})
        self._missing = set(dump.get("missing_keys", ()))

    def get(self, key: str, field: str) -> Optional[float]:
        if key in self._missing:
            return None
        return self._totals.get(key, self._IDLE)[field]

    def ratio(self, key: str, field: str, per: Optional[float],
              scale: float = 1e-3) -> Optional[float]:
        """``totals[key][field] * scale / per`` (ns -> us by default)."""
        return _div(self.get(key, field), per, scale)

    def accounted_ns(self) -> float:
        return sum(row["self_ns"] for row in self._totals.values())


def _add(*parts: Optional[float]) -> Optional[float]:
    return None if any(p is None for p in parts) else sum(parts)


def _div(top: Optional[float], per: Optional[float],
         scale: float = 1.0) -> Optional[float]:
    """None if either side is a dead probe, 0 if nothing was counted."""
    if top is None or per is None:
        return None
    return top * scale / per if per else 0.0


def per_layer(workload: Workload, traced: Phase,
              reference: Phase) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one workload."""
    child = _Spans(traced.trace)
    pump = _Spans(traced.pump_trace)

    def calls(key):
        return child.get(key, "calls")

    dgrams_in = child.get("iobatch.recv_batch", "units")
    dgrams_out = calls("iobatch.send_frame")
    dgrams = _add(dgrams_in, dgrams_out)
    frames_out = (child.get("engine.drain_sends", "units")
                  or child.get("engine.poll", "units"))
    engine_send_ns = _add(child.get("engine.drain_sends", "self_ns"),
                          child.get("engine.poll", "self_ns"))
    pump_in = pump.get("clientpump.recv_batch", "units")
    pump_dgrams = _add(pump_in, pump.get("clientpump.send", "calls"))

    # Datagrams per cell are a property of the workload, so the traced
    # phase's count prices the untraced reference phase's CPU.
    def reference_dgrams(count: Optional[float]) -> Optional[float]:
        return _div(count, traced.cells_served, len(reference.cells))

    ref_cpu = sum(reference.child_cpu_s)
    ref_busy = reference.busy_s
    ref_server_dgrams = reference_dgrams(dgrams)
    ref_pump_dgrams = reference_dgrams(pump_dgrams)

    # Quiet deciles, for the reason given there: the two phases run one
    # after the other and the machine does not hold still between them.
    traced_cell = quiet_decile([c.busy_s for c in traced.cells], "lower")
    reference_cell = quiet_decile([c.busy_s for c in reference.cells],
                                  "lower")

    # simservice = the untraced DES cell minus the ServiceCore spans
    # minus what the bare simnet probe says moving that many frames
    # costs.  Every SAW data frame is answered by one ack; pull and
    # reply add two frames per stream.
    simservice_us: Optional[float] = 0.0
    if workload.name == "des_service":
        frame_us = traced.probes.get("simnet.frame_us")
        core_ns = _add(child.get("engine.on_frame", "total_ns"),
                       child.get("engine.poll", "total_ns"),
                       child.get("engine.next_deadline", "total_ns"))
        sim_frames = sum(2 * c.frames + 2 * c.attempted
                         for c in reference.cells) / len(reference.cells)
        if frame_us is None or core_ns is None:
            simservice_us = None
        else:
            core_us = core_ns / 1e3 / traced.cells_served
            simservice_us = ((reference_cell * 1e6 - core_us) / sim_frames
                             - frame_us)

    def family_us(family: str) -> float:
        wall = sum(c.parts[family][0] for c in reference.cells
                   if family in c.parts)
        frames = sum(c.parts[family][1] for c in reference.cells
                     if family in c.parts)
        return wall * 1e6 / frames if frames else 0.0

    values: Dict[str, Optional[float]] = {
        "wire.encode_into_us": child.ratio(
            "wire.encode_into", "total_ns", calls("wire.encode_into")),
        "wire.decode_us": child.ratio(
            "wire.decode", "total_ns", calls("wire.decode")),
        "iobatch.send_frame_self_us": child.ratio(
            "iobatch.send_frame", "self_ns", dgrams_out),
        "iobatch.recv_batch_self_us_per_dgram": child.ratio(
            "iobatch.recv_batch", "self_ns", dgrams_in),
        "iobatch.dgrams_per_recv_batch": child.ratio(
            "iobatch.recv_batch", "units", calls("iobatch.recv_batch"), 1.0),
        "iobatch.send_drops": child.get("iobatch.send_frame", "units"),
        "udpservice.loop_self_us_per_dgram": child.ratio(
            "udpservice.serve", "self_ns", dgrams),
        "udpservice.select_wait_share": child.ratio(
            "udpservice.select", "total_ns",
            child.get("udpservice.serve", "total_ns"), 1.0),
        "udpservice.wakeups_per_kdgram": child.ratio(
            "udpservice.select", "calls", dgrams, 1e3),
        "engine.on_frame_self_us": child.ratio(
            "engine.on_frame", "self_ns", calls("engine.on_frame")),
        "engine.drain_sends_self_us_per_frame": _div(
            engine_send_ns, frames_out, 1e-3),
        "engine.next_deadline_us": child.ratio(
            "engine.next_deadline", "total_ns",
            calls("engine.next_deadline")),
        "engine.queue_wait_p50_ms": traced.report.get(
            "queue_wait_p50_ms", 0.0),
        "engine.max_queue_depth": traced.report.get("max_queue_depth", 0),
        "scheduler.grants_us_per_call": child.ratio(
            "scheduler.grants", "self_ns", calls("scheduler.grants")),
        "scheduler.frames_per_grant_call": child.ratio(
            "scheduler.grants", "units", calls("scheduler.grants"), 1.0),
        "machines.next_frame_us": child.ratio(
            "machines.next_frame", "total_ns", calls("machines.next_frame")),
        "machines.on_frame_us": child.ratio(
            "machines.on_frame", "total_ns", calls("machines.on_frame")),
        "machines.retransmit_share": reference.report.get(
            "retransmit_share", 0.0),
        "machines.rounds_mean": reference.report.get("rounds_mean", 0.0),
        "metrics.events_us_per_stream": child.ratio(
            "metrics.events", "total_ns", traced.attempted),
        "server.cpu_util": ref_cpu / ref_busy,
        "server.sys_cpu_share": (reference.child_cpu_s[1] / ref_cpu
                                 if ref_cpu else 0.0),
        "server.cpu_us_per_dgram": _div(ref_cpu * 1e6, ref_server_dgrams),
        "clientpump.cpu_us_per_dgram": _div(reference.pump_cpu_s * 1e6,
                                            ref_pump_dgrams),
        "clientpump.cpu_util": reference.pump_cpu_s / ref_busy,
        "clientpump.on_readable_us_per_dgram": pump.ratio(
            "clientpump.on_readable", "total_ns", pump_in),
        "clientpump.completion_p99_ms": (
            percentile(_completions(reference), 0.99)
            if workload.kind == "udp" else 0.0),
        "sim.event_us": traced.probes.get("sim.event_us", 0.0),
        "sim.process_resume_us": traced.probes.get(
            "sim.process_resume_us", 0.0),
        "simnet.frame_us": traced.probes.get("simnet.frame_us", 0.0),
        "simservice.self_us_per_frame": simservice_us,
        "core.saw_us_per_frame": family_us("saw"),
        "core.sliding_us_per_frame": family_us("sliding"),
        "core.blast_us_per_frame": family_us("blast"),
        "trace.overhead_share": traced_cell / reference_cell - 1.0,
        "trace.accounted_share": (
            child.accounted_ns() / 1e9 / traced.child_wall_s
            if traced.child_wall_s else 0.0),
        "failed_share": ((reference.failed + traced.failed)
                         / (reference.attempted + traced.attempted)),
    }
    assert list(values) == names(PER_LAYER)
    return values

"""Service metrics: per-transfer timeline, queue depth, percentiles.

Everything here is plain deterministic arithmetic over the event times
the engine reports; the JSON export is byte-stable (sorted keys, fixed
float rounding) so it can live in golden ledgers and be diffed across
runs and ``--jobs`` values.

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "config": {...},                  # engine configuration echo
      "summary": {
        "transfers": N, "ok": N, "failed": N, "rejected": N,
        "bytes": N, "data_frames": N, "retransmits": N,
        "p50_completion_s": x, "p99_completion_s": x,
        "mean_completion_s": x, "makespan_s": x,
        "goodput_bytes_per_s": x, "max_queue_depth": N
      },
      "transfers": [                    # one row per admitted transfer
        {"stream": id, "client": name, "ok": bool, "bytes": N,
         "packets": N, "data_frames": N, "retransmits": N, "rounds": N,
         "submitted_s": x, "started_s": x, "finished_s": x,
         "completion_s": x, "queue_wait_s": x}
      ],
      "rejections": [{"stream": id, "client": name, "reason": str,
                      "at_s": x}],
      "queue_depth": [[t, depth], ...]  # sampled at every transition
    }

A driver with sockets under it adds an ``"io"`` object (the batch
layer's counters, :meth:`~repro.service.iobatch.DatagramBatchIO.stats`):
which send path ran and how many datagrams each kernel crossing
carried.  It is machine-dependent and never part of
:meth:`ServiceMetrics.canonical_json`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ServiceMetrics", "canonical_from_report", "percentile",
           "report_to_json"]

SCHEMA_VERSION = 1
_ROUND = 9  # float decimals in the stable export


def report_to_json(report: dict) -> str:
    """The byte-stable export of a report: sorted keys, no spaces."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _r(value: float) -> float:
    return round(float(value), _ROUND)


def canonical_from_report(report: dict) -> dict:
    """Substrate-independent projection of a full report dict.

    The full report carries wall-clock timings and client addresses
    (ephemeral ports on the UDP substrate), which differ run to run even
    when the service did exactly the same work.  This projection keeps
    only the deterministic outcome facts — which streams finished, with
    how many bytes and packets, and the summary counts — so two runs can
    be compared byte-for-byte (the repeated-run identity test in
    tests/service/), and shard reports merge identically wherever they
    ran (the DES cluster derives it from a relabelled report).
    """
    summary = report["summary"]
    return {
        "summary": {
            key: summary[key]
            for key in ("transfers", "ok", "failed", "rejected", "bytes")
        },
        "transfers": [
            {"stream": row["stream"], "ok": row["ok"],
             "bytes": row["bytes"], "packets": row["packets"]}
            for row in sorted(report["transfers"],
                              key=lambda row: row["stream"])
        ],
        "rejections": sorted(
            ({"stream": row["stream"], "reason": row["reason"]}
             for row in report.get("rejections", ())),
            key=lambda row: row["stream"],
        ),
    }


@dataclass
class TransferRecord:
    """Timeline and counters of one admitted transfer."""

    stream_id: int
    client: str
    submitted_s: float
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    ok: bool = False
    size_bytes: int = 0
    packets: int = 0
    data_frames: int = 0
    retransmits: int = 0
    rounds: int = 0
    error: str = ""
    #: Congestion-controller snapshot (cwnd/ssthresh/rto timeline);
    #: None for fixed-controller transfers, keeping their report rows
    #: byte-identical to the pre-congestion schema.
    congestion: Optional[dict] = None

    @property
    def completion_s(self) -> Optional[float]:
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.started_s is None:
            return None
        return self.started_s - self.submitted_s


@dataclass
class RejectionRecord:
    """One admission-control rejection."""

    stream_id: int
    client: str
    reason: str
    at_s: float


@dataclass
class ServiceMetrics:
    """Collects engine events and renders the stable report."""

    transfers: Dict[int, TransferRecord] = field(default_factory=dict)
    rejections: List[RejectionRecord] = field(default_factory=list)
    queue_depth: List[Tuple[float, int]] = field(default_factory=list)

    # -- event hooks (the engine calls these) -------------------------------
    def on_submitted(self, stream_id: int, client: str, now: float) -> None:
        self.transfers[stream_id] = TransferRecord(
            stream_id=stream_id, client=client, submitted_s=now
        )

    def on_started(self, stream_id: int, now: float) -> None:
        self.transfers[stream_id].started_s = now

    def on_finished(self, stream_id: int, outcome, now: float) -> None:
        record = self.transfers[stream_id]
        record.finished_s = now
        record.ok = outcome.ok
        record.size_bytes = outcome.size_bytes
        record.packets = outcome.packets
        record.data_frames = outcome.data_frames_sent
        record.retransmits = outcome.retransmits
        record.rounds = outcome.rounds
        record.error = outcome.error
        record.congestion = getattr(outcome, "congestion", None)

    def on_rejected(self, stream_id: int, client: str, reason: str,
                    now: float) -> None:
        self.rejections.append(
            RejectionRecord(stream_id=stream_id, client=client,
                            reason=reason, at_s=now)
        )

    def on_queue_depth(self, now: float, depth: int) -> None:
        if self.queue_depth and self.queue_depth[-1][0] == now:
            self.queue_depth[-1] = (now, depth)
        else:
            self.queue_depth.append((now, depth))

    # -- derived ------------------------------------------------------------
    def completion_times(self) -> List[float]:
        return [r.completion_s for r in self.transfers.values()
                if r.completion_s is not None and r.ok]

    def summary(self) -> dict:
        rows = list(self.transfers.values())
        finished = [r for r in rows if r.finished_s is not None]
        ok_rows = [r for r in finished if r.ok]
        times = self.completion_times()
        total_bytes = sum(r.size_bytes for r in ok_rows)
        if finished:
            start = min(r.submitted_s for r in rows)
            end = max(r.finished_s for r in finished)
            makespan = end - start
        else:
            makespan = 0.0
        goodput = total_bytes / makespan if makespan > 0 else 0.0
        return {
            "transfers": len(rows),
            "ok": len(ok_rows),
            "failed": len(finished) - len(ok_rows),
            "rejected": len(self.rejections),
            "bytes": total_bytes,
            "data_frames": sum(r.data_frames for r in finished),
            "retransmits": sum(r.retransmits for r in finished),
            "p50_completion_s": _r(percentile(times, 0.50)),
            "p99_completion_s": _r(percentile(times, 0.99)),
            "mean_completion_s": _r(sum(times) / len(times)) if times else 0.0,
            "makespan_s": _r(makespan),
            "goodput_bytes_per_s": _r(goodput),
            "max_queue_depth": max((d for _, d in self.queue_depth), default=0),
        }

    def to_dict(self, config: Optional[dict] = None) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": dict(config or {}),
            "summary": self.summary(),
            "transfers": [
                {
                    "stream": r.stream_id,
                    "client": r.client,
                    "ok": r.ok,
                    "bytes": r.size_bytes,
                    "packets": r.packets,
                    "data_frames": r.data_frames,
                    "retransmits": r.retransmits,
                    "rounds": r.rounds,
                    "submitted_s": _r(r.submitted_s),
                    "started_s": None if r.started_s is None else _r(r.started_s),
                    "finished_s": (None if r.finished_s is None
                                   else _r(r.finished_s)),
                    "completion_s": (None if r.completion_s is None
                                     else _r(r.completion_s)),
                    "queue_wait_s": (None if r.queue_wait_s is None
                                     else _r(r.queue_wait_s)),
                    "error": r.error,
                    # Only present for congestion-controlled transfers;
                    # omitting it under the fixed controller keeps the
                    # schema-1 rows byte-identical.
                    **({"congestion": r.congestion}
                       if r.congestion is not None else {}),
                }
                for r in sorted(self.transfers.values(),
                                key=lambda r: r.stream_id)
            ],
            "rejections": [
                {"stream": j.stream_id, "client": j.client,
                 "reason": j.reason, "at_s": _r(j.at_s)}
                for j in self.rejections
            ],
            "queue_depth": [[_r(t), d] for t, d in self.queue_depth],
        }

    def to_json(self, config: Optional[dict] = None,
                io: Optional[dict] = None) -> str:
        """Byte-stable JSON export (sorted keys, fixed float rounding)."""
        report = self.to_dict(config)
        if io is not None:
            report["io"] = io
        return report_to_json(report)

    # -- canonical projection ----------------------------------------------
    def canonical_dict(self) -> dict:
        """:func:`canonical_from_report` of this report."""
        return canonical_from_report(self.to_dict())

    def canonical_json(self) -> str:
        """Byte-stable JSON of :meth:`canonical_dict`."""
        return report_to_json(self.canonical_dict())

    def render_table(self, config: Optional[dict] = None,
                     io: Optional[dict] = None) -> str:
        """Human-oriented text report (`repro serve --report`)."""
        summary = self.summary()
        lines = ["# service report"]
        if config:
            pairs = " ".join(f"{k}={config[k]}" for k in sorted(config))
            lines.append(f"# config: {pairs}")
        if io:
            pairs = " ".join(f"{k}={io[k]}" for k in sorted(io))
            lines.append(f"# io: {pairs}")
        lines.append(
            "# transfers={transfers} ok={ok} failed={failed} "
            "rejected={rejected}".format(**summary)
        )
        lines.append(
            "# p50={p50_completion_s}s p99={p99_completion_s}s "
            "makespan={makespan_s}s "
            "goodput={goodput_bytes_per_s}B/s "
            "max_queue={max_queue_depth}".format(**summary)
        )
        lines.append("stream client ok bytes packets frames retx "
                     "wait_s completion_s")
        for r in sorted(self.transfers.values(), key=lambda r: r.stream_id):
            wait = "-" if r.queue_wait_s is None else f"{r.queue_wait_s:.6f}"
            comp = "-" if r.completion_s is None else f"{r.completion_s:.6f}"
            lines.append(
                f"{r.stream_id} {r.client} {'yes' if r.ok else 'NO'} "
                f"{r.size_bytes} {r.packets} {r.data_frames} "
                f"{r.retransmits} {wait} {comp}"
            )
        for j in self.rejections:
            lines.append(f"{j.stream_id} {j.client} REJECTED({j.reason}) "
                         f"- - - - {j.at_s:.6f} -")
        return "\n".join(lines) + "\n"

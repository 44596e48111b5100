"""Order-invariant, byte-stable merging of per-shard metrics reports.

Every worker (UDP process or DES shard) emits the metrics report of
:class:`~repro.service.metrics.ServiceMetrics` — the cluster layer never
invents a second schema.  A :class:`ShardReport` wraps one worker's
report with its shard index and liveness status; a
:class:`ClusterReport` is a *set* of shard reports keyed by shard index.

The determinism argument is structural: merging is dictionary union
with duplicate-shard rejection, and every export sorts by shard index
(or stream id) at render time.  Union of disjoint keyed sets is
commutative and associative, so ``merge(a, merge(b, c))`` and any
permutation of ``merge_shards([...])`` render byte-identical JSON —
the property tests in tests/cluster/test_merge.py check exactly that,
and the 10k-stream DES ledger stays byte-identical across ``--jobs``.

Like :class:`ServiceMetrics`, two exports are offered:

- :meth:`ClusterReport.to_json` — the full cluster report (per-shard
  summaries + merged totals/percentiles).  Byte-stable on the DES
  substrate; carries wall-clock facts on UDP.
- :meth:`ClusterReport.canonical_json` — the substrate-independent
  outcome projection (which streams finished, bytes, packets, counts).
  Deliberately free of shard tags so hash and ``SO_REUSEPORT``
  placement produce the same bytes when the work is the same; this is
  the cluster determinism gate used by the perf suite and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..service.metrics import (canonical_from_report, percentile,
                               report_to_json)

__all__ = [
    "CLUSTER_SCHEMA_VERSION",
    "ClusterReport",
    "ShardReport",
    "merge_shards",
]

CLUSTER_SCHEMA_VERSION = 1
_ROUND = 9  # float decimals, matching service/metrics.py

#: Shard liveness states the coordinator can report.
SHARD_OK = "ok"
SHARD_RESTARTED = "restarted"
SHARD_DEGRADED = "degraded"


def _r(value: float) -> float:
    return round(float(value), _ROUND)


@dataclass(frozen=True)
class ShardReport:
    """One worker's metrics report plus its cluster-level identity."""

    shard: int
    status: str = SHARD_OK
    #: Full ServiceMetrics report dict; None for a degraded shard that
    #: died before flushing one.
    report: Optional[dict] = None
    #: Canonical projection (``service.metrics.canonical_from_report``);
    #: derived from ``report`` when omitted.
    canonical: Optional[dict] = None

    def canonical_dict(self) -> Optional[dict]:
        if self.canonical is not None:
            return self.canonical
        if self.report is not None:
            return canonical_from_report(self.report)
        return None


@dataclass
class ClusterReport:
    """A keyed set of shard reports with byte-stable exports."""

    shards: Dict[int, ShardReport] = field(default_factory=dict)

    # -- construction / merging -------------------------------------------
    def add(self, shard_report: ShardReport) -> None:
        if shard_report.shard in self.shards:
            raise ValueError(
                f"duplicate shard {shard_report.shard} in cluster report"
            )
        self.shards[shard_report.shard] = shard_report

    # -- derived -----------------------------------------------------------
    def _ordered(self) -> List[ShardReport]:
        return [self.shards[key] for key in sorted(self.shards)]

    @property
    def degraded(self) -> List[int]:
        return [s.shard for s in self._ordered() if s.status == SHARD_DEGRADED]

    def summary(self) -> dict:
        rows = self._ordered()
        reports = [s.report for s in rows if s.report is not None]
        summaries = [r["summary"] for r in reports]
        total_bytes = sum(s["bytes"] for s in summaries)
        times = [
            row["completion_s"]
            for report in reports
            for row in report["transfers"]
            if row["ok"] and row.get("completion_s") is not None
        ]
        # Shards run concurrently: the cluster makespan is the slowest
        # shard, and aggregate goodput is total bytes over that window.
        makespan = max((s["makespan_s"] for s in summaries), default=0.0)
        goodput = total_bytes / makespan if makespan > 0 else 0.0
        ok = sum(s["ok"] for s in summaries)
        return {
            "shards": len(rows),
            "degraded": len(self.degraded),
            "transfers": sum(s["transfers"] for s in summaries),
            "ok": ok,
            "failed": sum(s["failed"] for s in summaries),
            "rejected": sum(s["rejected"] for s in summaries),
            "bytes": total_bytes,
            "p50_completion_s": _r(percentile(times, 0.50)),
            "p99_completion_s": _r(percentile(times, 0.99)),
            "makespan_s": _r(makespan),
            "aggregate_goodput_bytes_per_s": _r(goodput),
            "per_stream_goodput_bytes_per_s": _r(goodput / ok if ok else 0.0),
        }

    def to_dict(self) -> dict:
        shard_rows = []
        for entry in self._ordered():
            row = {"shard": entry.shard, "status": entry.status}
            if entry.report is not None:
                summary = entry.report["summary"]
                row.update(
                    transfers=summary["transfers"], ok=summary["ok"],
                    failed=summary["failed"], rejected=summary["rejected"],
                    bytes=summary["bytes"],
                    makespan_s=summary["makespan_s"],
                )
            shard_rows.append(row)
        return {
            "schema_version": CLUSTER_SCHEMA_VERSION,
            "shards": shard_rows,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed rounding, sorted shards)."""
        return report_to_json(self.to_dict())

    # -- canonical projection ---------------------------------------------
    def canonical_dict(self) -> dict:
        """Merged substrate-independent outcome projection.

        Transfer rows deliberately carry no shard tag: under
        ``SO_REUSEPORT`` the kernel picks the shard, so tagging rows
        would make the projection placement-dependent.  Which streams
        finished, with how many bytes/packets, is placement-invariant —
        that is the fact this projection pins.
        """
        transfers: List[dict] = []
        rejections: List[dict] = []
        degraded = 0
        for entry in self._ordered():
            if entry.status == SHARD_DEGRADED:
                degraded += 1
            canonical = entry.canonical_dict()
            if canonical is None:
                continue
            transfers.extend(canonical["transfers"])
            rejections.extend(canonical["rejections"])
        transfers.sort(key=lambda row: row["stream"])
        rejections.sort(key=lambda row: row["stream"])
        ok = sum(1 for row in transfers if row["ok"])
        return {
            "summary": {
                "shards": len(self.shards),
                "degraded": degraded,
                "transfers": len(transfers),
                "ok": ok,
                "failed": len(transfers) - ok,
                "rejected": len(rejections),
                "bytes": sum(row["bytes"] for row in transfers if row["ok"]),
            },
            "transfers": transfers,
            "rejections": rejections,
        }

    def canonical_json(self) -> str:
        """Byte-stable JSON of :meth:`canonical_dict`."""
        return report_to_json(self.canonical_dict())


def merge_shards(shard_reports: Sequence[ShardReport]) -> ClusterReport:
    """Fold shard reports into one :class:`ClusterReport`.

    Order-invariant: the result is a keyed set, and every export sorts.
    """
    report = ClusterReport()
    for shard_report in shard_reports:
        report.add(shard_report)
    return report

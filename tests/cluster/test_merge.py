"""Property tests: the shard-report merge is order-invariant + associative."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterReport,
    ShardReport,
    canonical_from_report,
    merge_shards,
)

# -- synthetic shard reports -------------------------------------------------

def make_shard_report(shard: int, rows, rejections=(), status: str = "ok"):
    """Build a ServiceMetrics-shaped report dict for one shard.

    ``rows``: (stream, ok, bytes, completion_s) tuples with shard-unique
    stream ids (the generator assigns disjoint id ranges per shard).
    """
    transfers = [
        {
            "stream": stream,
            "client": f"client{stream:03d}",
            "ok": ok,
            "bytes": size if ok else 0,
            "packets": max(1, size // 1024) if ok else 0,
            "data_frames": max(1, size // 1024) if ok else 0,
            "retransmits": 0,
            "rounds": 1,
            "submitted_s": 0.0,
            "started_s": 0.0,
            "finished_s": completion,
            "completion_s": completion,
            "queue_wait_s": 0.0,
            "error": "" if ok else "stalled",
        }
        for stream, ok, size, completion in rows
    ]
    ok_rows = [r for r in transfers if r["ok"]]
    report = {
        "schema_version": 1,
        "config": {"protocol": "blast"},
        "summary": {
            "transfers": len(transfers),
            "ok": len(ok_rows),
            "failed": len(transfers) - len(ok_rows),
            "rejected": len(rejections),
            "bytes": sum(r["bytes"] for r in ok_rows),
            "data_frames": sum(r["data_frames"] for r in transfers),
            "retransmits": 0,
            "p50_completion_s": 0.0,
            "p99_completion_s": 0.0,
            "mean_completion_s": 0.0,
            "makespan_s": max(
                (r["completion_s"] for r in transfers), default=0.0
            ),
            "goodput_bytes_per_s": 0.0,
            "max_queue_depth": len(transfers),
        },
        "transfers": transfers,
        "rejections": [
            {"stream": stream, "client": f"client{stream:03d}",
             "reason": reason, "at_s": 0.0}
            for stream, reason in rejections
        ],
        "queue_depth": [],
    }
    return ShardReport(shard=shard, status=status, report=report,
                       canonical=canonical_from_report(report))


row_strategy = st.tuples(
    st.booleans(),                                  # ok
    st.integers(min_value=0, max_value=1 << 20),    # bytes
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),  # completion_s
)

shards_strategy = st.lists(
    st.lists(row_strategy, min_size=0, max_size=6),
    min_size=1, max_size=5,
)


def build_shards(shard_rows):
    """Assign disjoint global stream-id ranges across the shard specs."""
    reports = []
    next_stream = 1
    for shard, rows in enumerate(shard_rows):
        keyed = []
        for ok, size, completion in rows:
            keyed.append((next_stream, ok, size, completion))
            next_stream += 1
        reports.append(make_shard_report(shard, keyed))
    return reports


@settings(max_examples=60, deadline=None)
@given(shard_rows=shards_strategy, data=st.data())
def test_merge_is_order_invariant(shard_rows, data):
    reports = build_shards(shard_rows)
    shuffled = data.draw(st.permutations(reports))
    merged = merge_shards(reports)
    merged_shuffled = merge_shards(shuffled)
    assert merged.to_json() == merged_shuffled.to_json()
    assert merged.canonical_json() == merged_shuffled.canonical_json()


def test_duplicate_shard_is_rejected():
    a = make_shard_report(0, [(1, True, 1024, 0.5)])
    b = make_shard_report(0, [(2, True, 1024, 0.5)])
    with pytest.raises(ValueError, match="duplicate shard"):
        merge_shards([a, b])


def test_summary_aggregates_counts_and_percentiles():
    shards = build_shards([
        [(True, 1024, 0.25), (True, 2048, 0.5)],
        [(True, 4096, 1.0), (False, 512, 2.0)],
    ])
    summary = merge_shards(shards).summary()
    assert summary["shards"] == 2
    assert summary["transfers"] == 4
    assert summary["ok"] == 3
    assert summary["failed"] == 1
    assert summary["bytes"] == 1024 + 2048 + 4096
    # Makespan is the slowest shard; percentiles pool ok completions.
    assert summary["makespan_s"] == 2.0
    assert summary["p50_completion_s"] == 0.5
    assert summary["p99_completion_s"] == 1.0


def test_degraded_shard_is_counted_but_not_summed():
    healthy = make_shard_report(0, [(1, True, 1024, 0.5)])
    dead = ShardReport(shard=1, status="degraded")
    report = merge_shards([healthy, dead])
    summary = report.summary()
    assert summary["degraded"] == 1
    assert summary["ok"] == 1
    rows = report.to_dict()["shards"]
    assert rows[1] == {"shard": 1, "status": "degraded"}
    assert report.canonical_dict()["summary"]["degraded"] == 1


def test_cluster_report_json_is_loadable_and_versioned():
    report = merge_shards(build_shards([[(True, 1024, 0.5)]]))
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 1
    assert ClusterReport().to_dict()["summary"]["shards"] == 0

"""The registry, and the committed BENCHMARK.json, meet the contract."""

import json
import os
import re

from layerbench import spec
from layerbench.child import REPO_ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

ISSUE_WORKLOADS = ["udp_bulk_blast", "udp_bulk_sliding", "udp_many_small",
                   "des_service", "des_transfer"]
ISSUE_END_TO_END = ["goodput_mib_s", "completion_p50_ms",
                    "completion_p90_ms", "server_cpu_ms_per_mib",
                    "kframes_per_s", "peak_rss_mib", "setup_s"]
ISSUE_PER_LAYER = """
wire.encode_into_us wire.decode_us iobatch.send_frame_self_us
iobatch.recv_batch_self_us_per_dgram iobatch.dgrams_per_recv_batch
iobatch.send_drops udpservice.loop_self_us_per_dgram
udpservice.select_wait_share udpservice.wakeups_per_kdgram
engine.on_frame_self_us engine.drain_sends_self_us_per_frame
engine.next_deadline_us engine.queue_wait_p50_ms engine.max_queue_depth
scheduler.grants_us_per_call scheduler.frames_per_grant_call
machines.next_frame_us machines.on_frame_us machines.retransmit_share
machines.rounds_mean metrics.events_us_per_stream server.cpu_util
server.sys_cpu_share server.cpu_us_per_dgram clientpump.cpu_us_per_dgram
clientpump.cpu_util clientpump.on_readable_us_per_dgram
clientpump.completion_p99_ms sim.event_us sim.process_resume_us
simnet.frame_us simservice.self_us_per_frame core.saw_us_per_frame
core.sliding_us_per_frame core.blast_us_per_frame trace.overhead_share
failed_share
""".split()


def test_every_named_workload_and_metric_is_registered():
    assert [w.name for w in spec.WORKLOADS] == ISSUE_WORKLOADS
    assert set(ISSUE_END_TO_END) == set(spec.names(spec.END_TO_END))
    assert set(ISSUE_PER_LAYER) <= set(spec.names(spec.PER_LAYER))


def test_names_units_and_counts_are_within_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    every = ([w.name for w in spec.WORKLOADS] + spec.names(spec.END_TO_END)
             + spec.names(spec.PER_LAYER))
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("higher", "lower")
    for metric in spec.END_TO_END:
        assert 0 < metric.bound <= 0.25
    for item in spec.WORKLOADS:
        assert "\n" not in item.why and len(item.why) <= 200


def test_setup_s_is_present_with_the_largest_bound():
    setup = {m.name: m for m in spec.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_committed_manifest_is_the_registry():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.manifest()
    assert committed["paths"] == ["layerbench"]
    assert set(committed) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert isinstance(committed["run_seconds"], int)
    assert 1 <= committed["run_seconds"] <= 60
    runs = 4 + 22 * len(committed["workloads"])
    # Room for set-ups and teardown on top of the measuring time.
    assert runs * (committed["run_seconds"] + 10) <= 3420

"""Multi-process cluster coordinator: loopback runs, failure handling.

The acceptance run is a 2-worker loopback cluster with 8 clients under
the builtin ``dup+reorder`` fault plan — every payload byte-verified
client-side, merged canonical report byte-identical across runs.  The
failure tests kill a worker mid-serve and pin the degraded/restart
contract: the merged report must say what happened instead of hanging.
"""

import json

import pytest

from repro.cluster import (
    ClusterCoordinator,
    reuseport_available,
    run_udp_cluster,
)
from repro.faults.plans import builtin_plan
from repro.service.clientpump import UdpClientPump
from repro.service.engine import ServiceConfig


def _config(**overrides):
    defaults = dict(protocol="sliding", policy="rr",
                    max_active=8, max_queue=64)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestClusterLoadgen:
    def test_8_clients_verified_under_dup_reorder(self):
        # Acceptance: per-shard payload verification passes with every
        # shard replaying the dup+reorder plan (seed mixed per shard).
        result = run_udp_cluster(
            workers=2, clients=8, config=_config(),
            fault_plan=builtin_plan("dup+reorder"), fault_seed=11,
            size_bytes=8192, duration_s=45.0,
        )
        assert result.all_ok, {
            s: (p.status, p.error)
            for s, p in result.pulls.items() if not p.ok
        }
        summary = result.report.summary()
        assert summary["shards"] == 2
        assert summary["ok"] == 8 and summary["failed"] == 0
        canonical = result.report.canonical_dict()
        assert [t["stream"] for t in canonical["transfers"]] \
            == list(range(1, 9))

    def test_merged_canonical_report_is_byte_identical_across_runs(self):
        runs = [
            run_udp_cluster(workers=2, clients=8, config=_config(),
                            size_bytes=4096, duration_s=30.0)
            for _ in range(2)
        ]
        assert all(run.all_ok for run in runs)
        assert runs[0].report.canonical_json() \
            == runs[1].report.canonical_json()
        payload = json.loads(runs[0].report.to_json())
        assert payload["schema_version"] == 1

    @pytest.mark.skipif(not reuseport_available(),
                        reason="SO_REUSEPORT not available")
    def test_reuseport_placement_serves_all_clients(self):
        result = run_udp_cluster(
            workers=2, clients=8, config=_config(),
            placement="reuseport", size_bytes=4096, duration_s=30.0,
        )
        assert result.all_ok
        assert result.placement == "reuseport"
        assert result.report.summary()["ok"] == 8


class TestFailureHandling:
    def test_killed_worker_marks_shard_degraded(self):
        # SIGKILL leaves no time to flush a report; with no restart
        # budget the shard must be marked degraded, not hang collection.
        coordinator = ClusterCoordinator(
            2, config=_config(), duration_s=30.0, restart_limit=0)
        with coordinator:
            victim = coordinator._handles[0]
            victim.process.kill()
            victim.process.join(timeout=10.0)
            acted = coordinator.check_workers()
            assert acted == [0]
            coordinator.stop()
            report = coordinator.report()
        summary = report.summary()
        assert summary["shards"] == 2 and summary["degraded"] == 1
        statuses = [row["status"] for row in report.to_dict()["shards"]]
        assert statuses == ["degraded", "ok"]

    def test_dead_worker_restarts_once_on_same_port(self):
        coordinator = ClusterCoordinator(
            2, config=_config(), duration_s=30.0, restart_limit=1)
        with coordinator:
            old_address = coordinator._handles[0].address
            coordinator._handles[0].process.kill()
            coordinator._handles[0].process.join(timeout=10.0)
            assert coordinator.check_workers() == [0]
            replacement = coordinator._handles[0]
            assert replacement.status == "restarted"
            assert replacement.restarts == 1
            # Same port: hash-placement clients reach the shard without
            # re-resolving addresses.
            assert replacement.address == old_address
            pull = UdpClientPump(replacement.address, [4096],
                                 protocol="sliding").run()[1]
            assert pull.ok
            coordinator.stop()
            report = coordinator.report()
        statuses = [row["status"] for row in report.to_dict()["shards"]]
        assert statuses == ["restarted", "ok"]
        assert report.summary()["degraded"] == 0
        assert report.summary()["ok"] == 1

    def test_restart_budget_exhausted_degrades(self):
        coordinator = ClusterCoordinator(
            1, config=_config(), duration_s=30.0, restart_limit=1)
        with coordinator:
            for expected_status in ("restarted", "degraded"):
                handle = coordinator._handles[0]
                handle.process.kill()
                handle.process.join(timeout=10.0)
                assert coordinator.check_workers() == [0]
                assert coordinator._handles[0].status == expected_status
            coordinator.stop()
            report = coordinator.report()
        assert report.summary()["degraded"] == 1


class TestGracefulShutdown:
    def test_sigterm_yields_final_reports_without_duration(self):
        # Workers serve with no duration cap; stop() SIGTERMs them and
        # every shard must still flush its final metrics report — the
        # graceful-shutdown contract.
        coordinator = ClusterCoordinator(
            2, config=_config(), duration_s=None, restart_limit=0)
        with coordinator:
            pull = UdpClientPump(coordinator.addresses[0], [4096],
                                 protocol="sliding").run()[1]
            assert pull.ok
            coordinator.stop()
            report = coordinator.report()
        summary = report.summary()
        assert summary["degraded"] == 0
        assert summary["shards"] == 2
        assert summary["ok"] == 1
        # Both shards flushed real reports (the idle one counts zero).
        assert all(row["status"] == "ok"
                   for row in report.to_dict()["shards"])

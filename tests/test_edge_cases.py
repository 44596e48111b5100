"""Edge-case coverage across packages: error paths, guards, accessors."""

import pytest

from repro.core import MultiBlastTransfer, StopAndWaitTransfer, run_many, run_transfer
from repro.sim import Environment
from repro.simnet import NetworkParams, TraceRecorder, make_lan


class TestTransferLifecycle:
    def test_double_launch_rejected(self):
        env = Environment()
        sender, receiver, _ = make_lan(env)
        transfer = StopAndWaitTransfer(env, sender, receiver, b"x")
        transfer.launch()
        with pytest.raises(RuntimeError, match="already launched"):
            transfer.launch()

    def test_result_before_completion_rejected(self):
        env = Environment()
        sender, receiver, _ = make_lan(env)
        transfer = StopAndWaitTransfer(env, sender, receiver, b"x")
        with pytest.raises(RuntimeError, match="not completed"):
            transfer.result()

    def test_run_equals_launch_plus_result(self):
        data = bytes(4 * 1024)
        via_run = run_transfer("blast", data)
        env = Environment()
        sender, receiver, _ = make_lan(env)
        from repro.core import BlastTransfer

        transfer = BlastTransfer(env, sender, receiver, data)
        env.run(transfer.launch())
        via_launch = transfer.result()
        assert via_launch.elapsed_s == pytest.approx(via_run.elapsed_s, rel=1e-12)

    def test_invalid_timeout_rejected(self):
        env = Environment()
        sender, receiver, _ = make_lan(env)
        with pytest.raises(ValueError, match="timeout_s"):
            StopAndWaitTransfer(env, sender, receiver, b"x", timeout_s=0)

    def test_multiblast_n_blasts(self):
        env = Environment()
        sender, receiver, _ = make_lan(env)
        transfer = MultiBlastTransfer(
            env, sender, receiver, bytes(10 * 1024), blast_packets=4
        )
        assert transfer.n_blasts == 3

    def test_saw_has_no_strategy(self):
        result = run_transfer("stop_and_wait", b"x")
        assert result.strategy is None


class TestHostAccessors:
    def test_cpu_busy_time_requires_trace(self):
        env = Environment()
        sender, _, _ = make_lan(env)
        with pytest.raises(RuntimeError, match="without a trace"):
            _ = sender.cpu_busy_time

    def test_cpu_busy_time_with_trace(self):
        env = Environment()
        trace = TraceRecorder()
        sender, receiver, _ = make_lan(env, trace=trace)
        from repro.core import BlastTransfer

        transfer = BlastTransfer(env, sender, receiver, bytes(2 * 1024))
        env.run(transfer.launch())
        params = sender.params
        expected = 2 * params.copy_data_s + params.copy_ack_s
        assert sender.cpu_busy_time == pytest.approx(expected, rel=1e-9)

    def test_send_without_peer_or_dst_rejected(self):
        from repro.simnet import Medium, Host
        from repro.core import DataFrame

        env = Environment()
        params = NetworkParams.standalone()
        medium = Medium(env, params)
        host = Host(env, "lonely", params, medium)

        def body():
            yield from host.send(DataFrame(1, 0, 1, b"x"))

        proc = env.process(body())
        with pytest.raises(RuntimeError, match="no destination"):
            env.run(proc)


class TestParamsGuards:
    def test_scaled_technology_validation(self):
        with pytest.raises(ValueError):
            NetworkParams.standalone().scaled_technology(cpu_factor=0)
        with pytest.raises(ValueError):
            NetworkParams.standalone().scaled_technology(wire_factor=-1)

    def test_with_copy_overhead_validation(self):
        with pytest.raises(ValueError):
            NetworkParams.standalone().with_copy_overhead(-1e-3)

    def test_copy_time_zero_bytes(self):
        params = NetworkParams.standalone()
        assert params.copy_model.copy_time(0) == params.copy_model.setup_s


class TestRunnerGuards:
    def test_run_many_validation(self):
        with pytest.raises(ValueError, match="n_runs"):
            run_many("blast", b"x", error_p=0.0, n_runs=0)

    def test_run_many_summary_fields(self):
        summary = run_many("blast", bytes(2048), error_p=0.0, n_runs=3, seed=1)
        assert summary.n_runs == 3
        assert summary.std_s == 0.0  # deterministic when error-free
        assert summary.min_s == summary.max_s == summary.mean_s
        assert summary.all_intact

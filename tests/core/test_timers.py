"""Tests for the adaptive retransmission timer."""

import pytest

from repro.congestion.controller import UNBOUNDED_WINDOW
from repro.core import AdaptiveTimeout
from repro.core.timers import BACKOFF, K, MAX_RTO_S, MIN_RTO_S


class TestFixedTimeout:
    """The paper's constant T_r is ``timeout_s=``: a fixed controller."""

    def test_constant(self):
        from repro.core import BlastTransfer
        from repro.sim import Environment
        from repro.simnet import make_lan

        env = Environment()
        sender, receiver, _ = make_lan(env)
        transfer = BlastTransfer(env, sender, receiver, bytes(1024),
                                 timeout_s=0.5)
        controller = transfer._sender_machine.controller
        assert controller.rto() == 0.5
        controller.on_rtt_sample(0.1)
        controller.on_timeout()
        assert controller.rto() == 0.5  # fixed means fixed

    def test_validation(self):
        from repro.core import run_transfer

        with pytest.raises(ValueError):
            run_transfer("blast", bytes(1024), timeout_s=0.0)


class TestAdaptiveTimeout:
    def test_initial_value_respected(self):
        assert AdaptiveTimeout(initial_s=2.0).rto() == 2.0

    def test_window_never_closes(self):
        timer = AdaptiveTimeout()
        timer.on_timeout()
        assert timer.window() == UNBOUNDED_WINDOW
        assert timer.snapshot() is None  # reports keep the fixed format

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTimeout(initial_s=0)
        with pytest.raises(ValueError):
            AdaptiveTimeout().on_rtt_sample(-1.0)

    def test_first_sample_initialises_rfc6298(self):
        timer = AdaptiveTimeout(initial_s=10.0)
        timer.on_rtt_sample(0.1)
        assert timer.srtt == pytest.approx(0.1)
        assert timer.rttvar == pytest.approx(0.05)
        assert timer.rto() == pytest.approx(0.1 + K * 0.05)

    def test_converges_on_steady_rtt(self):
        timer = AdaptiveTimeout(initial_s=10.0)
        for _ in range(100):
            timer.on_rtt_sample(0.05)
        # Variance decays to ~0, RTO approaches the true RTT.
        assert timer.rto() == pytest.approx(0.05, rel=0.05)

    def test_variance_widens_rto(self):
        steady = AdaptiveTimeout(initial_s=1.0)
        jittery = AdaptiveTimeout(initial_s=1.0)
        for index in range(100):
            steady.on_rtt_sample(0.05)
            jittery.on_rtt_sample(0.05 if index % 2 else 0.15)
        assert jittery.rto() > steady.rto()

    def test_backoff_on_timeout(self):
        timer = AdaptiveTimeout(initial_s=0.1)
        timer.on_timeout()
        assert timer.rto() == pytest.approx(0.1 * BACKOFF)
        for _ in range(20):
            timer.on_timeout()
        assert timer.rto() == MAX_RTO_S  # 0.1 * 2**21 s, clamped
        assert timer.expirations == 21

    def test_bounds_clamp(self):
        timer = AdaptiveTimeout(initial_s=1.0)
        timer.on_rtt_sample(1e-6)
        assert timer.rto() >= MIN_RTO_S
        for _ in range(50):
            timer.on_rtt_sample(100.0)
        assert timer.rto() <= MAX_RTO_S
        assert AdaptiveTimeout(initial_s=1e-9).rto() == MIN_RTO_S
        assert AdaptiveTimeout(initial_s=1e3).rto() == MAX_RTO_S


class TestAdaptiveInBlastEngine:
    def test_policy_reused_across_transfers_converges(self):
        """A long-lived sender with a terrible initial guess pays once,
        then runs at the error-free time."""
        from repro.analysis import t_blast
        from repro.core import BlastTransfer
        from repro.sim import Environment
        from repro.simnet import NetworkParams, make_lan

        timer = AdaptiveTimeout(initial_s=5.0)
        params = NetworkParams.standalone()
        env = Environment()
        sender, receiver, _ = make_lan(env, params)
        elapsed = []

        def run_all():
            for index in range(5):
                transfer = BlastTransfer(
                    env, sender, receiver, bytes(16 * 1024),
                    strategy="full_nak", transfer_id=index + 1,
                    timeout_policy=timer,
                )
                start = env.now
                yield transfer.launch()
                elapsed.append(env.now - start)

        env.run(env.process(run_all()))
        t0 = t_blast(16, params)
        assert all(t == pytest.approx(t0, rel=0.01) for t in elapsed)
        assert timer.samples == 5
        assert timer.rto() < 2 * t0

    def test_adaptive_in_stop_and_wait(self):
        """SAW samples every clean packet exchange, so the estimate
        converges *within* one multi-packet transfer."""
        from repro.analysis import t_single_exchange, t_stop_and_wait
        from repro.core import run_transfer
        from repro.simnet import NetworkParams

        params = NetworkParams.standalone()
        timer = AdaptiveTimeout(initial_s=1.0)
        result = run_transfer(
            "stop_and_wait", bytes(32 * 1024), params=params,
            timeout_policy=timer,
        )
        assert result.data_intact
        # Error-free: the bad initial RTO never fires, elapsed is exact.
        assert result.elapsed_s == pytest.approx(t_stop_and_wait(32, params))
        assert timer.samples == 32
        assert timer.srtt == pytest.approx(t_single_exchange(params), rel=0.01)

    def test_adaptive_recovers_from_loss(self):
        from repro.core import run_transfer
        from repro.simnet import DeterministicDrops, NetworkParams

        result = run_transfer(
            "blast", bytes(8 * 1024), params=NetworkParams.standalone(),
            strategy="full_no_nak", error_model=DeterministicDrops([2]),
            timeout_policy=AdaptiveTimeout(initial_s=0.05),
        )
        assert result.data_intact
        assert result.stats.timeouts == 1

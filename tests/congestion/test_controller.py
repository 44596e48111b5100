"""Unit tests for the controller seam, the tuner, and Jain's index."""

import pytest

from repro.congestion import (
    AutoTuner,
    CONTROLLER_NAMES,
    FixedController,
    RenoController,
    jain_index,
    make_controller,
)
from repro.congestion.controller import UNBOUNDED_WINDOW
from repro.congestion.reno import CONGESTION_AVOIDANCE, FAST_RECOVERY


class TestFixedController:
    def test_reproduces_the_papers_discipline(self):
        controller = FixedController(0.05)
        assert controller.window() == UNBOUNDED_WINDOW
        assert controller.rto() == 0.05
        # Every event is a no-op: the numbers never move.
        controller.on_ack(5)
        assert controller.on_dup_ack() is False
        controller.on_loss()
        controller.on_timeout()
        controller.on_rtt_sample(0.001)
        assert controller.window() == UNBOUNDED_WINDOW
        assert controller.rto() == 0.05
        assert controller.snapshot() is None

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            FixedController(0.0)


class TestMakeController:
    def test_names(self):
        assert make_controller("fixed", 0.05).name == "fixed"
        assert make_controller("reno", 0.05).name == "reno"
        assert "auto" in CONTROLLER_NAMES  # resolved by the tuner, not here
        with pytest.raises(ValueError):
            make_controller("auto", 0.05)
        with pytest.raises(ValueError):
            make_controller("vegas", 0.05)


class TestRenoEventChoreography:
    def test_third_dup_ack_fires_fast_retransmit_once(self):
        controller = RenoController(timeout_s=0.05)
        controller.on_ack(newly_acked=10)  # open the window a bit
        assert controller.on_dup_ack() is False
        assert controller.on_dup_ack() is False
        assert controller.on_dup_ack() is True  # third dup: retransmit
        assert controller.state == FAST_RECOVERY
        # Further duplicates inflate, never re-fire.
        assert controller.on_dup_ack() is False
        inflated = controller.cwnd
        assert controller.on_dup_ack() is False
        assert controller.cwnd == inflated + 1.0

    def test_new_ack_deflates_recovery(self):
        controller = RenoController(timeout_s=0.05)
        controller.on_ack(newly_acked=10)
        for _ in range(3):
            controller.on_dup_ack()
        assert controller.state == FAST_RECOVERY
        controller.on_ack()
        assert controller.state == CONGESTION_AVOIDANCE
        assert controller.cwnd == controller.ssthresh

    def test_nak_loss_is_multiplicative_decrease(self):
        controller = RenoController(timeout_s=0.05)
        controller.on_ack(newly_acked=20)
        cwnd = controller.cwnd
        controller.on_loss()
        assert controller.ssthresh == pytest.approx(max(cwnd / 2.0, 2.0))
        assert controller.cwnd == controller.ssthresh
        assert controller.state == CONGESTION_AVOIDANCE


class TestAutoTuner:
    def test_clean_network_keeps_the_papers_choice(self):
        tuner = AutoTuner(packet_bytes=1024)
        choice = tuner.choose(64 * 1024)
        assert (choice.protocol, choice.congestion) == ("blast", "fixed")

    def test_single_packet_takes_stop_and_wait(self):
        tuner = AutoTuner(packet_bytes=1024)
        assert tuner.choose(512).protocol == "saw"

    def test_measured_loss_flips_to_reno_sliding(self):
        tuner = AutoTuner(packet_bytes=1024)
        tuner.observe(data_frames_sent=100, retransmits=10)  # 10% loss
        choice = tuner.choose(64 * 1024)
        assert choice == (choice.__class__(
            protocol="sliding", window=tuner.window, congestion="reno"))

    def test_ewma_recovers_after_clean_history(self):
        tuner = AutoTuner(packet_bytes=1024, gain=0.5)
        tuner.observe(100, 10)
        assert tuner.choose(64 * 1024).protocol == "sliding"
        for _ in range(8):
            tuner.observe(100, 0)
        assert tuner.loss_estimate < tuner.lossy_threshold
        assert tuner.choose(64 * 1024).protocol == "blast"

    def test_first_observation_replaces_the_prior(self):
        tuner = AutoTuner(packet_bytes=1024, initial_loss=0.5)
        tuner.observe(100, 0)
        assert tuner.loss_estimate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoTuner(packet_bytes=0)
        with pytest.raises(ValueError):
            AutoTuner(packet_bytes=1024, gain=0.0)
        with pytest.raises(ValueError):
            AutoTuner(packet_bytes=1024, lossy_threshold=1.0)


class TestJainIndex:
    def test_equal_shares_score_one(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

"""Tests for the background-load (contention) extension."""

import pytest

from repro.core import BlastTransfer, run_transfer
from repro.sim import Environment
from repro.simnet import BackgroundLoad, NetworkParams, make_lan


def run_blast_under_load(load, n_packets=16, seed=1):
    env = Environment()
    sender, receiver, medium = make_lan(env, NetworkParams.standalone())
    background = BackgroundLoad(env, medium, load, seed=seed)
    transfer = BlastTransfer(env, sender, receiver, bytes(n_packets * 1024))
    env.run(transfer.launch())
    return transfer.result(), background


class TestBackgroundLoad:
    def test_validation(self):
        env = Environment()
        _, _, medium = make_lan(env)
        with pytest.raises(ValueError):
            BackgroundLoad(env, medium, offered_load=1.0)
        with pytest.raises(ValueError):
            BackgroundLoad(env, medium, offered_load=-0.1)

    def test_zero_load_is_inert(self):
        result, background = run_blast_under_load(0.0)
        reference = run_transfer("blast", bytes(16 * 1024))
        assert result.elapsed_s == pytest.approx(reference.elapsed_s, rel=1e-12)
        assert background.frames_sent == 0

    def test_utilization_tracks_offered_load_when_alone(self):
        """With no foreground traffic the wire busy fraction matches."""
        env = Environment()
        _, _, medium = make_lan(env, NetworkParams.standalone())
        background = BackgroundLoad(env, medium, 0.4, seed=7)
        env.run(until=10.0)
        assert background.utilization() == pytest.approx(0.4, abs=0.05)

    def test_transfer_slows_under_load_but_survives(self):
        idle, _ = run_blast_under_load(0.0)
        loaded, background = run_blast_under_load(0.6, seed=3)
        assert loaded.data_intact
        assert loaded.elapsed_s > idle.elapsed_s
        assert background.frames_sent > 0

    def test_elapsed_monotone_in_load(self):
        times = [run_blast_under_load(load, seed=5)[0].elapsed_s
                 for load in (0.0, 0.3, 0.6)]
        assert times == sorted(times)

    def test_deterministic_given_seed(self):
        a, _ = run_blast_under_load(0.5, seed=11)
        b, _ = run_blast_under_load(0.5, seed=11)
        assert a.elapsed_s == b.elapsed_s

    def test_degradation_is_bounded_by_wire_share(self):
        """The paper's protocols are copy-bound (wire ~38 % utilised), so
        even heavy cross traffic degrades blast far less than 1/(1-load)."""
        idle, _ = run_blast_under_load(0.0)
        loaded, _ = run_blast_under_load(0.8, seed=13)
        assert loaded.elapsed_s < idle.elapsed_s * 1.5

"""Tests for the whole-segment software checksum extension.

The paper's related work (Spector) suggests "an overall software
checksum on the entire data segment"; these tests exercise the hazard it
protects against (silent interface corruption past the link CRC) and the
protection itself.
"""

import pytest

from repro.core import run_transfer
from repro.core.base import CHECKSUM_BYTES_PER_S
from repro.simnet import (
    BernoulliErrors,
    CompositeErrors,
    NetworkParams,
    SilentCorruption,
    TraceRecorder,
)

DATA = bytes(range(256)) * 64  # 16 KB
PARAMS = NetworkParams.standalone()


class TestSilentCorruptionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SilentCorruption(1.5)

    def test_never_drops(self):
        model = SilentCorruption(1.0, seed=1)
        assert not any(model.drops(None) for _ in range(100))
        assert all(model.corrupts(None) for _ in range(100))

    def test_medium_counts_corrupted_frames(self):
        trace = TraceRecorder()
        from repro.sim import Environment
        from repro.simnet import make_lan
        from repro.core import BlastTransfer

        env = Environment()
        sender, receiver, medium = make_lan(
            env, PARAMS, error_model=SilentCorruption(1.0, seed=3), trace=trace
        )
        # With p=1 every ack is corrupted too (= lost), so the transfer
        # cannot complete; cap the rounds and inspect the counters.
        transfer = BlastTransfer(
            env, sender, receiver, bytes(2 * 1024), max_rounds=3
        )
        with pytest.raises(RuntimeError):
            env.run(transfer.launch())
        assert medium.frames_corrupted >= 2  # the data frames, each round
        corrupt_spans = [s for s in trace.spans if s.kind == "corrupt"]
        assert len(corrupt_spans) == medium.frames_corrupted

    def test_corrupted_ack_becomes_a_loss(self):
        """Control frames have no payload to damage silently; corruption
        makes them garbage, i.e. indistinguishable from loss."""
        from repro.sim import Environment
        from repro.simnet import make_lan
        from repro.core import BlastTransfer

        env = Environment()
        # Corrupt everything: data frames arrive damaged, acks are lost.
        sender, receiver, medium = make_lan(
            env, PARAMS, error_model=SilentCorruption(1.0, seed=4)
        )
        transfer = BlastTransfer(
            env, sender, receiver, bytes(1024), strategy="gobackn",
            max_rounds=5,
        )
        done = transfer.launch()
        with pytest.raises(RuntimeError):
            env.run(done)
        assert medium.frames_dropped > 0  # the corrupted replies


class TestChecksumProtection:
    def test_corruption_without_checksum_goes_undetected(self):
        """The hazard: the transfer 'succeeds' but the data is wrong."""
        result = run_transfer(
            "blast", DATA, params=PARAMS, strategy="gobackn",
            error_model=SilentCorruption(0.1, seed=4),
        )
        assert not result.data_intact          # silently wrong!
        assert result.stats.rounds == 1        # and nobody noticed

    def test_checksum_detects_and_repairs(self):
        result = run_transfer(
            "blast", DATA, params=PARAMS, strategy="gobackn",
            error_model=SilentCorruption(0.1, seed=4),
            verify_checksum=True,
        )
        assert result.data_intact
        assert result.stats.rounds > 1  # corruption forced retransmission

    def test_checksum_with_timer_only_strategy(self):
        """Without NAKs the checksum failure surfaces via sender timeout."""
        result = run_transfer(
            "blast", DATA, params=PARAMS, strategy="full_no_nak",
            error_model=SilentCorruption(0.05, seed=6),
            verify_checksum=True,
        )
        assert result.data_intact
        assert result.stats.timeouts >= 1

    def test_checksum_free_when_data_clean(self):
        result = run_transfer("blast", DATA, params=PARAMS, verify_checksum=True)
        assert result.data_intact
        assert result.stats.rounds == 1

    def test_checksum_costs_cpu_time(self):
        plain = run_transfer("blast", DATA, params=PARAMS).elapsed_s
        checked = run_transfer(
            "blast", DATA, params=PARAMS, verify_checksum=True,
        ).elapsed_s
        # Sender + receiver each checksum 16 KB at 2 MB/s ~ 8.2 ms each.
        assert checked - plain == pytest.approx(
            2 * len(DATA) / CHECKSUM_BYTES_PER_S, rel=0.05)

    def test_checksum_with_loss_and_corruption_combined(self):
        model = CompositeErrors([
            BernoulliErrors(0.02, seed=7),
            SilentCorruption(0.02, seed=8),
        ])
        result = run_transfer(
            "blast", DATA, params=PARAMS, strategy="selective",
            error_model=model, verify_checksum=True,
        )
        assert result.data_intact

"""Unit tests for reassemble and TransferResult."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransferResult, TransferStats, reassemble
from repro.core.base import chunk_payload


class TestReassemble:
    def test_roundtrip(self):
        data = bytes(range(256)) * 17
        chunks = chunk_payload(data, 100)
        assert reassemble(dict(enumerate(chunks)), len(chunks)) == data

    def test_missing_packet_rejected(self):
        with pytest.raises(ValueError, match="missing packets"):
            reassemble({0: b"a", 2: b"c"}, 3)

    def test_extra_packet_rejected(self):
        with pytest.raises(ValueError):
            reassemble({0: b"a", 1: b"b"}, 1)

    @given(data=st.binary(max_size=5000), packet=st.integers(1, 700))
    @settings(max_examples=100)
    def test_packetize_reassemble_inverse(self, data, packet):
        chunks = chunk_payload(data, packet)
        assert reassemble(dict(enumerate(chunks)), len(chunks)) == data
        # Size invariant: no bytes created or lost.
        assert sum(len(chunk) for chunk in chunks) == len(data)


class TestTransferResult:
    def _result(self, **overrides):
        defaults = dict(
            protocol="blast",
            strategy="gobackn",
            ok=True,
            elapsed_s=0.1,
            n_packets=64,
            payload_bytes=64 * 1024,
            data=b"",
            data_intact=True,
            stats=TransferStats(data_frames_sent=64),
        )
        defaults.update(overrides)
        return TransferResult(**defaults)

    def test_throughput(self):
        result = self._result(elapsed_s=1.0, payload_bytes=1_000_000)
        assert result.throughput_bps == pytest.approx(8e6)

    def test_throughput_zero_elapsed(self):
        assert self._result(elapsed_s=0.0).throughput_bps == float("inf")

    def test_goodput_fraction_perfect(self):
        assert self._result().goodput_fraction == 1.0

    def test_goodput_fraction_with_retransmissions(self):
        result = self._result(stats=TransferStats(data_frames_sent=128))
        assert result.goodput_fraction == 0.5

    def test_goodput_fraction_no_frames(self):
        assert self._result(stats=TransferStats()).goodput_fraction == 0.0

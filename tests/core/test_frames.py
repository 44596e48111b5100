"""Unit tests for frame types."""

import pytest

from repro.core import AckFrame, DataFrame, FrameKind, NakFrame


class TestDataFrame:
    def test_wire_bytes_defaults_to_payload_length(self):
        frame = DataFrame(transfer_id=1, seq=0, total=4, payload=b"x" * 100)
        assert frame.wire_bytes == 100

    def test_explicit_wire_bytes(self):
        frame = DataFrame(1, 0, 1, b"abc", wire_bytes=1024)
        assert frame.wire_bytes == 1024

    def test_seq_range_validation(self):
        with pytest.raises(ValueError):
            DataFrame(1, 4, 4, b"")
        with pytest.raises(ValueError):
            DataFrame(1, -1, 4, b"")
        with pytest.raises(ValueError):
            DataFrame(1, 0, 0, b"")

    def test_kind(self):
        assert DataFrame(1, 0, 1, b"").kind is FrameKind.DATA

    def test_frozen(self):
        frame = DataFrame(1, 0, 1, b"")
        with pytest.raises(AttributeError):
            frame.seq = 5  # type: ignore[misc]


class TestAckFrame:
    def test_kind_and_fields(self):
        ack = AckFrame(transfer_id=7, seq=3)
        assert ack.kind is FrameKind.ACK
        assert ack.wire_bytes == 64  # paper's ack size by default

    def test_validation(self):
        with pytest.raises(ValueError):
            AckFrame(1, seq=-1)
        with pytest.raises(ValueError):
            AckFrame(1, seq=0, wire_bytes=-1)


class TestNakFrame:
    def test_valid_nak(self):
        nak = NakFrame(1, first_missing=2, missing=(2, 5), total=8)
        assert nak.kind is FrameKind.NAK

    def test_empty_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=0, missing=(), total=4)

    def test_inconsistent_first_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=1, missing=(2, 5), total=8)

    def test_unsorted_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=5, missing=(5, 2), total=8)

    def test_duplicate_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=2, missing=(2, 2), total=8)

    def test_out_of_range_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=2, missing=(2, 8), total=8)

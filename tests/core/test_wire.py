"""Unit and property tests for the byte-level wire format."""

import mmap
import struct
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AckFrame, ControlFrame, DataFrame, NakFrame, WireError, decode, encode
from repro.core.frames import FrameKind
from repro.core.wire import (
    HEADER2_BYTES,
    HEADER_BYTES,
    _bitmap_from_missing,
    _missing_from_bitmap,
    decode_data_run,
    encode_into,
    encode_run_into,
    peek,
)

#: One frame per kind in both wire versions, plus bitmap/payload edges —
#: the corpus every encode_into equivalence assertion runs over.
CANONICAL_FRAMES = [
    DataFrame(7, 3, 10, b"hello world", wants_reply=True),
    DataFrame(1, 0, 1, b""),  # empty payload
    DataFrame(7, 3, 10, b"hello", stream_id=42),
    DataFrame(2**32 - 1, 299, 300, b"x" * 1500, stream_id=2**32 - 1),
    AckFrame(9, seq=63),
    AckFrame(7, seq=3, stream_id=9),
    NakFrame(5, first_missing=1, missing=(1, 3, 62), total=64),
    NakFrame(3, first_missing=0, missing=tuple(range(512)), total=512),
    NakFrame(7, first_missing=1, missing=(1, 4), total=10, stream_id=9),
    ControlFrame(4, request_id=2, body=b'{"op": "pull"}'),
    ControlFrame(7, request_id=2, body=b"{}", stream_id=9),
]


class TestRoundTrips:
    def test_data_frame(self):
        frame = DataFrame(7, 3, 10, b"hello world", wants_reply=True)
        decoded = decode(encode(frame))
        assert isinstance(decoded, DataFrame)
        assert decoded.transfer_id == 7
        assert decoded.seq == 3
        assert decoded.total == 10
        assert decoded.payload == b"hello world"
        assert decoded.wants_reply

    def test_ack_frame(self):
        decoded = decode(encode(AckFrame(9, seq=63)))
        assert isinstance(decoded, AckFrame)
        assert decoded.transfer_id == 9
        assert decoded.seq == 63

    def test_nak_frame(self):
        nak = NakFrame(5, first_missing=1, missing=(1, 3, 62), total=64)
        decoded = decode(encode(nak))
        assert isinstance(decoded, NakFrame)
        assert decoded.first_missing == 1
        assert decoded.missing == (1, 3, 62)
        assert decoded.total == 64

    def test_empty_payload_data_frame(self):
        decoded = decode(encode(DataFrame(1, 0, 1, b"")))
        assert decoded.payload == b""

    def test_wire_bytes_reflects_datagram_size(self):
        frame = DataFrame(1, 0, 1, b"x" * 50)
        datagram = encode(frame)
        assert decode(datagram).wire_bytes == len(datagram) == HEADER_BYTES + 50

    @given(
        xfer=st.integers(0, 2**32 - 1),
        total=st.integers(1, 300),
        payload=st.binary(max_size=1500),
        wants_reply=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_data_roundtrip_property(self, xfer, total, payload, wants_reply, data):
        seq = data.draw(st.integers(0, total - 1))
        frame = DataFrame(xfer, seq, total, payload, wants_reply=wants_reply)
        decoded = decode(encode(frame))
        assert (decoded.transfer_id, decoded.seq, decoded.total,
                decoded.payload, decoded.wants_reply) == (
                    xfer, seq, total, payload, wants_reply)

    @given(total=st.integers(1, 512), data=st.data())
    @settings(max_examples=150)
    def test_nak_roundtrip_property(self, total, data):
        missing = data.draw(
            st.sets(st.integers(0, total - 1), min_size=1, max_size=total)
        )
        missing = tuple(sorted(missing))
        nak = NakFrame(3, first_missing=missing[0], missing=missing, total=total)
        decoded = decode(encode(nak))
        assert decoded.missing == missing
        assert decoded.first_missing == missing[0]


class TestStreamVersion:
    """Version-2 frames carry a stream id; version 1 stays byte-stable."""

    def test_stream_zero_encodes_version_1(self):
        datagram = encode(DataFrame(7, 3, 10, b"hello", stream_id=0))
        assert datagram[2] == 1  # version byte
        assert len(datagram) == HEADER_BYTES + 5

    def test_nonzero_stream_encodes_version_2(self):
        datagram = encode(DataFrame(7, 3, 10, b"hello", stream_id=42))
        assert datagram[2] == 2
        assert len(datagram) == HEADER2_BYTES + 5

    def test_stream_roundtrip_all_kinds(self):
        frames = [
            DataFrame(7, 3, 10, b"hello", wants_reply=True, stream_id=9),
            AckFrame(7, seq=3, stream_id=9),
            NakFrame(7, first_missing=1, missing=(1, 4), total=10, stream_id=9),
            ControlFrame(7, request_id=2, body=b"{}", stream_id=9),
        ]
        for frame in frames:
            decoded = decode(encode(frame))
            assert decoded.stream_id == 9
            assert decoded.transfer_id == 7
            assert type(decoded) is type(frame)

    def test_version_1_decodes_to_stream_zero(self):
        decoded = decode(encode(AckFrame(9, seq=63)))
        assert decoded.stream_id == 0

    def test_v1_bytes_unchanged_by_stream_field(self):
        """The stream-id addition must not perturb the legacy encoding."""
        datagram = encode(DataFrame(1, 0, 1, b"payload"))
        import struct
        import zlib
        header = struct.pack(">HBBIIIBH", 0x5A57, 1, 1, 1, 0, 1, 0, 7)
        crc = zlib.crc32(header + b"payload") & 0xFFFFFFFF
        assert datagram == header + struct.pack(">I", crc) + b"payload"

    def test_v2_frame_claiming_stream_zero_rejected(self):
        datagram = bytearray(encode(AckFrame(1, seq=0, stream_id=5)))
        # forge stream=0 and re-stamp the CRC
        import struct
        import zlib
        datagram[4:8] = struct.pack(">I", 0)
        body = bytes(datagram[:16])
        datagram[16:20] = struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(WireError, match="stream 0"):
            decode(bytes(datagram))

    def test_corrupted_v2_frame_fails_crc(self):
        datagram = bytearray(encode(DataFrame(1, 0, 1, b"x" * 20, stream_id=3)))
        datagram[-4] ^= 0x10
        with pytest.raises(WireError):
            decode(bytes(datagram))

    @given(
        stream=st.integers(1, 2**32 - 1),
        xfer=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=600),
    )
    @settings(max_examples=100)
    def test_v2_data_roundtrip_property(self, stream, xfer, payload):
        frame = DataFrame(xfer, 0, 1, payload, stream_id=stream)
        decoded = decode(encode(frame))
        assert (decoded.stream_id, decoded.transfer_id, decoded.payload) == (
            stream, xfer, payload)

    def test_peek_reads_v2_header(self):
        from repro.core.frames import FrameKind
        from repro.core.wire import peek
        kind, seq = peek(encode(DataFrame(1, 4, 9, b"z", stream_id=77)))
        assert kind is FrameKind.DATA
        assert seq == 4


class TestCorruptionHandling:
    def test_truncated_datagram(self):
        with pytest.raises(WireError, match="too short"):
            decode(b"\x5a\x57\x01")

    def test_bad_magic(self):
        datagram = bytearray(encode(AckFrame(1, seq=0)))
        datagram[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            decode(bytes(datagram))

    def test_bad_version(self):
        datagram = bytearray(encode(AckFrame(1, seq=0)))
        datagram[2] = 99
        with pytest.raises(WireError, match="version"):
            decode(bytes(datagram))

    def test_flipped_payload_bit_fails_crc(self):
        datagram = bytearray(encode(DataFrame(1, 0, 1, b"payload")))
        datagram[-1] ^= 0x01
        with pytest.raises(WireError, match="CRC"):
            decode(bytes(datagram))

    def test_flipped_header_bit_fails(self):
        datagram = bytearray(encode(DataFrame(1, 2, 8, b"payload")))
        datagram[8] ^= 0x40  # somewhere in the seq field
        with pytest.raises(WireError):
            decode(bytes(datagram))

    def test_length_mismatch(self):
        datagram = encode(DataFrame(1, 0, 1, b"payload"))
        with pytest.raises(WireError):
            decode(datagram + b"extra")

    def test_unknown_kind(self):
        datagram = bytearray(encode(AckFrame(1, seq=0)))
        datagram[3] = 42  # kind byte
        with pytest.raises(WireError):
            decode(bytes(datagram))

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            encode("not a frame")  # type: ignore[arg-type]

    @given(noise=st.binary(min_size=0, max_size=80))
    @settings(max_examples=100)
    def test_random_bytes_never_crash(self, noise):
        """decode() on garbage raises WireError, never anything else."""
        try:
            decode(noise)
        except WireError:
            pass

    @given(payload=st.binary(max_size=200), position=st.integers(0, 10**6),
           bit=st.integers(0, 7))
    @settings(max_examples=150)
    def test_single_bitflip_detected(self, payload, position, bit):
        """Any single-bit corruption is caught (CRC-32 guarantees it)."""
        datagram = bytearray(encode(DataFrame(1, 0, 1, payload)))
        datagram[position % len(datagram)] ^= 1 << bit
        with pytest.raises(WireError):
            decode(bytes(datagram))


class TestNakBitmap:
    """The NAK bitmap fast path: table-driven parse, zero-byte skip."""

    def test_all_missing_round_trip(self):
        total = 512  # the paper's full-size blast: a 64-byte bitmap
        nak = NakFrame(
            11, first_missing=0, missing=tuple(range(total)), total=total
        )
        decoded = decode(encode(nak))
        assert decoded.missing == tuple(range(total))
        assert decoded.total == total

    def test_none_missing_bitmap_is_all_zero(self):
        assert _bitmap_from_missing((), 512) == bytes(64)
        assert _missing_from_bitmap(bytes(64), 512) == ()

    def test_all_missing_bitmap_is_all_ones(self):
        bitmap = _bitmap_from_missing(tuple(range(512)), 512)
        assert bitmap == b"\xff" * 64
        assert _missing_from_bitmap(bitmap, 512) == tuple(range(512))

    def test_padding_bits_beyond_total_are_ignored(self):
        # total=10 occupies 2 bytes; the last 6 bits are padding and
        # must not invent packet numbers >= total.
        assert _missing_from_bitmap(b"\xff\xff", 10) == tuple(range(10))

    def test_sparse_bitmap_round_trip(self):
        missing = (0, 7, 8, 63, 300, 511)
        bitmap = _bitmap_from_missing(missing, 512)
        assert _missing_from_bitmap(bitmap, 512) == missing

    @given(
        total=st.integers(1, 512),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_bitmap_round_trip_property(self, total, data):
        missing = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(0, total - 1), min_size=0, max_size=total)
                )
            )
        )
        bitmap = _bitmap_from_missing(missing, total)
        assert len(bitmap) == (total + 7) // 8
        assert _missing_from_bitmap(bitmap, total) == missing


class TestPeek:
    """peek() classifies without CRC checks or payload parsing."""

    def test_peek_every_kind_both_versions(self):
        for stream in (0, 9):
            frames = [
                (DataFrame(1, 5, 8, b"x", stream_id=stream), FrameKind.DATA, 5),
                (AckFrame(1, seq=7, stream_id=stream), FrameKind.ACK, 7),
                (
                    NakFrame(1, first_missing=2, missing=(2, 3), total=8,
                             stream_id=stream),
                    FrameKind.NAK,
                    2,
                ),
                (
                    ControlFrame(1, request_id=33, body=b"", stream_id=stream),
                    FrameKind.CONTROL,
                    33,
                ),
            ]
            for frame, kind, seq in frames:
                assert peek(encode(frame)) == (kind, seq)

    def test_peek_rejects_short_and_foreign_datagrams(self):
        assert peek(b"") == (None, None)
        assert peek(b"\x00" * 4) == (None, None)
        assert peek(b"not a protocol frame at all") == (None, None)

    def test_peek_rejects_unknown_version_and_kind(self):
        datagram = bytearray(encode(AckFrame(1, seq=0)))
        datagram[2] = 3  # version byte
        assert peek(bytes(datagram)) == (None, None)
        datagram = bytearray(encode(AckFrame(1, seq=0)))
        datagram[3] = 42  # kind byte
        assert peek(bytes(datagram)) == (None, None)

    def test_peek_ignores_payload_corruption(self):
        # Fault rules must classify traffic they do not consume, so peek
        # tolerates what decode() rejects.
        datagram = bytearray(encode(DataFrame(1, 4, 8, b"payload")))
        datagram[-1] ^= 0xFF
        assert peek(bytes(datagram)) == (FrameKind.DATA, 4)
        with pytest.raises(WireError):
            decode(bytes(datagram))


class TestEncodeRunInto:
    """A run's datagrams are the frames' encodings, back to back."""

    @settings(max_examples=60, deadline=None)
    @given(stream=st.sampled_from([1, 9, 2**32 - 1]),
           first=st.integers(0, 2**32 - 70),
           lengths=st.lists(st.sampled_from([0, 1, 700, 1024]),
                            min_size=1, max_size=64),
           offset=st.integers(0, 9), data=st.data())
    def test_byte_identical_to_encode_into(self, stream, first, lengths,
                                           offset, data):
        seqs = range(first, first + len(lengths))
        payloads = [bytes([seq % 251]) * length
                    for seq, length in zip(seqs, lengths)]
        wants = data.draw(st.lists(st.booleans(), min_size=len(lengths),
                                   max_size=len(lengths)))
        total = first + len(lengths) + 3
        expected = b"".join(
            encode(DataFrame(stream, seq, total, payload, reply,
                             stream_id=stream))
            for seq, payload, reply in zip(seqs, payloads, wants))
        buf = bytearray(b"\xaa" * (offset + len(expected) + 5))
        end = encode_run_into(memoryview(buf), offset, stream, total, seqs,
                              payloads, wants)
        assert end == offset + len(expected)
        assert bytes(buf[offset:end]) == expected
        assert buf[:offset] + buf[end:] == b"\xaa" * (offset + 5)


class TestEncodeInto:
    """encode_into must be byte-for-byte the in-place twin of encode."""

    @pytest.mark.parametrize(
        "frame", CANONICAL_FRAMES, ids=lambda f: f"{type(f).__name__}-s{f.stream_id}"
    )
    def test_exact_byte_equivalence(self, frame):
        expected = encode(frame)
        buf = bytearray(len(expected))
        n = encode_into(frame, buf)
        assert n == len(expected)
        assert bytes(buf[:n]) == expected

    @pytest.mark.parametrize(
        "frame", CANONICAL_FRAMES, ids=lambda f: f"{type(f).__name__}-s{f.stream_id}"
    )
    def test_offset_and_dirty_buffer(self, frame):
        # A reused (dirty) buffer and a nonzero offset must not leak into
        # the encoding; bytes outside the written window stay untouched.
        expected = encode(frame)
        buf = bytearray(b"\xaa" * (len(expected) + 16))
        n = encode_into(frame, buf, offset=7)
        assert n == len(expected)
        assert bytes(buf[7:7 + n]) == expected
        assert bytes(buf[:7]) == b"\xaa" * 7
        assert bytes(buf[7 + n:]) == b"\xaa" * (len(buf) - 7 - n)

    @pytest.mark.parametrize(
        "frame", CANONICAL_FRAMES, ids=lambda f: f"{type(f).__name__}-s{f.stream_id}"
    )
    def test_decodes_from_memoryview_window(self, frame):
        buf = bytearray(4096)
        n = encode_into(frame, buf)
        decoded = decode(memoryview(buf)[:n])
        assert type(decoded) is type(frame)
        assert decoded.transfer_id == frame.transfer_id
        assert decoded.stream_id == frame.stream_id

    def test_buffer_too_small_raises_before_writing(self):
        frame = DataFrame(7, 3, 10, b"hello world")
        short = bytearray(HEADER_BYTES)  # header fits, payload does not
        with pytest.raises(WireError, match="buffer"):
            encode_into(frame, short)
        assert bytes(short) == b"\x00" * len(short)  # nothing written

    def test_negative_offset_rejected(self):
        with pytest.raises(WireError):
            encode_into(AckFrame(1, seq=0), bytearray(64), offset=-1)

    def test_offset_past_end_rejected(self):
        with pytest.raises(WireError):
            encode_into(AckFrame(1, seq=0), bytearray(8), offset=4)

    @given(
        xfer=st.integers(0, 2**32 - 1),
        stream=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=1500),
        offset=st.integers(0, 64),
    )
    @settings(max_examples=150)
    def test_equivalence_property(self, xfer, stream, payload, offset):
        frame = DataFrame(xfer, 0, 1, payload, stream_id=stream)
        expected = encode(frame)
        buf = bytearray(offset + len(expected))
        assert encode_into(frame, buf, offset) == len(expected)
        assert bytes(buf[offset:]) == expected


def _bytearray_target(size):
    return bytearray(b"\xaa" * size)


def _memoryview_target(size):
    return memoryview(bytearray(b"\xaa" * size))


def _mmap_target(size):
    # What DatagramBatchIO stages in: a view of an anonymous mapping.
    view = memoryview(mmap.mmap(-1, size))
    view[:] = b"\xaa" * size
    return view


FRAME_IDS = [f"{type(f).__name__}-s{f.stream_id}-{i}"
             for i, f in enumerate(CANONICAL_FRAMES)]


class TestEveryBufferKind:
    """The codec sees ``bytes`` in tests, a ``bytearray`` from blocking
    callers and arena ``memoryview`` slices on the batched paths: all of
    them hold the same bytes and yield the same frame."""

    @pytest.mark.parametrize("target", [_bytearray_target, _memoryview_target,
                                        _mmap_target])
    @pytest.mark.parametrize("frame", CANONICAL_FRAMES, ids=FRAME_IDS)
    def test_encode_into_at_an_offset_equals_encode(self, frame, target):
        expected = encode(frame)
        offset = 13
        buf = target(offset + len(expected) + 5)
        assert encode_into(frame, buf, offset) == len(expected)
        assert bytes(buf[offset:offset + len(expected)]) == expected
        assert bytes(buf[:offset]) == b"\xaa" * offset
        assert bytes(buf[offset + len(expected):]) == b"\xaa" * 5

    def test_a_bytearray_target_is_not_left_exported(self):
        buf = bytearray(64)
        encode_into(AckFrame(1, seq=0), buf)
        buf.extend(b"resizable again")  # BufferError if a view survived

    @pytest.mark.parametrize("frame", CANONICAL_FRAMES, ids=FRAME_IDS)
    def test_decode_agrees_on_bytes_bytearray_and_a_view_slice(self, frame):
        datagram = encode(frame)
        arena = bytearray(b"\xaa" * 7 + datagram + b"\xaa" * 9)
        window = memoryview(arena)[7:7 + len(datagram)]
        decoded = decode(datagram)
        assert decoded == decode(bytearray(datagram)) == decode(window)
        assert decoded == replace(frame, wire_bytes=len(datagram))
        # The frame owns its bytes: the arena may be overwritten.
        arena[:] = bytes(len(arena))
        payload = getattr(decoded, "payload", getattr(decoded, "body", b""))
        assert type(payload) is bytes
        assert decoded == decode(datagram)

    @pytest.mark.parametrize("frame", CANONICAL_FRAMES, ids=FRAME_IDS)
    def test_a_flipped_bit_anywhere_is_a_wire_error_and_nothing_else(
            self, frame):
        datagram = encode(frame)
        # Every bit of header and CRC, and of the payload's two ends.
        positions = [p for p in range(len(datagram))
                     if p < HEADER2_BYTES + 4 or p >= len(datagram) - 4]
        for position in positions:
            for bit in range(8):
                damaged = bytearray(datagram)
                damaged[position] ^= 1 << bit
                for form in (bytes(damaged), memoryview(damaged)):
                    with pytest.raises(WireError):
                        decode(form)

    @given(noise=st.binary(min_size=0, max_size=80),
           head=st.sampled_from([b"", b"\x5a\x57\x01", b"\x5a\x57\x02"]))
    @settings(max_examples=200)
    def test_noise_behind_a_valid_magic_never_crashes(self, noise, head):
        for form in (head + noise, memoryview(bytearray(head + noise))):
            try:
                decode(form)
            except WireError:
                pass


STREAM = 5


def forge(seq=0, total=4, payload=b"0123456789abcdef", stream=STREAM,
          kind=FrameKind.DATA, version=2, flags=0, length=None, xfer=STREAM):
    """A datagram with any header fields and a CRC that matches them,
    including fields ``encode`` would refuse."""
    length = len(payload) if length is None else length
    if version == 1:
        header = struct.pack(">HBBIIIBH", 0x5A57, version, int(kind), xfer,
                             seq, total, flags, length)
    else:
        header = struct.pack(">HBBIIIIBH", 0x5A57, version, int(kind), stream,
                             xfer, seq, total, flags, length)
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + struct.pack(">I", crc) + payload


def as_data(datagram, stream=STREAM):
    """What ``decode`` makes of one datagram as a run entry: a data frame
    of ``stream`` as ``(seq, total, payload, wants_reply)``, else None."""
    try:
        frame = decode(datagram)
    except WireError:
        return None
    if type(frame) is DataFrame and frame.stream_id == stream:
        return frame.seq, frame.total, frame.payload, frame.wants_reply
    return None


def assert_agrees(datagrams, stream=STREAM):
    """``decode_data_run`` keeps a datagram exactly when ``decode`` gives
    a data frame of ``stream``, with its fields: one datagram at a time,
    and the whole ring in order, from ``bytes`` and from a view of a
    receive arena."""
    expected = [as_data(datagram, stream) for datagram in datagrams]
    for form in (bytes, lambda datagram: memoryview(bytearray(datagram))):
        for datagram, entry in zip(datagrams, expected):
            run = decode_data_run([form(datagram)], stream)
            assert list(zip(*run)) == ([] if entry is None else [entry])
        seqs, totals, payloads, wants = decode_data_run(
            [form(datagram) for datagram in datagrams], stream)
        assert list(zip(seqs, totals, payloads, wants)) == [
            entry for entry in expected if entry is not None]
        assert all(type(payload) is bytes for payload in payloads)
        assert all(type(want) is bool for want in wants)
    return expected


class TestDecodeDataRun:
    """The pump's run decoder against ``decode``, the reference."""

    HONEST = [
        encode(DataFrame(STREAM, 3, 9, bytes(range(16)), True, stream_id=STREAM)),
        encode(DataFrame(STREAM, 0, 1, b"", stream_id=STREAM)),
        encode(DataFrame(STREAM, 8, 9, b"\xaa" * 1024, stream_id=STREAM)),
        encode(DataFrame(77, 299, 300, b"x" * 1500, True, stream_id=STREAM)),
    ]

    def test_honest_datagrams_are_kept_with_their_fields(self):
        expected = assert_agrees(self.HONEST)
        assert None not in expected

    @pytest.mark.parametrize("honest", HONEST[:2], ids=["16B", "empty"])
    def test_every_single_byte_corruption_is_dropped(self, honest):
        damaged = []
        for position in range(len(honest)):
            for value in range(256):
                if value != honest[position]:
                    datagram = bytearray(honest)
                    datagram[position] = value
                    damaged.append(bytes(datagram))
        assert set(assert_agrees(damaged)) == {None}

    @pytest.mark.parametrize("honest", HONEST, ids=["16B", "empty", "1K", "v2"])
    def test_truncation_at_every_length_is_dropped(self, honest):
        cut = [honest[:length] for length in range(len(honest))]
        assert set(assert_agrees(cut)) == {None}

    FORGED = {
        "honest": (forge(), True),
        "other-flag-bits-set": (forge(flags=0xFF), True),
        "other-flag-bits-only": (forge(flags=0xFE), True),
        "xfer-not-stream": (forge(xfer=9), True),     # decode reads no xfer id
        "v1-stream-0": (encode(DataFrame(STREAM, 1, 4, b"v1")), False),
        "v1-forged": (forge(version=1), False),
        "v2-stream-0": (forge(stream=0), False),
        "other-stream": (forge(stream=STREAM + 1), False),
        "top-stream": (forge(stream=2**32 - 1), False),
        "seq-equals-total": (forge(seq=4, total=4), False),
        "seq-top": (forge(seq=2**32 - 1, total=4), False),
        "total-0": (forge(seq=0, total=0), False),
        "length-short": (forge(length=15), False),
        "length-long": (forge(length=17), False),
        "length-top": (forge(length=0xFFFF), False),
        "version-3": (forge(version=3), False),
        "version-0": (forge(version=0), False),
        "ack": (forge(kind=FrameKind.ACK), False),
        "nak": (forge(kind=FrameKind.NAK, payload=b"\x0f"), False),
        "control": (forge(kind=FrameKind.CONTROL), False),
        "kind-9": (forge(kind=9), False),
        "kind-0": (forge(kind=0), False),
        "zeros-behind-magic": (b"\x5a\x57\x02" + bytes(40), False),
    }

    @pytest.mark.parametrize("name", sorted(FORGED))
    def test_forged_fields(self, name):
        datagram, kept = self.FORGED[name]
        (entry,) = assert_agrees([datagram])
        assert (entry is not None) is kept

    def test_replies_and_control_mixed_into_the_ring_are_left_out(self):
        ring = [
            encode(AckFrame(STREAM, 3, stream_id=STREAM)), self.HONEST[0],
            encode(NakFrame(STREAM, 1, (1, 2), 9, stream_id=STREAM)),
            encode(ControlFrame(STREAM, STREAM, b'{"status": "ok"}',
                                stream_id=STREAM)),
            self.HONEST[2], encode(AckFrame(STREAM, 3)),
            encode(DataFrame(STREAM, 1, 9, b"other", stream_id=STREAM + 1)),
            self.HONEST[1], forge(seq=9, total=9), self.HONEST[2],
        ]
        expected = assert_agrees(ring)
        assert [i for i, entry in enumerate(expected) if entry] == [1, 4, 7, 9]

    @given(ring=st.lists(st.one_of(
        st.sampled_from(HONEST),
        st.builds(forge, seq=st.integers(0, 2**32 - 1),
                  total=st.integers(0, 2**32 - 1),
                  payload=st.binary(max_size=40),
                  stream=st.sampled_from([0, STREAM, STREAM + 1]),
                  kind=st.integers(0, 5), version=st.integers(0, 3),
                  flags=st.integers(0, 255)),
        st.tuples(st.sampled_from(HONEST), st.integers(0, 60),
                  st.integers(0, 255)).map(
            lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:])),
        max_size=12))
    @settings(max_examples=200)
    def test_any_ring_agrees(self, ring):
        assert_agrees(ring)

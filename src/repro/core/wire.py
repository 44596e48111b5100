"""Byte-level frame encoding for the real-socket (UDP) transport.

Version-1 layout (big-endian) — the original single-transfer format:

    magic   2B  0x5A57 ("ZW" — Zwaenepoel '85)
    version 1B  1
    kind    1B  FrameKind
    xfer_id 4B  transfer identifier
    seq     4B  DATA: packet seq; ACK: acked seq; NAK: first missing
    total   4B  packets in the transfer
    flags   1B  bit 0: wants_reply
    length  2B  payload length (DATA) / bitmap length (NAK)
    crc32   4B  CRC-32 of everything before this field plus the payload
    payload     DATA: packet bytes; NAK: missing-set bitmap

Version-2 layout adds a 4-byte ``stream`` field between ``version+kind``
and ``xfer_id``, multiplexing many concurrent transfers over a single
endpoint (the :mod:`repro.service` concurrent transfer service):

    magic   2B  0x5A57
    version 1B  2
    kind    1B  FrameKind
    stream  4B  stream identifier (never 0 on the wire)
    xfer_id 4B  transfer identifier
    ...         remaining fields as in version 1

:func:`encode` emits version 1 whenever ``frame.stream_id == 0`` — the
bytes are identical to what the pre-service codec produced, so existing
golden ledgers and old single-transfer peers are unaffected — and
version 2 otherwise.  :func:`decode` and :func:`peek` accept both.

The NAK bitmap has bit ``seq`` set when packet ``seq`` is missing —
64 bytes of bitmap covers a 512-packet transfer, matching the paper's
observation that the acknowledgement frame has room for a full report.
"""

from __future__ import annotations

import struct
from typing import Union
from zlib import crc32

from .frames import AckFrame, ControlFrame, DataFrame, FrameKind, NakFrame

__all__ = [
    "encode",
    "encode_into",
    "encode_run_into",
    "decode",
    "decode_data_run",
    "peek",
    "WireError",
    "HEADER_BYTES",
    "HEADER2_BYTES",
    "MAGIC",
]

MAGIC = 0x5A57
VERSION = 1
VERSION_STREAM = 2
_HEADER = struct.Struct(">HBBIIIBH")
_HEADER2 = struct.Struct(">HBBIIIIBH")
_CRC = struct.Struct(">I")
#: Total version-1 header size including the CRC field.
HEADER_BYTES = _HEADER.size + _CRC.size
#: Total version-2 (stream-id) header size including the CRC field.
HEADER2_BYTES = _HEADER2.size + _CRC.size

_FLAG_WANTS_REPLY = 0x01

# Bound once: the per-datagram paths call these without an attribute
# lookup.  ``*_crc_into`` writes a packed header and its CRC together.
_pack_header = _HEADER.pack
_pack_header2 = _HEADER2.pack
_pack_header_crc_into = struct.Struct(f">{_HEADER.size}sI").pack_into
_pack_header2_crc_into = struct.Struct(f">{_HEADER2.size}sI").pack_into
_unpack_header = _HEADER.unpack_from
_unpack_header2 = _HEADER2.unpack_from
_unpack_crc = _CRC.unpack_from
_unpack_header2_crc = struct.Struct(f"{_HEADER2.format}I").unpack_from

#: ``kind`` byte → :class:`FrameKind`, for :func:`peek`.
_KIND_BY_CODE = {int(kind): kind for kind in FrameKind}

# Wire integers hoisted out of the enum: FrameKind attribute access goes
# through Enum's metaclass machinery, too slow for the encode hot path.
_KIND_DATA = int(FrameKind.DATA)
_KIND_ACK = int(FrameKind.ACK)
_KIND_NAK = int(FrameKind.NAK)
_KIND_CONTROL = int(FrameKind.CONTROL)

_MAGIC_HI = MAGIC >> 8
_MAGIC_LO = MAGIC & 0xFF
_SEQ_V1_OFFSET = 8
_SEQ_V2_OFFSET = 12
_SEQ = struct.Struct(">I")

Frame = Union[DataFrame, AckFrame, NakFrame, ControlFrame]


class WireError(ValueError):
    """A datagram that is not a valid protocol frame."""


def _bitmap_from_missing(missing, total: int) -> bytes:
    # One big int instead of per-byte bytearray stores: bit ``seq`` of a
    # little-endian integer lands in byte ``seq // 8`` at position
    # ``seq % 8`` — exactly the wire layout.
    bits = 0
    for seq in missing:
        bits |= 1 << seq
    return bits.to_bytes((total + 7) // 8, "little")


#: byte value → positions of its set bits, so the bitmap walk never
#: shifts or masks: one table probe per nonzero byte.
_BITS_IN_BYTE = tuple(
    tuple(bit for bit in range(8) if value & (1 << bit)) for value in range(256)
)


def _missing_from_bitmap(bitmap, total: int) -> tuple:
    # Byte-at-a-time with a skip for zero bytes: reception reports are
    # sparse (a handful of drops in a 512-packet blast), so most of the
    # bitmap is zeros and never reaches the per-bit work.
    missing = []
    append = missing.append
    n_bytes = (total + 7) // 8
    for index in range(n_bytes):
        byte = bitmap[index]
        if not byte:
            continue
        base = index << 3
        for bit in _BITS_IN_BYTE[byte]:
            seq = base + bit
            if seq < total:
                append(seq)
    return tuple(missing)


def _frame_fields(frame: Frame):
    """The wire fields of the kinds :func:`encode_into` does not read in
    place; ``kind`` as the wire integer, not the enum member."""
    if isinstance(frame, DataFrame):
        kind, seq, total, payload = (
            _KIND_DATA, frame.seq, frame.total, frame.payload)
        flags = _FLAG_WANTS_REPLY if frame.wants_reply else 0
    elif isinstance(frame, NakFrame):
        kind = _KIND_NAK
        seq, total = frame.first_missing, frame.total
        payload = _bitmap_from_missing(frame.missing, frame.total)
        flags = 0
    elif isinstance(frame, ControlFrame):
        kind = _KIND_CONTROL
        seq, total, payload, flags = frame.request_id, 0, frame.body, 0
    else:
        raise TypeError(f"cannot encode {frame!r}")
    if len(payload) > 0xFFFF:
        raise WireError(f"payload too large for wire format: {len(payload)}")
    return kind, seq, total, payload, flags


def encode(frame: Frame) -> bytes:
    """Serialise a frame to datagram bytes: what :func:`encode_into`
    writes, as new ``bytes`` (no path that runs per packet uses it)."""
    buf = bytearray(HEADER2_BYTES + 0xFFFF)
    return bytes(memoryview(buf)[:encode_into(frame, buf)])


def encode_into(frame: Frame, buf, offset: int = 0) -> int:
    """Serialise a frame into ``buf`` at ``offset``; returns bytes written.

    Frames with ``stream_id == 0`` encode to the version-1 format,
    byte-identical to the pre-stream codec; any other stream id selects
    the version-2 header that carries it.  Header and CRC go straight
    into the caller's buffer and the payload is copied once, so batched
    send paths reuse one output buffer.
    ``buf`` is any writable buffer (``bytearray``/``memoryview``).
    Raises :class:`WireError` when the frame does not fit.
    """
    if type(frame) is AckFrame:
        # The kind a client sends per packet reads its fields in place.
        kind, seq, total, payload, flags, payload_len = (
            _KIND_ACK, frame.seq, 0, b"", 0, 0)
    else:
        kind, seq, total, payload, flags = _frame_fields(frame)
        payload_len = len(payload)
    stream = frame.stream_id
    if stream == 0:
        header = _pack_header(
            MAGIC, VERSION, kind, frame.transfer_id, seq, total, flags,
            payload_len,
        )
        write, body = _pack_header_crc_into, offset + HEADER_BYTES
    else:
        header = _pack_header2(
            MAGIC, VERSION_STREAM, kind, stream, frame.transfer_id, seq,
            total, flags, payload_len,
        )
        write, body = _pack_header2_crc_into, offset + HEADER2_BYTES
    end = body + payload_len
    if offset < 0 or len(buf) < end:
        raise WireError(
            f"buffer too small: need {end - offset} bytes at offset {offset}, "
            f"have {len(buf) - offset}"
        )
    view = buf if type(buf) is memoryview else memoryview(buf)
    write(view, offset, header, crc32(payload, crc32(header)))
    view[body:end] = payload
    return end - offset


def encode_run_into(buf, offset: int, stream: int, total: int, seqs,
                    payloads, wants) -> int:
    """Serialise one stream's data packets back to back into ``buf`` at
    ``offset`` (the caller has checked they fit); returns the offset past
    the last.  Datagram ``i`` is what :func:`encode_into` writes for
    ``DataFrame(stream, seqs[i], total, payloads[i], wants[i],
    stream_id=stream)``, ``stream >= 1``, without the frame."""
    view = buf if type(buf) is memoryview else memoryview(buf)
    for seq, payload, reply in zip(seqs, payloads, wants):
        length = len(payload)
        header = _pack_header2(MAGIC, VERSION_STREAM, _KIND_DATA, stream,
                               stream, seq, total, reply, length)
        _pack_header2_crc_into(view, offset, header,
                               crc32(payload, crc32(header)))
        body = offset + HEADER2_BYTES
        offset = body + length
        view[body:offset] = payload
    return offset


def peek(datagram: bytes):
    """Cheap header inspection: ``(FrameKind, seq) | (None, None)``.

    Classifies a datagram without CRC verification or payload parsing —
    used by fault-injection socket wrappers to match rules against
    traffic they must not consume.  Returns ``(None, None)`` for
    anything that is not a plausible protocol frame, covering every
    :class:`FrameKind` in either header version: DATA and ACK report
    their ``seq``, NAK its first-missing, CONTROL its request id.
    """
    if len(datagram) < _HEADER.size:
        return None, None
    if datagram[0] != _MAGIC_HI or datagram[1] != _MAGIC_LO:
        return None, None
    version = datagram[2]
    if version == VERSION:
        (seq,) = _SEQ.unpack_from(datagram, _SEQ_V1_OFFSET)
    elif version == VERSION_STREAM:
        if len(datagram) < _HEADER2.size:
            return None, None
        (seq,) = _SEQ.unpack_from(datagram, _SEQ_V2_OFFSET)
    else:
        return None, None
    kind = _KIND_BY_CODE.get(datagram[3])
    if kind is None:
        return None, None
    return kind, seq


def decode(datagram: bytes, ack_fields: bool = False):
    """Parse datagram bytes back into a frame.

    Raises :class:`WireError` on truncation, bad magic/version/kind,
    CRC mismatch, or inconsistent fields — a real receiver must treat a
    corrupted datagram exactly like a lost one.  Both header versions
    decode; version-1 frames come back with ``stream_id == 0``.

    With ``ack_fields`` an ACK comes back as its ``(stream_id, seq)``
    instead of a frame, through the same checks: the service loop takes
    acknowledgements a run at a time and never needs the frame.
    """
    size = len(datagram)
    if size < HEADER_BYTES:
        raise WireError(f"datagram too short: {size} bytes")
    if datagram[0] != _MAGIC_HI or datagram[1] != _MAGIC_LO:
        magic = (datagram[0] << 8) | datagram[1]
        raise WireError(f"bad magic {magic:#06x}")
    version = datagram[2]
    if version == VERSION:
        _magic, _version, kind, xfer, seq, total, flags, length = (
            _unpack_header(datagram)
        )
        stream = 0
        header_size, header_bytes = _HEADER.size, HEADER_BYTES
    elif version == VERSION_STREAM:
        if size < HEADER2_BYTES:
            raise WireError(f"datagram too short: {size} bytes")
        _magic, _version, kind, stream, xfer, seq, total, flags, length = (
            _unpack_header2(datagram)
        )
        if stream == 0:
            raise WireError("version-2 frame with stream 0 (must encode as v1)")
        header_size, header_bytes = _HEADER2.size, HEADER2_BYTES
    else:
        raise WireError(f"unsupported version {version}")
    (crc_stated,) = _unpack_crc(datagram, header_size)
    if size - header_bytes != length:
        raise WireError(f"length field {length} != payload {size - header_bytes}")
    # The payload materialises to owned bytes exactly once — callers hand
    # in a memoryview over a reusable receive buffer, and frames must not
    # alias storage that the next recv overwrites — and the CRC runs over
    # that copy, continuing from the header's.
    view = datagram if type(datagram) is memoryview else memoryview(datagram)
    payload = bytes(view[header_bytes:])
    crc_actual = crc32(payload, crc32(view[:header_size]))
    if crc_actual != crc_stated:
        raise WireError(f"CRC mismatch: {crc_actual:#x} != {crc_stated:#x}")
    try:
        if kind == _KIND_DATA:
            wants_reply = (flags & _FLAG_WANTS_REPLY) != 0
            return DataFrame(xfer, seq, total, payload, wants_reply, size,
                             None, stream)
        if kind == _KIND_ACK:
            if ack_fields:
                return stream, seq
            return AckFrame(xfer, seq, size, stream)
        if kind == _KIND_CONTROL:
            return ControlFrame(xfer, seq, payload, size, stream)
        if kind == _KIND_NAK:
            return NakFrame(xfer, seq, _missing_from_bitmap(payload, total),
                            total, size, stream)
    except (ValueError, IndexError) as exc:
        raise WireError(f"inconsistent frame fields: {exc}") from exc
    raise WireError(f"unknown frame kind {kind}")


def decode_data_run(views, stream: int):
    """The data packets of stream ``stream`` (>= 1) among one read's
    datagrams, as parallel lists ``(seqs, totals, payloads, wants)``:
    those :func:`decode` returns as a :class:`DataFrame` of that stream,
    after the same checks and with the same fields, but with no frame
    built.  The rest are left out, as losses."""
    seqs, totals, payloads, wants = [], [], [], []
    header_size = _HEADER2.size
    for view in views:
        size = len(view)
        if size < HEADER2_BYTES:
            continue
        magic, version, kind, got, _xfer, seq, total, flags, length, crc = (
            _unpack_header2_crc(view))
        if (magic != MAGIC or version != VERSION_STREAM or kind != _KIND_DATA
                or got != stream or length != size - HEADER2_BYTES
                or seq >= total):   # unsigned: also 0 <= seq and total >= 1
            continue
        payload = bytes(view[HEADER2_BYTES:])
        if crc32(payload, crc32(view[:header_size])) != crc:
            continue
        seqs.append(seq)
        totals.append(total)
        payloads.append(payload)
        wants.append((flags & _FLAG_WANTS_REPLY) != 0)
    return seqs, totals, payloads, wants

"""Protocol frames shared by the simulated and the UDP transports.

Three frame kinds carry the whole protocol family:

- :class:`DataFrame` — one packet of the transfer.  ``wants_reply`` marks
  the packets the receiver must respond to: every packet in stop-and-wait
  and sliding window, only the (reliably retransmitted) last packet in the
  blast variants.
- :class:`AckFrame` — positive acknowledgement.  ``seq`` identifies the
  acknowledged packet for the per-packet protocols; the blast protocols
  acknowledge the *whole sequence* (``seq = total - 1``).
- :class:`NakFrame` — negative acknowledgement carrying the receiver's
  reception report: the first missing sequence number (enough for
  go-back-n) and the full missing set (for selective retransmission).
  A 64-byte NAK comfortably encodes a 512-packet bitmap, so carrying the
  full set costs nothing at the paper's transfer sizes.

``wire_bytes`` is the size the frame occupies on the wire, used by the
simulator for transmission and copy times; for data frames it is the
payload size (the paper's standalone experiments add no header beyond the
Ethernet one), for replies it is the experiment's ack size (64 bytes).

``stream_id`` multiplexes many concurrent transfers over one endpoint
(the concurrent transfer service in :mod:`repro.service`).  The default
``0`` means "the sole transfer on this endpoint" and encodes to the
original version-1 wire format, so single-transfer tools interoperate
byte-for-byte with pre-service peers.

Every frame is an immutable value.  The dataclass machinery supplies
``==``, ``hash``, ``repr``, pickling and the ``FrozenInstanceError`` on
assignment; each ``__init__`` is written out by hand, checks its
arguments first and then stores them through the slot descriptors —
the same rules and messages as a generated ``__init__`` plus
``__post_init__``, at under half their cost (the simulators build a
frame per packet; on sockets only replies are frames, data is runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

__all__ = [
    "FrameKind",
    "DataFrame",
    "AckFrame",
    "NakFrame",
    "ControlFrame",
]


def _slot_setters(cls):
    """``__set__`` of each slot descriptor of ``cls``, in field order:
    how a hand-written ``__init__`` stores into a frozen instance."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class FrameKind(IntEnum):
    """Discriminator used by the wire encoding."""

    DATA = 1
    ACK = 2
    NAK = 3
    CONTROL = 4


@dataclass(frozen=True, slots=True, init=False)
class DataFrame:
    """One data packet of a transfer.

    ``segment_crc`` optionally carries the CRC-32 of the *entire* data
    segment (Spector's whole-segment software checksum, implemented by
    the blast engine's ``verify_checksum`` option); the receiver checks
    it before acknowledging, catching silent interface corruption that
    the link CRC missed.
    """

    transfer_id: int
    seq: int
    total: int
    payload: bytes
    wants_reply: bool = False
    wire_bytes: int = -1
    segment_crc: int | None = None
    stream_id: int = 0

    def __init__(self, transfer_id: int, seq: int, total: int,
                 payload: bytes, wants_reply: bool = False,
                 wire_bytes: int = -1, segment_crc: int | None = None,
                 stream_id: int = 0) -> None:
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        if not 0 <= seq < total:
            raise ValueError(f"seq {seq} out of range for total {total}")
        if wire_bytes == -1:
            wire_bytes = len(payload)
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {stream_id}")
        _data_transfer_id(self, transfer_id)
        _data_seq(self, seq)
        _data_total(self, total)
        _data_payload(self, payload)
        _data_wants_reply(self, wants_reply)
        _data_wire_bytes(self, wire_bytes)
        _data_segment_crc(self, segment_crc)
        _data_stream_id(self, stream_id)

    @property
    def kind(self) -> FrameKind:
        return FrameKind.DATA


(_data_transfer_id, _data_seq, _data_total, _data_payload, _data_wants_reply,
 _data_wire_bytes, _data_segment_crc, _data_stream_id) = _slot_setters(DataFrame)


@dataclass(frozen=True, slots=True, init=False)
class AckFrame:
    """Positive acknowledgement of packet ``seq`` (or a whole blast)."""

    transfer_id: int
    seq: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __init__(self, transfer_id: int, seq: int, wire_bytes: int = 64,
                 stream_id: int = 0) -> None:
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {stream_id}")
        _ack_transfer_id(self, transfer_id)
        _ack_seq(self, seq)
        _ack_wire_bytes(self, wire_bytes)
        _ack_stream_id(self, stream_id)

    @property
    def kind(self) -> FrameKind:
        return FrameKind.ACK


_ack_transfer_id, _ack_seq, _ack_wire_bytes, _ack_stream_id = (
    _slot_setters(AckFrame))


@dataclass(frozen=True, slots=True, init=False)
class NakFrame:
    """Negative acknowledgement with the receiver's reception report."""

    transfer_id: int
    first_missing: int
    missing: Tuple[int, ...]
    total: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __init__(self, transfer_id: int, first_missing: int,
                 missing: Tuple[int, ...], total: int, wire_bytes: int = 64,
                 stream_id: int = 0) -> None:
        if not missing:
            raise ValueError("a NAK must name at least one missing packet")
        if tuple(sorted(set(missing))) != tuple(missing):
            raise ValueError("missing must be sorted and duplicate-free")
        if first_missing != missing[0]:
            raise ValueError("first_missing must equal missing[0]")
        if missing[-1] >= total:
            raise ValueError("missing seq out of range")
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {stream_id}")
        _nak_transfer_id(self, transfer_id)
        _nak_first_missing(self, first_missing)
        _nak_missing(self, missing)
        _nak_total(self, total)
        _nak_wire_bytes(self, wire_bytes)
        _nak_stream_id(self, stream_id)

    @property
    def kind(self) -> FrameKind:
        return FrameKind.NAK


(_nak_transfer_id, _nak_first_missing, _nak_missing, _nak_total,
 _nak_wire_bytes, _nak_stream_id) = _slot_setters(NakFrame)


@dataclass(frozen=True, slots=True, init=False)
class ControlFrame:
    """A small request/response message for application protocols.

    Used by the transfer service for its pull request and verdict; the
    body is application-defined bytes (the service uses UTF-8 JSON).
    ``request_id`` pairs responses with requests and enables duplicate
    suppression when requests are retransmitted.
    """

    transfer_id: int
    request_id: int
    body: bytes
    wire_bytes: int = -1
    stream_id: int = 0

    def __init__(self, transfer_id: int, request_id: int, body: bytes,
                 wire_bytes: int = -1, stream_id: int = 0) -> None:
        if request_id < 0:
            raise ValueError(f"request_id must be >= 0, got {request_id}")
        if wire_bytes == -1:
            wire_bytes = len(body)
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {stream_id}")
        _control_transfer_id(self, transfer_id)
        _control_request_id(self, request_id)
        _control_body(self, body)
        _control_wire_bytes(self, wire_bytes)
        _control_stream_id(self, stream_id)

    @property
    def kind(self) -> FrameKind:
        return FrameKind.CONTROL


(_control_transfer_id, _control_request_id, _control_body,
 _control_wire_bytes, _control_stream_id) = _slot_setters(ControlFrame)

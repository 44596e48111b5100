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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Tuple

__all__ = [
    "FrameKind",
    "DataFrame",
    "AckFrame",
    "NakFrame",
    "ControlFrame",
]


class FrameKind(IntEnum):
    """Discriminator used by the wire encoding."""

    DATA = 1
    ACK = 2
    NAK = 3
    CONTROL = 4


@dataclass(frozen=True, slots=True)
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
    wire_bytes: int = field(default=-1)
    segment_crc: int | None = None
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"total must be >= 1, got {self.total}")
        if not 0 <= self.seq < self.total:
            raise ValueError(f"seq {self.seq} out of range for total {self.total}")
        if self.wire_bytes == -1:
            object.__setattr__(self, "wire_bytes", len(self.payload))
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @property
    def kind(self) -> FrameKind:
        return FrameKind.DATA


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Positive acknowledgement of packet ``seq`` (or a whole blast)."""

    transfer_id: int
    seq: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @property
    def kind(self) -> FrameKind:
        return FrameKind.ACK


@dataclass(frozen=True, slots=True)
class NakFrame:
    """Negative acknowledgement with the receiver's reception report."""

    transfer_id: int
    first_missing: int
    missing: Tuple[int, ...]
    total: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not self.missing:
            raise ValueError("a NAK must name at least one missing packet")
        if tuple(sorted(set(self.missing))) != tuple(self.missing):
            raise ValueError("missing must be sorted and duplicate-free")
        if self.first_missing != self.missing[0]:
            raise ValueError("first_missing must equal missing[0]")
        if self.missing[-1] >= self.total:
            raise ValueError("missing seq out of range")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @property
    def kind(self) -> FrameKind:
        return FrameKind.NAK


@dataclass(frozen=True, slots=True)
class ControlFrame:
    """A small request/response message for application protocols.

    Used by the UDP file service for its command exchange; the body is
    application-defined bytes (the file service uses UTF-8 JSON).
    ``request_id`` pairs responses with requests and enables duplicate
    suppression when requests are retransmitted.
    """

    transfer_id: int
    request_id: int
    body: bytes
    wire_bytes: int = field(default=-1)
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ValueError(f"request_id must be >= 0, got {self.request_id}")
        if self.wire_bytes == -1:
            object.__setattr__(self, "wire_bytes", len(self.body))
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    @property
    def kind(self) -> FrameKind:
        return FrameKind.CONTROL

"""Receiver-side bookkeeping of which packets have arrived, shared by
every receiver: arrivals (duplicates tolerated, since retransmission
makes them constantly), completeness, and the reception report a
negative acknowledgement carries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

__all__ = ["ReceiverTracker", "ReceptionReport"]


@dataclass(frozen=True)
class ReceptionReport:
    """Snapshot of reception state as carried in an ACK/NAK."""

    total: int
    complete: bool
    first_missing: Optional[int]
    missing: Tuple[int, ...]


class ReceiverTracker:
    """Tracks which of a transfer's ``total`` packets have arrived."""

    def __init__(self, total: int):
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.total = total
        #: Arrived seqs (:meth:`add` checks; a checked run may add here).
        self.received: Set[int] = set()
        self.duplicates = 0

    def add(self, seq: int) -> bool:
        """Record packet ``seq``; returns True if it was new."""
        if not 0 <= seq < self.total:
            raise ValueError(f"seq {seq} out of range for total {self.total}")
        if seq in self.received:
            self.duplicates += 1
            return False
        self.received.add(seq)
        return True

    @property
    def is_complete(self) -> bool:
        """True once every packet has arrived."""
        return len(self.received) == self.total

    def missing(self) -> Tuple[int, ...]:
        """All sequence numbers not yet received, ascending."""
        return tuple(seq for seq in range(self.total) if seq not in self.received)

    def report(self) -> ReceptionReport:
        """Build the report an ACK/NAK would carry right now."""
        missing = self.missing()
        return ReceptionReport(
            total=self.total,
            complete=not missing,
            first_missing=missing[0] if missing else None,
            missing=missing,
        )

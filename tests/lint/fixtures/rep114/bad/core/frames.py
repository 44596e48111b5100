"""Frame vocabulary for the REP114 bad fixture: RESET has no dispatcher."""

import enum


class FrameKind(enum.IntEnum):
    DATA = 1
    ACK = 2
    NAK = 3
    RESET = 4


class DataFrame:
    def __init__(self, seq: int, payload: bytes, wants_reply: bool = False):
        self.seq = seq
        self.payload = payload
        self.wants_reply = wants_reply


class AckFrame:
    def __init__(self, seq: int):
        self.seq = seq


class NakFrame:
    def __init__(self, missing):
        self.missing = tuple(missing)


class ResetFrame:
    def __init__(self, reason: str):
        self.reason = reason

"""REP114 bad fixture: one machine per model-check failure.

Every machine declares RESET ignored, so nothing dispatches on it —
which is itself reported, against ``core/frames.py``.
"""

from core.frames import AckFrame, DataFrame, FrameKind, NakFrame


class LeakySender:
    """Neither handles, speaks, nor ignores NAK — exhaustiveness gap."""

    FSM_IGNORES = (FrameKind.RESET,)

    def push(self, seq: int, payload: bytes) -> DataFrame:
        return DataFrame(seq, payload)

    def on_frame(self, frame) -> bool:
        return isinstance(frame, AckFrame)


class CarefulSender:
    """Declares DATA ignored while its own body dispatches on it."""

    FSM_IGNORES = (FrameKind.DATA, FrameKind.RESET)

    def on_frame(self, frame) -> str:
        if isinstance(frame, DataFrame):
            return "data"
        if isinstance(frame, (AckFrame, NakFrame)):
            return "reply"
        return "other"


class ResettingSender:
    """Terminal flag resurrected outside the constructor."""

    FSM_IGNORES = (FrameKind.NAK, FrameKind.RESET)

    def __init__(self) -> None:
        self.done = False
        self.outbox = DataFrame(0, b"")

    def finish(self) -> None:
        self.done = True

    def on_frame(self, frame) -> None:
        if isinstance(frame, AckFrame):
            self.done = False


class NakOnlyReceiver:
    """Speaks NAK but never ACK — cannot terminate positively."""

    FSM_IGNORES = (FrameKind.ACK, FrameKind.RESET)

    def on_frame(self, frame):
        if isinstance(frame, DataFrame):
            return NakFrame((frame.seq,))
        return None


class EagerSender:
    """Asks for replies (wants_reply) but never handles ACK."""

    FSM_IGNORES = (FrameKind.ACK, FrameKind.NAK, FrameKind.RESET)

    def push(self, seq: int, payload: bytes) -> DataFrame:
        return DataFrame(seq, payload, wants_reply=True)

    def on_frame(self, frame) -> None:
        return None

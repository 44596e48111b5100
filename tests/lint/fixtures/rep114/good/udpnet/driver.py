"""REP114 good fixture: all kinds covered and dispatched, terminals absorb."""

from core.frames import AckFrame, DataFrame, FrameKind, NakFrame


class SteadySender:
    """Speaks DATA, handles ACK, explicitly ignores NAK."""

    FSM_IGNORES = (FrameKind.NAK,)

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = False
        self.failed = False

    def push(self, seq: int, payload: bytes) -> DataFrame:
        return DataFrame(seq, payload)

    def on_frame(self, frame) -> None:
        if isinstance(frame, AckFrame) and frame.seq == self.total - 1:
            self.done = True

    def give_up(self) -> None:
        self.failed = True


class SteadyReceiver:
    """Handles DATA, speaks both reply kinds."""

    def __init__(self) -> None:
        self.highest = -1

    def on_frame(self, frame):
        if not isinstance(frame, DataFrame):
            return None
        if frame.seq == self.highest + 1:
            self.highest = frame.seq
            return AckFrame(frame.seq)
        return NakFrame((self.highest + 1,))


class RetryingSender:
    """Speaks DATA, handles ACK and NAK (a NAK rewinds the cursor)."""

    def __init__(self) -> None:
        self.cursor = 0

    def push(self, payload: bytes) -> DataFrame:
        return DataFrame(self.cursor, payload)

    def on_frame(self, frame) -> None:
        if isinstance(frame, NakFrame):
            self.cursor = frame.missing[0]
        elif isinstance(frame, AckFrame):
            self.cursor = frame.seq + 1

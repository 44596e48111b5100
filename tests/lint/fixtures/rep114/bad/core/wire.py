"""REP114 bad fixture codec: cannot carry ResetFrame."""

from .frames import AckFrame, DataFrame, FrameKind, NakFrame


def encode(frame):
    if isinstance(frame, DataFrame):
        return (FrameKind.DATA, frame)
    if isinstance(frame, AckFrame):
        return (FrameKind.ACK, frame)
    if isinstance(frame, NakFrame):
        return (FrameKind.NAK, frame)
    raise ValueError("unknown frame")

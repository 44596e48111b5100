"""The paper's contribution: large-transfer protocols and their engines.

Public surface:

- frames and wire encoding (shared with the UDP transport),
- receiver tracking and retransmission strategies (pure logic),
- the simulated transfers (stop-and-wait, sliding window, blast,
  multi-blast): DES drivers over the machines of :mod:`repro.service.machines`,
- the one-call experiment runners.
"""

from .base import (
    BlastTransfer,
    MultiBlastTransfer,
    SlidingWindowTransfer,
    StopAndWaitTransfer,
    Transfer,
    TransferResult,
    TransferStats,
    reassemble,
)
from .frames import (
    AckFrame,
    ControlFrame,
    DataFrame,
    FrameKind,
    NakFrame,
)
from .runner import PROTOCOLS, RunSummary, run_many, run_transfer
from .strategies import (
    STRATEGY_REGISTRY,
    FailureDetection,
    FullRetransmission,
    FullRetransmissionWithNak,
    GoBackN,
    RetransmissionStrategy,
    SelectiveRepeat,
    get_strategy,
)
from .timers import AdaptiveTimeout, FixedTimeout, TimeoutPolicy
from .tracker import ReceiverTracker, ReceptionReport
from .wire import HEADER_BYTES, WireError, decode, encode

__all__ = [
    "Transfer",
    "TransferResult",
    "TransferStats",
    "reassemble",
    "DataFrame",
    "AckFrame",
    "NakFrame",
    "ControlFrame",
    "FrameKind",
    "TimeoutPolicy",
    "FixedTimeout",
    "AdaptiveTimeout",
    "ReceiverTracker",
    "ReceptionReport",
    "RetransmissionStrategy",
    "FailureDetection",
    "FullRetransmission",
    "FullRetransmissionWithNak",
    "GoBackN",
    "SelectiveRepeat",
    "STRATEGY_REGISTRY",
    "get_strategy",
    "StopAndWaitTransfer",
    "SlidingWindowTransfer",
    "BlastTransfer",
    "MultiBlastTransfer",
    "PROTOCOLS",
    "run_transfer",
    "run_many",
    "RunSummary",
    "encode",
    "decode",
    "WireError",
    "HEADER_BYTES",
]

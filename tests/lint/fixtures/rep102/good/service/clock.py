"""Real-socket transports measure real time — service/ is exempt."""

import time


def elapsed(start: float) -> float:
    return time.monotonic() - start

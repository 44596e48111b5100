"""Where the numbers were taken: core pinning and the fingerprint
printed beside every result."""

from __future__ import annotations

import contextlib
import os
import platform
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Pinning", "pinned", "fingerprint"]

UNPINNED_WARNING = (
    "layerbench: WARNING: fewer than two allowed cores (or no "
    "sched_setaffinity): running unpinned; the regression bounds in "
    "BENCHMARK.json were calibrated pinned and do not hold"
)


@dataclass(frozen=True)
class Pinning:
    """The load generator's core and the program's core (None: unpinned)."""

    pump_cpu: Optional[int] = None
    child_cpu: Optional[int] = None

    @property
    def pinned(self) -> bool:
        return self.child_cpu is not None


@contextlib.contextmanager
def pinned() -> Iterator[Pinning]:
    """Pin this process to the first allowed core for the duration and
    name the last allowed core for the child; restore on exit."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        allowed = []
    if len(allowed) < 2:
        print(UNPINNED_WARNING, file=sys.stderr)
        yield Pinning()
        return
    os.sched_setaffinity(0, {allowed[0]})
    try:
        yield Pinning(pump_cpu=allowed[0], child_cpu=allowed[-1])
    finally:
        os.sched_setaffinity(0, allowed)


def _read_int(path: str) -> Optional[int]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return int(handle.read().strip())
    except (OSError, ValueError):
        return None


def fingerprint(pinning: Pinning, seed: int, seconds: float) -> dict:
    """Machine and run facts recorded with every result."""
    try:
        from repro.service.iobatch import HAS_RECVMMSG, HAS_SENDMMSG
    except ImportError:  # the flags are a courtesy, not a dependency
        HAS_RECVMMSG = HAS_SENDMMSG = None

    return {
        "nproc": os.cpu_count(),
        "pinned": pinning.pinned,
        "pump_cpu": pinning.pump_cpu,
        "child_cpu": pinning.child_cpu,
        "python": platform.python_version(),
        "rmem_default": _read_int("/proc/sys/net/core/rmem_default"),
        "has_recvmmsg": HAS_RECVMMSG,
        "has_sendmmsg": HAS_SENDMMSG,
        "link": "loopback",
        "seed": seed,
        "seconds": seconds,
    }

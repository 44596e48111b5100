"""Synthetic file-access traces for the example applications.

A trace is a reproducible sequence of :class:`AccessRequest` records —
reads and writes of named files with realistic size and popularity
skew — used by the file-server example and the workload benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from .sizes import file_size_mix

__all__ = ["AccessRequest", "FileAccessTrace", "make_trace"]


@dataclass(frozen=True)
class AccessRequest:
    """One file access: operation, file name, size in bytes."""

    op: str  # "read" or "write"
    filename: str
    size: int

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be read/write, got {self.op!r}")
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass(frozen=True)
class FileAccessTrace:
    """A replayable trace plus the file population it references."""

    requests: List[AccessRequest]
    files: Dict[str, int]  # filename -> size


def make_trace(
    n_files: int = 20,
    n_requests: int = 100,
    read_fraction: float = 0.8,
    zipf_s: float = 1.1,
    seed: int = 0,
) -> FileAccessTrace:
    """Build a trace with Zipf-skewed file popularity.

    Reads dominate (``read_fraction``, default 80 % — the classic
    BSD-trace result) and a few hot files take most accesses.
    """
    if n_files < 1 or n_requests < 0:
        raise ValueError("n_files >= 1 and n_requests >= 0 required")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = random.Random(seed)
    sizes = file_size_mix(count=n_files, seed=seed)
    files = {f"file{i:03d}.dat": size for i, size in enumerate(sizes)}
    names = list(files)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(n_files)]
    requests = []
    for _ in range(n_requests):
        name = rng.choices(names, weights)[0]
        op = "read" if rng.random() < read_fraction else "write"
        requests.append(AccessRequest(op=op, filename=name, size=files[name]))
    return FileAccessTrace(requests=requests, files=files)

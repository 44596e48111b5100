"""Transfer-size workload generators.

The paper's motivation is file access with large page sizes [refs 10, 12,
15 therein]: transfers one to two orders of magnitude above the 1 KB
packet size, plus the occasional remote file-system dump far beyond
that.  These generators produce the corresponding size mixes with
deterministic seeding.
"""

from __future__ import annotations

import random
from typing import List

__all__ = [
    "PAPER_TABLE_SIZES",
    "paper_table_sizes",
    "page_cluster_sizes",
    "file_size_mix",
]

#: The transfer sizes of the paper's Tables 1 and 3 (bytes).
PAPER_TABLE_SIZES = (1024, 4096, 16384, 65536)


def paper_table_sizes() -> List[int]:
    """The 1/4/16/64 KB sizes the paper's tables report."""
    return list(PAPER_TABLE_SIZES)


def page_cluster_sizes(
    base_page: int = 4096, max_cluster: int = 16, count: int = 100, seed: int = 0
) -> List[int]:
    """Power-of-two page-cluster reads (4 KB .. 64 KB by default).

    Models a file system that clusters pages for sequential access;
    larger clusters are geometrically rarer, matching trace studies
    where most reads are small but most *bytes* move in big requests.
    """
    if base_page < 1 or max_cluster < 1 or count < 0:
        raise ValueError("base_page, max_cluster must be >= 1; count >= 0")
    rng = random.Random(seed)
    clusters = []
    size = 1
    while size <= max_cluster:
        clusters.append(size)
        size *= 2
    weights = [2.0 ** (len(clusters) - i) for i in range(len(clusters))]
    return [base_page * rng.choices(clusters, weights)[0] for _ in range(count)]


def file_size_mix(
    count: int = 100,
    median_bytes: int = 16 * 1024,
    sigma: float = 1.2,
    max_bytes: int = 1 << 22,
    seed: int = 0,
) -> List[int]:
    """Log-normal file sizes (the classic long-tailed file-size shape).

    Sizes are clamped to ``[1, max_bytes]`` and rounded to whole bytes.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if median_bytes < 1 or max_bytes < 1:
        raise ValueError("sizes must be >= 1")
    rng = random.Random(seed)
    import math

    mu = math.log(median_bytes)
    sizes = []
    for _ in range(count):
        size = int(round(rng.lognormvariate(mu, sigma)))
        sizes.append(max(1, min(size, max_bytes)))
    return sizes

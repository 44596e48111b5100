"""Workload generators: size mixes, arrival patterns, and access traces."""

from .arrivals import (
    ARRIVAL_GENERATORS,
    make_arrivals,
    poisson_arrivals,
    simultaneous_arrivals,
    uniform_arrivals,
)
from .sizes import (
    PAPER_TABLE_SIZES,
    file_size_mix,
    page_cluster_sizes,
    paper_table_sizes,
)
from .traces import AccessRequest, FileAccessTrace, make_trace

__all__ = [
    "ARRIVAL_GENERATORS",
    "make_arrivals",
    "simultaneous_arrivals",
    "uniform_arrivals",
    "poisson_arrivals",
    "PAPER_TABLE_SIZES",
    "paper_table_sizes",
    "page_cluster_sizes",
    "file_size_mix",
    "AccessRequest",
    "FileAccessTrace",
    "make_trace",
]

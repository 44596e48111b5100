"""Simulated LAN substrate: parameters, errors, medium, interfaces, hosts.

This package is the stand-in for the paper's physical testbed (SUN
workstations + 3-Com interfaces on a 10 Mb/s Ethernet); see DESIGN.md §2
for the substitution argument.
"""

from .errors import (
    BernoulliErrors,
    ErrorModel,
    GilbertElliott,
    PerfectChannel,
    SilentCorruption,
)
from .contention import BackgroundLoad
from .host import Host, make_lan, make_network
from .interface import DmaInterface, Interface
from .medium import Medium
from .params import (
    ACK_BYTES,
    DATA_PACKET_BYTES,
    ETHERNET_BANDWIDTH_BPS,
    PROPAGATION_DELAY_S,
    CopyCostModel,
    NetworkParams,
)
from .trace import Activity, Span, TraceRecorder, total_overlap

__all__ = [
    "ErrorModel",
    "PerfectChannel",
    "BernoulliErrors",
    "GilbertElliott",
    "SilentCorruption",
    "Host",
    "make_lan",
    "make_network",
    "BackgroundLoad",
    "Interface",
    "DmaInterface",
    "Medium",
    "NetworkParams",
    "CopyCostModel",
    "DATA_PACKET_BYTES",
    "ACK_BYTES",
    "ETHERNET_BANDWIDTH_BPS",
    "PROPAGATION_DELAY_S",
    "Activity",
    "Span",
    "TraceRecorder",
    "total_overlap",
]

"""A compact discrete-event simulation kernel (SimPy-style, from scratch).

This package provides the substrate every simulated subsystem in the
repository runs on: a simulated clock, generator-based processes,
timeouts, condition events, counting resources and FIFO
stores.  See DESIGN.md §3 for where it sits in the system.
"""

from .environment import EmptySchedule, Environment
from .events import AllOf, Event, StopSimulation, Timeout
from .processes import Process
from .resources import Resource
from .store import Store, StoreGet, StorePut

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AllOf",
    "StopSimulation",
    "Process",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
]

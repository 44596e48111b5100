"""Deterministic fault injection across every execution substrate.

The package has four layers:

- :mod:`repro.faults.plan` — the frame-keyed :class:`FaultPlan` DSL
  (drop / duplicate / reorder / delay / corrupt rules) and its
  substrate-independent interpreter, :class:`PlanExecutor`;
- :mod:`repro.faults.plans` — the builtin library of bounded plans the
  conformance matrix sweeps;
- the two adapters — :class:`ScriptedErrors` for the simulated wire
  (V-kernel IPC included: its messages cross the same wire) and
  :class:`FaultySocket` for real UDP sockets;
- :mod:`repro.faults.conformance` — the protocol × strategy × plan
  matrix harness behind ``repro faults`` (imported explicitly, not
  here, to keep this package import-light and cycle-free).
"""

from .plan import (
    ACTIONS,
    DIRECTIONS,
    KINDS,
    FaultDecision,
    FaultPlan,
    FaultRule,
    PlanExecutor,
    frame_stream_key,
)
from .plans import BUILTIN_PLANS, builtin_plan, builtin_plan_names
from .scripted import ScriptedErrors
from .socket import FaultySocket

__all__ = [
    "ACTIONS",
    "DIRECTIONS",
    "KINDS",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "PlanExecutor",
    "frame_stream_key",
    "BUILTIN_PLANS",
    "builtin_plan",
    "builtin_plan_names",
    "ScriptedErrors",
    "FaultySocket",
]

"""Span recording from outside the program: wrap a layer's public
callables, keep per-function totals and the first raw spans in memory.

The benchmark owns every wrapper, so ``src/repro`` carries no tracing
code and an untraced run pays nothing.  A span's *self time* is its
duration minus the durations of the spans it directly caused (its
children); summed over a call tree the self times equal the root's
duration, which is what lets the ledger account for a whole run.

Targets are named ``"package.module:Attr.attr"``.  A name that no longer
resolves is recorded in :attr:`Tracer.missing` and skipped: the metrics
built on it read ``null``, and nothing fails.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "Probe", "SERVICE_PROBES", "UDP_SERVER_PROBES",
           "PUMP_PROBES"]

#: Raw spans kept per process (id, parent id, key, start ns, end ns).
MAX_RAW_SPANS = 10_000

#: (span key, target, what to count from the return value or None)
Probe = Tuple[str, str, Optional[Callable[[object], int]]]


def _is_drop(sent) -> int:
    return 1 if sent == 0 else 0


# ServiceCore and everything under it: runs in both the UDP server and
# the DES service worker.
SERVICE_PROBES: Sequence[Probe] = (
    ("engine.on_frame", "repro.service.engine:ServiceCore.on_frame", None),
    ("engine.drain_sends", "repro.service.engine:ServiceCore.drain_sends",
     len),
    ("engine.poll", "repro.service.engine:ServiceCore.poll", len),
    ("engine.next_deadline",
     "repro.service.engine:ServiceCore.next_deadline", None),
    ("scheduler.grants",
     "repro.service.scheduler:FifoPolicy.grants", len),
    ("scheduler.grants",
     "repro.service.scheduler:RoundRobinPolicy.grants", len),
    ("scheduler.grants",
     "repro.service.scheduler:CopyBudgetPolicy.grants", len),
    ("machines.next_frame",
     "repro.service.machines:BlastSenderMachine.next_frame", None),
    ("machines.next_frame",
     "repro.service.machines:WindowSenderMachine.next_frame", None),
    ("machines.on_frame",
     "repro.service.machines:BlastSenderMachine.on_frame", None),
    ("machines.on_frame",
     "repro.service.machines:WindowSenderMachine.on_frame", None),
    ("metrics.events",
     "repro.service.metrics:ServiceMetrics.on_submitted", None),
    ("metrics.events",
     "repro.service.metrics:ServiceMetrics.on_started", None),
    ("metrics.events",
     "repro.service.metrics:ServiceMetrics.on_finished", None),
    ("metrics.events",
     "repro.service.metrics:ServiceMetrics.on_queue_depth", None),
)

# The socket side of the server.  encode_into and decode are wrapped
# under the names ``from ... import`` bound in their callers' modules,
# because that is the reference the hot loops actually call.
UDP_SERVER_PROBES: Sequence[Probe] = (
    ("udpservice.serve",
     "repro.service.udpservice:UdpTransferService.serve", None),
    ("udpservice.select", "selectors:DefaultSelector.select", None),
    ("wire.decode", "repro.service.udpservice:decode", None),
    ("wire.encode_into", "repro.service.iobatch:encode_into", None),
    ("iobatch.send_frame",
     "repro.service.iobatch:DatagramBatchIO.send_frame", _is_drop),
    ("iobatch.recv_batch",
     "repro.service.iobatch:DatagramBatchIO.recv_batch", len),
)

# The load generator's side, installed in the benchmark process for the
# traced phase only.
PUMP_PROBES: Sequence[Probe] = (
    ("clientpump.on_readable",
     "repro.service.clientpump:_PumpClient.on_readable", None),
    ("clientpump.recv_batch",
     "repro.service.iobatch:DatagramBatchIO.recv_batch", len),
    ("clientpump.send",
     "repro.service.iobatch:DatagramBatchIO.send_frame", None),
    ("clientpump.send",
     "repro.service.iobatch:DatagramBatchIO.send_datagram", None),
)


def _resolve(target: str):
    """``"pkg.mod:A.b"`` -> (owner object, attribute name, callable)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Per-key count / total / self / units, a span stack, raw spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 max_raw_spans: int = MAX_RAW_SPANS):
        self._clock = clock
        self._max_raw = max_raw_spans
        #: key -> [calls, total ns, self ns, units counted from results]
        self.totals: Dict[str, List[int]] = {}
        #: (span id, parent span id or 0, key, start ns, end ns)
        self.raw_spans: List[Tuple[int, int, str, int, int]] = []
        self.missing: List[str] = []
        self._missing_keys: List[str] = []
        self._stack: List[List[int]] = []   # [span id, child ns so far]
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, key: str, func: Callable,
             count: Optional[Callable[[object], int]] = None) -> Callable:
        """Return ``func`` wrapped in a span named ``key``."""
        total = self.totals.setdefault(key, [0, 0, 0, 0])
        stack = self._stack
        raw = self.raw_spans
        clock = self._clock
        max_raw = self._max_raw

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    total[3] += count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(raw) < max_raw:
                    raw.append((span_id, parent[0] if parent else 0, key,
                                start, end))

        traced.__wrapped__ = func
        return traced

    def install(self, probes: Sequence[Probe]) -> None:
        """Patch every resolvable target; note the rest in ``missing``."""
        for key, target, count in probes:
            try:
                owner, leaf, func = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                self._missing_keys.append(key)
                continue
            self._undo.append((owner, leaf, func))
            setattr(owner, leaf, self.wrap(key, func, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, func = self._undo.pop()
            setattr(owner, leaf, func)

    def dump(self) -> dict:
        """JSON-ready snapshot sent from a traced child to the parent."""
        return {
            "totals": {
                key: {"calls": t[0], "total_ns": t[1], "self_ns": t[2],
                      "units": t[3]}
                for key, t in self.totals.items()
            },
            "missing": list(self.missing),
            # Keys none of whose targets resolved: their metrics are null.
            "missing_keys": sorted(set(self._missing_keys)
                                   - set(self.totals)),
            "raw_spans": [list(span) for span in self.raw_spans],
        }

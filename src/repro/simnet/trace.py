"""Event tracing for simulated transfers.

The paper's Figures 2 and 3 are *timelines*: horizontal bars showing when
each processor is copying and when the wire is transmitting, making the
copy-overlap argument visually.  :class:`TraceRecorder` captures the same
information from a simulation run — every copy, transmission, delivery and
drop as a timed interval — and provides the queries the benches need:

- total time per activity kind (Table 2's cost breakdown),
- pairwise overlap between the two hosts' copy activity (the quantitative
  heart of Figure 3: blast/sliding-window overlap, stop-and-wait does not),
- ASCII timeline rendering (Figure 1/3 regeneration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Activity", "Span", "TraceRecorder", "total_overlap"]


class Activity:
    """Activity kinds recorded in a trace (string constants)."""

    COPY_IN = "copy_in"        # processor copies a frame into its interface
    COPY_OUT = "copy_out"      # processor copies a frame out of its interface
    TRANSMIT = "transmit"      # frame occupies the wire
    PROPAGATE = "propagate"    # frame in flight after leaving the wire
    DEVICE = "device"          # residual device latency
    DROP = "drop"              # frame lost (zero-length span)
    CORRUPT = "corrupt"        # frame delivered with damaged payload
    TIMEOUT = "timeout"        # retransmission timer expiry (zero-length)

    ALL = (COPY_IN, COPY_OUT, TRANSMIT, PROPAGATE, DEVICE, DROP, CORRUPT, TIMEOUT)


@dataclass(frozen=True)
class Span:
    """One timed activity: ``kind`` at ``actor`` over [start, end]."""

    kind: str
    actor: str
    start: float
    end: float
    frame: Optional[object] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


def total_overlap(a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]) -> float:
    """Total time during which any interval of ``a`` overlaps any of ``b``.

    Intervals within each sequence are first merged, so overlapping spans
    on the same side are not double counted.
    """

    def merge(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
        merged: List[Tuple[float, float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    overlap = 0.0
    ia, ib = merge(a), merge(b)
    i = j = 0
    while i < len(ia) and j < len(ib):
        lo = max(ia[i][0], ib[j][0])
        hi = min(ia[i][1], ib[j][1])
        if hi > lo:
            overlap += hi - lo
        if ia[i][1] <= ib[j][1]:
            i += 1
        else:
            j += 1
    return overlap


class TraceRecorder:
    """Collects :class:`Span` records during a simulation run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(
        self,
        kind: str,
        actor: str,
        start: float,
        end: float,
        frame: Optional[object] = None,
        note: str = "",
    ) -> None:
        """Append one span (validated against known activity kinds)."""
        if kind not in Activity.ALL:
            raise ValueError(f"unknown activity kind {kind!r}")
        self.spans.append(Span(kind, actor, start, end, frame, note))

    # -- queries -------------------------------------------------------------
    def by_kind(self, kind: str, actor: Optional[str] = None) -> List[Span]:
        """All spans of ``kind`` (optionally restricted to one actor)."""
        return [
            s
            for s in self.spans
            if s.kind == kind and (actor is None or s.actor == actor)
        ]

    def actors(self) -> List[str]:
        """Distinct actors in trace order of first appearance."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.actor, None)
        return list(seen)

    def total_time(self, kind: str, actor: Optional[str] = None) -> float:
        """Summed duration of spans of ``kind`` (per actor if given)."""
        return sum(s.duration for s in self.by_kind(kind, actor))

    def breakdown(self, actor: Optional[str] = None) -> Dict[str, float]:
        """Total time per activity kind — Table 2's decomposition."""
        result: Dict[str, float] = {}
        for span in self.spans:
            if actor is not None and span.actor != actor:
                continue
            result[span.kind] = result.get(span.kind, 0.0) + span.duration
        return result

    def copy_overlap(self, actor_a: str, actor_b: str) -> float:
        """Time both actors spend copying *simultaneously*.

        This is the paper's Figure 3 claim in one number: near zero for
        stop-and-wait, roughly ``(N-1) x min(C, ...)`` for blast and
        sliding window.
        """
        copies_a = [
            (s.start, s.end)
            for s in self.spans
            if s.actor == actor_a and s.kind in (Activity.COPY_IN, Activity.COPY_OUT)
        ]
        copies_b = [
            (s.start, s.end)
            for s in self.spans
            if s.actor == actor_b and s.kind in (Activity.COPY_IN, Activity.COPY_OUT)
        ]
        return total_overlap(copies_a, copies_b)

    def busy_time(self, actor: str) -> float:
        """Total processor-busy (copying) time for one actor."""
        return self.total_time(Activity.COPY_IN, actor) + self.total_time(
            Activity.COPY_OUT, actor
        )

    def drops(self) -> List[Span]:
        """All recorded frame losses."""
        return self.by_kind(Activity.DROP)

    @property
    def end_time(self) -> float:
        """Latest span end in the trace (0.0 when empty)."""
        return max((s.end for s in self.spans), default=0.0)

    # -- rendering -------------------------------------------------------------
    def render_ascii(
        self,
        width: int = 72,
        actors: Optional[Sequence[str]] = None,
        kinds: Sequence[str] = (Activity.COPY_IN, Activity.COPY_OUT, Activity.TRANSMIT),
    ) -> str:
        """Render the trace as an ASCII timeline (Figure 3 style).

        One row per (actor, kind); time maps linearly onto ``width``
        columns.  Copy activity renders as ``#``, transmissions as ``=``.
        """
        if not self.spans:
            return "(empty trace)"
        actors = list(actors) if actors is not None else self.actors()
        horizon = self.end_time or 1.0
        glyphs = {
            Activity.COPY_IN: "#",
            Activity.COPY_OUT: "#",
            Activity.TRANSMIT: "=",
            Activity.PROPAGATE: "-",
            Activity.DEVICE: ".",
        }
        label_width = max(
            [len(f"{actor} {kind}") for actor in actors for kind in kinds] + [1]
        )
        lines = []
        for actor in actors:
            for kind in kinds:
                spans = self.by_kind(kind, actor)
                if not spans:
                    continue
                row = [" "] * width
                for span in spans:
                    lo = int(span.start / horizon * (width - 1))
                    hi = int(span.end / horizon * (width - 1))
                    for col in range(lo, max(hi, lo + 1)):
                        row[col] = glyphs.get(kind, "?")
                lines.append(f"{f'{actor} {kind}':<{label_width}} |{''.join(row)}|")
        scale = f"{'':<{label_width}}  0{'':>{width - 12}}{horizon * 1e3:8.2f} ms"
        lines.append(scale)
        return "\n".join(lines)

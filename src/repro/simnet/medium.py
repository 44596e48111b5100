"""The shared network medium (a 10 Mb/s Ethernet under low load).

The wire is a mutual-exclusion resource: one frame transmits at a time,
and a host wanting to transmit while the wire is busy defers until it is
idle (carrier sense).  Under the paper's low-load conditions there are no
collisions to model — the only contention is between the two endpoints of
a transfer (data packets vs acknowledgements), which CSMA carrier-sense
deference resolves deterministically.  A probabilistic CSMA/CD extension
lives in :mod:`repro.simnet.contention`.

Loss is decided at the end of the wire phase by the configured
:class:`~repro.simnet.errors.ErrorModel`, one ``fate()`` per frame,
covering both the paper's wire errors and its interface errors (which
side drops the frame is indistinguishable at protocol level).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..sim import Environment, Resource
from .errors import ErrorModel, PerfectChannel
from .params import NetworkParams
from .trace import Activity, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface

__all__ = ["Medium"]


class Medium:
    """Point-to-point-or-broadcast wire with carrier-sense serialisation.

    Parameters
    ----------
    env, params:
        Simulation environment and network constants.
    error_model:
        Frame-loss model (default: :class:`PerfectChannel`).
    trace:
        Optional :class:`TraceRecorder` for timeline capture.
    """

    def __init__(
        self,
        env: Environment,
        params: NetworkParams,
        error_model: Optional[ErrorModel] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.env = env
        self.params = params
        self.error_model = error_model if error_model is not None else PerfectChannel()
        self.trace = trace
        self.wire = Resource(env, capacity=1)
        # Bound once; each frame's wire time is params.transmission_time's
        # expression on them.
        self._bandwidth_bps = params.bandwidth_bps
        self._latency_s = params.propagation_delay_s + params.device_latency_s
        self.frames_transmitted = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.bytes_transmitted = 0
        self.busy_until = 0.0

    def transmit(self, frame, src_name: str, dst: "Interface"):
        """Transmit ``frame`` towards ``dst`` (generator).

        Returns once the frame has left the wire (so the caller can free
        its transmit buffer); propagation and delivery continue on a
        timer.
        """
        wait = self.wire.acquire()
        if wait is not None:
            yield wait
        start = self.env.now
        yield self.env.timeout(8.0 * frame.wire_bytes / self._bandwidth_bps)
        self.wire.release()
        self._left_wire(frame, src_name, dst, start)

    def transmit_detached(self, frame, src_name: str, dst: "Interface", then) -> None:
        """:meth:`transmit` for a sender that does not wait: the same wire
        phase run from event callbacks, ``then()`` called once the frame
        has left the wire (the interrupt-driven interface frees its
        transmit buffer there)."""
        wire_time = 8.0 * frame.wire_bytes / self._bandwidth_bps

        def off_wire(timer):
            self.wire.release()
            self._left_wire(frame, src_name, dst, start=timer._value)
            then()

        def on_wire(_granted=None):
            # A timer that remembers when the wire became ours.
            self.env.timeout(wire_time, self.env.now).callbacks = [off_wire]

        wait = self.wire.acquire()
        if wait is None:
            on_wire()
        else:
            wait.callbacks = [on_wire]

    def _left_wire(self, frame, src_name: str, dst: "Interface", start: float) -> None:
        """Account for a finished wire phase and schedule the arrival(s).

        The loss decision is made here, in wire order, so deterministic
        drop scripts see frames in a stable order.
        """
        end = self.env.now
        self.busy_until = end
        if self.trace is not None:
            self.trace.record(Activity.TRANSMIT, src_name, start, end, frame)
        self.frames_transmitted += 1
        self.bytes_transmitted += frame.wire_bytes
        lost, corrupted, copies, extra_delay = self.error_model.fate(frame)
        delay = self._latency_s + extra_delay
        self.frames_duplicated += copies
        # A lost frame has no duplicates, so every copy shares one tuple.
        arrival = (frame, src_name, dst, end, lost, corrupted)
        for _ in range(1 + copies):
            self.env.timeout(delay, arrival).callbacks = [self._arrive]

    @staticmethod
    def _damage(frame):
        """A copy of ``frame`` with its payload silently damaged.

        Frames without a non-empty bytes payload — acknowledgements, and
        V-kernel messages, whose payload is a tuple of values — have no
        data to damage undetectably; a corrupted control frame fails its
        own consistency checks at the receiver, which is indistinguishable
        from loss, so ``None`` is returned and the caller drops it.
        """
        payload = getattr(frame, "payload", None)
        if not isinstance(payload, bytes) or not payload:
            return None
        damaged = bytes([payload[0] ^ 0xFF]) + payload[1:]
        return dataclasses.replace(frame, payload=damaged)

    def _arrive(self, timer) -> None:
        """End of propagation + device latency: hand the frame to its
        destination (timer callback, one per delivered copy)."""
        frame, src_name, dst, start, lost, corrupted = timer._value
        if self.trace is not None and self.params.propagation_delay_s > 0:
            self.trace.record(
                Activity.PROPAGATE,
                src_name,
                start,
                start + self.params.propagation_delay_s,
                frame,
            )
        if lost:
            self.frames_dropped += 1
            if self.trace is not None:
                now = self.env.now
                self.trace.record(
                    Activity.DROP, dst.name, now, now, frame, note="channel loss"
                )
            return
        if corrupted:
            damaged = self._damage(frame)
            if damaged is None:
                # Corrupted control frame: garbage on arrival = a loss.
                self.frames_dropped += 1
                if self.trace is not None:
                    now = self.env.now
                    self.trace.record(
                        Activity.DROP, dst.name, now, now, frame,
                        note="corrupted control frame",
                    )
                return
            self.frames_corrupted += 1
            if self.trace is not None:
                now = self.env.now
                self.trace.record(
                    Activity.CORRUPT, dst.name, now, now, frame,
                    note="silent payload corruption",
                )
            dst.deliver(damaged)
            return
        dst.deliver(frame)

"""Network interface models.

The paper's conclusions hinge on interface architecture:

- the **3-Com Multibus** board has a single transmit buffer — the
  processor copies a packet in (cost C), the board puts it on the wire
  (cost T), and only then can the next copy start;
- a hypothetical **double-buffered** board lets the copy of packet k+1
  overlap the transmission of packet k (Figure 3.d); a third buffer adds
  nothing because both C and T are constant;
- **DMA** boards (Excelan, CMC) move the copy onto an on-board processor:
  the host CPU is freed but the elapsed-time formulas are unchanged, with
  C now the *interface* processor's copy time — which for the Excelan's
  8088 was slower than the host 68000.

:class:`Interface` models all three through ``tx_buffers`` capacity and an
optional dedicated copy processor/copy-cost model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..sim import Environment, Resource, Store
from .params import CopyCostModel, NetworkParams
from .trace import Activity, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .medium import Medium

__all__ = ["Interface", "DmaInterface"]


class Interface:
    """A network interface attached to one host and one medium.

    Parameters
    ----------
    env, name, params, medium, trace:
        Environment, diagnostic name, constants, the shared wire, and an
        optional trace recorder.
    tx_buffers:
        Transmit-buffer count; ``None`` takes ``params.tx_buffers``
        (1 = the paper's 3-Com single buffer).
    rx_buffers:
        Receive-buffer count before overrun drops; ``None`` takes
        ``params.rx_buffers`` (unbounded by default).
    copy_model:
        Per-interface copy-cost override.  The default (None) uses
        ``params.copy_model``; overriding one side models *mismatched*
        host speeds — the situation the paper's protocol definition
        excludes ("source and destination ... more or less matched in
        speed") and the mechanism behind its observation that interface
        losses soar when one station transmits at full speed.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        params: NetworkParams,
        medium: "Medium",
        trace: Optional[TraceRecorder] = None,
        tx_buffers: Optional[int] = None,
        rx_buffers: Optional[int] = None,
        copy_model: Optional[CopyCostModel] = None,
    ):
        self.env = env
        self.name = name
        self.params = params
        self.medium = medium
        self.trace = trace
        self.host: Optional["Host"] = None
        self.peer: Optional["Interface"] = None
        self._copy_model_override = copy_model
        n_tx = tx_buffers if tx_buffers is not None else params.tx_buffers
        n_rx = rx_buffers if rx_buffers is not None else params.rx_buffers
        self.tx_buffers = Resource(env, capacity=n_tx)
        self.rx_store = Store(env, capacity=n_rx if n_rx is not None else math.inf)
        self.rx_overruns = 0
        self.frames_sent = 0
        self.frames_received = 0

    # -- wiring ----------------------------------------------------------------
    def attach(self, host: "Host") -> None:
        """Bind this interface to its host (done by Host.__init__), with
        the processor that copies and the terms of its cost, so that a
        copy looks up neither."""
        self.host = host
        self._cpu = host.cpu
        model = self.copy_model
        self._copy_setup_s = model.setup_s
        self._copy_bytes_per_s = model.bytes_per_second

    def connect(self, peer: "Interface") -> None:
        """Set the default destination for :meth:`send` (point-to-point)."""
        self.peer = peer

    # -- copy cost --------------------------------------------------------------
    @property
    def copy_model(self) -> CopyCostModel:
        """Cost model for copies into/out of this interface."""
        if self._copy_model_override is not None:
            return self._copy_model_override
        return self.params.copy_model

    # -- data path ---------------------------------------------------------------
    def send(self, frame, dst: Optional["Interface"] = None):
        """Queue ``frame`` for transmission (generator).

        In busy-wait mode (``params.busy_wait``, the paper's standalone
        programs) the copying processor is held through the wire phase and
        ``send`` returns when the frame has left the wire.  In
        interrupt-driven mode the processor is released and ``send``
        returns as soon as the copy-in (the paper's C/Ca) is done;
        transmission proceeds on the medium's timers, so with two
        transmit buffers the next copy overlaps it (Figure 3.d), while
        with a single buffer the next ``send`` still blocks until the wire
        phase ends (the 3-Com serialisation).
        """
        destination = dst if dst is not None else self.peer
        if destination is None:
            raise RuntimeError(f"{self.name}: no destination (connect() not called)")
        buffers, cpu = self.tx_buffers, self._cpu
        wait = buffers.acquire()
        if wait is not None:
            yield wait
        wait = cpu.acquire()
        if wait is not None:
            yield wait
        start = self.env.now
        # CopyCostModel.copy_time's expression, on the bound terms.
        yield self.env.timeout(
            self._copy_setup_s + frame.wire_bytes / self._copy_bytes_per_s)
        if self.trace is not None:
            self.trace.record(Activity.COPY_IN, self.name, start, self.env.now, frame)
        self.frames_sent += 1
        if self.params.busy_wait:
            # The processor spins until the interface reports completion.
            yield from self.medium.transmit(frame, self.name, destination)
            cpu.release()
            buffers.release()
        else:
            cpu.release()
            self.medium.transmit_detached(
                frame, self.name, destination, then=buffers.release)

    def deliver(self, frame) -> None:
        """Medium hands over an arriving frame (may overrun rx buffers)."""
        if self.rx_store.try_put(frame):
            self.frames_received += 1
            return
        self.rx_overruns += 1
        if self.trace is not None:
            now = self.env.now
            self.trace.record(Activity.DROP, self.name, now, now, frame, note="rx overrun")

    def receive(self, timeout_s: Optional[float] = None, predicate=None):
        """Wait for a frame, pay the copy-out cost, return it (generator).

        Returns ``None`` if ``timeout_s`` elapses first; a frame arriving
        at the deadline itself is delivered — to this call or, buffered,
        to the next (see :class:`~repro.sim.store.StoreGet`).  The
        copy-out happens *after* the frame arrives and *charges the
        processor*, which is how the receive-side C enters the timelines.
        """
        frame = yield self.rx_store.get(predicate, timeout_s)
        if frame is None:
            if self.trace is not None:
                now = self.env.now
                self.trace.record(Activity.TIMEOUT, self.name, now, now)
            return None
        cpu = self._cpu
        wait = cpu.acquire()
        if wait is not None:
            yield wait
        start = self.env.now
        yield self.env.timeout(
            self._copy_setup_s + frame.wire_bytes / self._copy_bytes_per_s)
        if self.trace is not None:
            self.trace.record(Activity.COPY_OUT, self.name, start, self.env.now, frame)
        cpu.release()
        return frame


class DmaInterface(Interface):
    """An interface whose copies run on an on-board DMA processor.

    The host CPU is not charged for copies; instead a dedicated
    per-interface processor is, possibly with a different (slower) copy
    model — the paper's Excelan observation.  Elapsed-time formulas are
    unchanged; host CPU availability is what improves.
    """

    def __init__(
        self,
        *args,
        dma_copy_model: Optional[CopyCostModel] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._dma_processor = Resource(self.env, capacity=1)
        self._dma_copy_model = dma_copy_model

    @property
    def copy_model(self) -> CopyCostModel:
        if self._dma_copy_model is not None:
            return self._dma_copy_model
        return super().copy_model

    def attach(self, host: "Host") -> None:
        super().attach(host)
        self._cpu = self._dma_processor

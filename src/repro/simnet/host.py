"""Hosts and the two-host LAN the paper's experiments run on.

A :class:`Host` is a processor (a mutex :class:`Resource`) plus one
network interface.  The transfer drivers drive hosts; hosts never act on
their own.  The processor-as-mutex is what makes copy costs *serialise*
per host while remaining free to *overlap* across hosts — the mechanism
behind the paper's Figure 3.

:func:`make_lan` wires the standard experimental setup: two hosts on one
medium, optional error model, optional trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Type

from ..sim import Environment, Resource
from .errors import ErrorModel
from .interface import Interface
from .medium import Medium
from .params import NetworkParams
from .trace import TraceRecorder

__all__ = ["Host", "make_lan", "make_network"]


class Host:
    """One machine: a CPU and a network interface.

    Parameters
    ----------
    env, name, params:
        Environment, diagnostic name, network constants.
    medium:
        The wire this host's interface attaches to.
    trace:
        Optional trace recorder shared across the experiment.
    interface_cls:
        Interface model (:class:`Interface` or
        :class:`~repro.simnet.interface.DmaInterface`).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        params: NetworkParams,
        medium: Medium,
        trace: Optional[TraceRecorder] = None,
        interface_cls: Type[Interface] = Interface,
        **interface_kwargs,
    ):
        self.env = env
        self.name = name
        self.params = params
        self.cpu = Resource(env, capacity=1)
        self.trace = trace
        self.interface = interface_cls(
            env, name, params, medium, trace=trace, **interface_kwargs
        )
        self.interface.attach(self)

    # -- convenience pass-throughs the transfer drivers use --------------------
    # They hand back the interface's own generator: another ``yield from``
    # level here would be resumed once per event of every frame.
    def send(self, frame, dst: Optional["Host"] = None):
        """Send a frame (generator); see :meth:`Interface.send`."""
        return self.interface.send(
            frame, dst.interface if dst is not None else None)

    def receive(self, timeout_s: Optional[float] = None, predicate=None):
        """Receive a frame or time out (generator); returns frame or None."""
        return self.interface.receive(timeout_s, predicate)

    def connect(self, other: "Host") -> None:
        """Make ``other`` the default destination (and vice versa)."""
        self.interface.connect(other.interface)
        other.interface.connect(self.interface)

    @property
    def cpu_busy_time(self) -> float:
        """Total time this host's processor spent copying (from the trace)."""
        if self.trace is None:
            raise RuntimeError("host created without a trace; busy time unknown")
        return self.trace.busy_time(self.name)


def make_lan(
    env: Environment,
    params: Optional[NetworkParams] = None,
    error_model: Optional[ErrorModel] = None,
    trace: Optional[TraceRecorder] = None,
    names: Tuple[str, str] = ("sender", "receiver"),
    interface_cls: Type[Interface] = Interface,
    **interface_kwargs,
) -> Tuple[Host, Host, Medium]:
    """Build the standard two-host experimental LAN.

    Returns ``(host_a, host_b, medium)`` with the hosts connected
    point-to-point.  ``params`` defaults to the paper's standalone
    calibration.
    """
    params = params if params is not None else NetworkParams.standalone()
    medium = Medium(env, params, error_model=error_model, trace=trace)
    host_a = Host(
        env, names[0], params, medium, trace=trace,
        interface_cls=interface_cls, **interface_kwargs,
    )
    host_b = Host(
        env, names[1], params, medium, trace=trace,
        interface_cls=interface_cls, **interface_kwargs,
    )
    host_a.connect(host_b)
    return host_a, host_b, medium


def make_network(
    env: Environment,
    names: Sequence[str],
    params: Optional[NetworkParams] = None,
    error_model: Optional[ErrorModel] = None,
    trace: Optional[TraceRecorder] = None,
    interface_cls: Type[Interface] = Interface,
    **interface_kwargs,
) -> Tuple[List[Host], Medium]:
    """Build an N-host LAN on one shared medium.

    Unlike :func:`make_lan`, no default peers are set — senders must name
    their destination explicitly (``host.send(frame, dst=other)``), which
    all transfer drivers and the kernel layer already do.  This is the
    substrate for multi-client experiments (several transfers contending
    for one wire) and the fairness ablation.
    """
    if len(names) < 2:
        raise ValueError("a network needs at least two hosts")
    if len(set(names)) != len(names):
        raise ValueError("host names must be unique")
    params = params if params is not None else NetworkParams.standalone()
    medium = Medium(env, params, error_model=error_model, trace=trace)
    hosts = [
        Host(
            env, name, params, medium, trace=trace,
            interface_cls=interface_cls, **interface_kwargs,
        )
        for name in names
    ]
    return hosts, medium

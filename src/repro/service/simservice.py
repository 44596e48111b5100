"""The concurrent service on the discrete-event simulator.

One server :class:`~repro.simnet.host.Host` multiplexes every transfer
over its single interface; N client hosts share the same medium (so the
wire and the server's processor are both contended, the regime the
paper's copy-cost model predicts dominates).  The server process is a
thin, non-blocking carrier for :class:`~repro.service.engine.ServiceCore`
— identical scheduler logic to the UDP substrate — which is what makes
service results deterministic and byte-reproducible.

Each client process carries one :class:`~repro.service.pullclient
.PullMachine` — the same client the UDP pump drives — which requests
its stream, receives and verifies the body, and lingers.  The run
result carries the clients' verdicts *and* the server's metrics report,
so callers can assert byte-equality end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import Environment
from ..simnet.errors import ErrorModel
from ..simnet.host import Host, make_network
from ..simnet.params import NetworkParams
from .engine import ServiceConfig, ServiceCore
from .metrics import report_to_json
from .pullclient import PullMachine

__all__ = ["DesServiceResult", "run_des_service"]

#: Client-side timing (sim seconds).  A stream admitted to the pending
#: queue is silent until it gets a slot, so the stall wait is long.
PULL_TIMEOUT_S = 0.25
PULL_RETRIES = 40
RECV_TIMEOUT_S = 20.0
LINGER_S = 0.25
_MIN_TICK_S = 1e-9


@dataclass
class DesServiceResult:
    """Everything one DES service run produced."""

    config: ServiceConfig
    report: dict
    payloads_ok: bool
    completed: int
    rejected: int
    client_status: Dict[int, str]

    @property
    def report_json(self) -> str:
        """:attr:`report` as ``ServiceMetrics.to_json`` writes it."""
        return report_to_json(self.report)

    @property
    def ok(self) -> bool:
        return self.payloads_ok and all(
            status in ("ok", "rejected") for status in self.client_status.values()
        )


def _server_process(env: Environment, host: Host, peers: Dict[str, Host],
                    core: ServiceCore, expected_streams: int):
    def handle(frame):
        # DES frames carry no source: the core reads the client's name
        # from the pull request itself.
        for out, client in core.on_frame(frame, env.now):
            peer = peers.get(client)
            if peer is not None:
                yield from host.send(out, dst=peer)

    while True:
        # Drain everything already delivered before granting new sends —
        # otherwise a backlog of grants starves ACK/pull processing and
        # the sender machines time out against their own unread replies.
        while host.interface.rx_store.items:
            frame = yield from host.receive(timeout_s=0.0)
            if frame is None:
                break
            yield from handle(frame)
        outputs = core.poll(env.now)
        for frame, client in outputs:
            peer = peers.get(client)
            if peer is not None:
                yield from host.send(frame, dst=peer)
        settled = core.finished_count + len(core.metrics.rejections)
        if settled >= expected_streams and core.idle:
            return
        if outputs:
            continue  # sending advanced the clock; run timers again
        # An O(1) peek at the core's deadline index — safe to derive the
        # wait on every loop iteration even at cluster-sweep stream
        # counts (see docs/performance.md, sublinear scheduling).
        deadline = core.next_deadline(env.now)
        if deadline is None:
            timeout = None  # pure I/O wait: nothing to do until a frame
        else:
            timeout = max(deadline - env.now, _MIN_TICK_S)
        frame = yield from host.receive(timeout_s=timeout)
        if frame is None:
            continue
        yield from handle(frame)


def _client_process(env: Environment, host: Host, server: Host,
                    machine: PullMachine, arrival_s: float):
    """The quiet-period contract of :mod:`pullclient` on sim time: the
    timer is armed once the sends are on the wire, and frames the
    machine does not want stay buffered for a later state."""
    if arrival_s > 0:
        yield env.timeout(arrival_s)
    frames = machine.start(env.now)
    while True:
        for frame in frames:
            yield from host.send(frame, dst=server)
        if machine.done:
            return
        frame = yield from host.receive(timeout_s=machine.quiet_s,
                                        predicate=machine.wants)
        frames = (machine.on_quiet(env.now) if frame is None
                  else machine.on_frame(frame, env.now))


def run_des_service(
    sizes: Sequence[int],
    arrivals: Optional[Sequence[float]] = None,
    config: Optional[ServiceConfig] = None,
    params: Optional[NetworkParams] = None,
    error_model: Optional[ErrorModel] = None,
) -> DesServiceResult:
    """Run one deterministic DES service experiment.

    ``sizes[i]`` is the body of stream ``i + 1``, pulled by client ``i``
    at ``arrivals[i]`` (default: everyone at t=0 — maximum contention).
    Returns the metrics report plus an end-to-end payload verdict.
    """
    config = config or ServiceConfig()
    n = len(sizes)
    if n < 1:
        raise ValueError("need at least one transfer")
    if arrivals is None:
        arrivals = [0.0] * n
    if len(arrivals) != n:
        raise ValueError("arrivals and sizes must have equal length")

    env = Environment()
    names = ["server"] + [f"client{i:03d}" for i in range(n)]
    hosts, _medium = make_network(env, names, params=params,
                                  error_model=error_model)
    server, clients = hosts[0], hosts[1:]
    peers = {host.name: host for host in clients}

    core = ServiceCore(config)
    machines = [
        PullMachine(index + 1, size, config.protocol, config.strategy,
                    PULL_TIMEOUT_S, PULL_RETRIES, RECV_TIMEOUT_S, LINGER_S,
                    client=client.name)
        for index, (size, client) in enumerate(zip(sizes, clients))
    ]

    env.process(_server_process(env, server, peers, core, expected_streams=n))
    for client, machine, arrival_s in zip(clients, machines, arrivals):
        env.process(_client_process(env, client, server, machine, arrival_s))
    env.run()

    status = {m.stream_id: m.result.status if m.result else "missing"
              for m in machines}
    pulled = [m.result for m in machines if status[m.stream_id] == "ok"]
    payloads_ok = bool(pulled) and all(r.payload_ok for r in pulled)
    return DesServiceResult(
        config=config,
        report=core.metrics.to_dict(config.to_dict()),
        payloads_ok=payloads_ok,
        completed=core.finished_count,
        rejected=len(core.metrics.rejections),
        client_status=status,
    )

"""Canonical deterministic workloads shared by benchmarks and tests.

Every function here is a pure recipe: same inputs, same objects, same
bytes, on every machine and for any worker count.  The perf suites time
these recipes; the fastpath-equivalence tests replay them and compare
the results against fixtures recorded from the pre-optimization (seed)
kernel and codec.  Keeping one definition in one place is what makes
"the optimized hot path produces byte-identical output" a checkable
claim rather than a hope.

Nothing in this module reads a clock or an unseeded RNG — payload bytes
are derived from SHA-256 counters, so the workloads are stable across
Python versions and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from ..core.frames import AckFrame, ControlFrame, DataFrame, NakFrame

__all__ = [
    "canonical_payload",
    "canonical_frames",
    "canonical_datagrams",
    "canonical_trace",
    "trace_digest",
    "wire_digest",
    "run_digest",
    "kernel_digest",
    "contention_digests",
    "CANONICAL_EVENTS",
    "CANONICAL_TRACE_PROTOCOLS",
]

#: Event count for the kernel determinism digest (mode-independent).
CANONICAL_EVENTS = 20_000

#: Protocols whose traces the equivalence fixtures pin.
CANONICAL_TRACE_PROTOCOLS = ("stop_and_wait", "sliding_window", "blast")


def canonical_payload(tag: str, size: int) -> bytes:
    """``size`` deterministic bytes derived from ``tag`` via SHA-256."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(f"{tag}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:size])


def canonical_frames() -> List[object]:
    """A fixed frame mix covering every kind and both header versions.

    The mix mirrors real traffic: mostly 1 KB DATA, a few replies, one
    NAK with a sparse bitmap, one with a dense bitmap, and a CONTROL
    exchange — for stream 0 (version-1 wire format) and stream 7
    (version-2).
    """
    frames: List[object] = []
    for stream in (0, 7):
        for seq in range(8):
            frames.append(
                DataFrame(
                    transfer_id=0x1234 + stream,
                    seq=seq,
                    total=8,
                    payload=canonical_payload(f"data:{stream}:{seq}", 1024),
                    wants_reply=(seq == 7),
                    stream_id=stream,
                )
            )
        frames.append(AckFrame(transfer_id=0x1234 + stream, seq=7, stream_id=stream))
        frames.append(
            NakFrame(
                transfer_id=0x1234 + stream,
                first_missing=1,
                missing=(1, 5),
                total=8,
                stream_id=stream,
            )
        )
        frames.append(
            NakFrame(
                transfer_id=0x1234 + stream,
                first_missing=0,
                missing=tuple(range(64)),
                total=64,
                stream_id=stream,
            )
        )
        frames.append(
            ControlFrame(
                transfer_id=0x1234 + stream,
                request_id=9,
                body=canonical_payload(f"ctl:{stream}", 96),
                stream_id=stream,
            )
        )
    return frames


def canonical_datagrams() -> List[bytes]:
    """The canonical frames, encoded by the wire codec."""
    from ..core.wire import encode

    return [encode(frame) for frame in canonical_frames()]


def wire_digest(datagrams: Sequence[bytes]) -> str:
    """SHA-256 over a sequence of encoded datagrams (byte-stability proof)."""
    digest = hashlib.sha256()
    for datagram in datagrams:
        digest.update(len(datagram).to_bytes(4, "big"))
        digest.update(datagram)
    return digest.hexdigest()


def trace_digest(spans) -> str:
    """SHA-256 over a trace's spans, time-quantized to the nanosecond.

    Quantizing via ``round(t * 1e9)`` keeps the digest byte-stable while
    still failing loudly on any real scheduling difference.
    """
    digest = hashlib.sha256()
    for span in spans:
        line = (
            f"{span.kind}|{span.actor}|{round(span.start * 1e9)}"
            f"|{round(span.end * 1e9)}|{span.note}"
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def canonical_trace(protocol: str) -> Tuple[str, str]:
    """Run one traced transfer; return ``(ascii_timeline, span_digest)``."""
    from ..core import run_transfer
    from ..simnet import NetworkParams, TraceRecorder

    trace = TraceRecorder()
    result = run_transfer(
        protocol,
        canonical_payload(f"trace:{protocol}", 4 * 1024 + 137),
        params=NetworkParams.standalone(),
        trace=trace,
    )
    if not result.data_intact:
        raise AssertionError(f"canonical {protocol} transfer corrupted data")
    return trace.render_ascii(width=72), trace_digest(trace.spans)


def run_digest(protocol: str, n_jobs: int = 1) -> str:
    """Digest of a small stochastic ``run_many`` sweep (jobs-invariant)."""
    from ..core import run_many

    summary = run_many(
        protocol,
        canonical_payload(f"many:{protocol}", 8 * 1024),
        error_p=0.02,
        n_runs=24,
        seed=20250806,
        n_jobs=n_jobs,
    )
    fields = (
        f"{summary.protocol}|{summary.n_runs}|{summary.mean_s:.12e}"
        f"|{summary.std_s:.12e}|{summary.min_s:.12e}|{summary.max_s:.12e}"
        f"|{summary.mean_rounds:.12e}|{summary.mean_data_frames:.12e}"
        f"|{summary.all_intact}"
    )
    return hashlib.sha256(fields.encode()).hexdigest()


def kernel_digest() -> str:
    """Determinism digest of a canonical kernel run.

    Drives :data:`CANONICAL_EVENTS` timeout events (mixed delays, FIFO
    ties, one process chain) through an environment and hashes the final
    clock and callback order.  Identical to the seed kernel's digest —
    recorded in ``tests/perf/fixtures/seed_digests.json`` and asserted
    by ``tests/perf/test_fastpath_equivalence.py``.
    """
    from ..sim import Environment

    env = Environment()
    order: List[int] = []
    append = order.append

    n = CANONICAL_EVENTS
    for i in range(n // 2):
        timeout = env.timeout((i % 7) * 0.001, value=i)
        if i % 3 == 0:
            timeout.add_callback(lambda event: append(event._value))

    def ticker(env, count):
        for i in range(count):
            yield env.timeout(0.0005, value=i)

    env.process(ticker(env, n // 2))
    env.run()
    digest = hashlib.sha256()
    digest.update(f"{round(env.now * 1e9)}|{n}".encode())
    digest.update(",".join(map(str, order)).encode())
    return digest.hexdigest()


# -- contention scenarios ---------------------------------------------------
# The three canonical traces are error-free two-host busy-wait transfers
# and ``kernel_digest`` drives timeouts only; the scenarios below pin what
# those leave free: Resource/Store ordering when several processes want
# the same wire, processor or receive queue at the same instant, the
# interrupt-driven and DMA interface paths, receive overruns, every
# error-model hook with timeouts that really fire, the V-kernel IPC, and
# the service driver.  Each digest covers the span list, the final clock
# and the Medium/Interface counters.


def _fields_digest(fields) -> str:
    return hashlib.sha256("\n".join(map(str, fields)).encode()).hexdigest()


def _lan_digest(env, trace, medium, hosts, *extra) -> str:
    """Digest of everything observable about one finished LAN run."""
    fields = [
        trace_digest(trace.spans),
        str(round(env.now * 1e9)),
        f"{medium.frames_transmitted}|{medium.frames_dropped}"
        f"|{medium.frames_corrupted}|{medium.frames_duplicated}"
        f"|{medium.bytes_transmitted}",
    ]
    for host in hosts:
        nic = host.interface
        fields.append(f"{host.name}|{nic.frames_sent}|{nic.frames_received}"
                      f"|{nic.rx_overruns}|{len(nic.rx_store)}")
    return _fields_digest([*fields, *extra])


def _stats_fields(result) -> str:
    stats = result.stats
    return (f"{result.protocol}|{result.strategy}|{result.data_intact}"
            f"|{round(result.elapsed_s * 1e9)}|{stats.rounds}|{stats.timeouts}"
            f"|{stats.data_frames_sent}|{stats.retransmitted_data_frames}"
            f"|{stats.reply_frames_sent}|{stats.duplicates_received}")


def _double_buffered_digest() -> str:
    """Interrupt-driven blast over two transmit buffers (Figure 3.d)."""
    from ..core import BlastTransfer
    from ..sim import Environment
    from ..simnet import NetworkParams, TraceRecorder, make_lan

    env, trace = Environment(), TraceRecorder()
    params = NetworkParams.standalone().with_double_buffering()
    sender, receiver, medium = make_lan(env, params, trace=trace)
    data = canonical_payload("scenario:double_buffered", 32 * 1024 + 77)
    result = BlastTransfer(env, sender, receiver, data).run()
    if not result.data_intact:
        raise AssertionError("double-buffered blast corrupted data")
    return _lan_digest(env, trace, medium, (sender, receiver),
                       _stats_fields(result))


def _dma_digest() -> str:
    """Interrupt-driven single-buffer DMA boards with a slower copy
    engine (the paper's Excelan), ack-clocked by a window of four."""
    from ..core import SlidingWindowTransfer
    from ..sim import Environment
    from ..simnet import (CopyCostModel, DmaInterface, NetworkParams,
                          TraceRecorder, make_lan)

    env, trace = Environment(), TraceRecorder()
    params = NetworkParams.standalone(busy_wait=False)
    slow = CopyCostModel(params.copy_model.setup_s * 2,
                         params.copy_model.bytes_per_second / 1.5)
    sender, receiver, medium = make_lan(
        env, params, trace=trace, interface_cls=DmaInterface,
        dma_copy_model=slow)
    data = canonical_payload("scenario:dma", 24 * 1024 + 5)
    result = SlidingWindowTransfer(env, sender, receiver, data, window=4).run()
    if not result.data_intact:
        raise AssertionError("DMA sliding-window transfer corrupted data")
    return _lan_digest(env, trace, medium, (sender, receiver),
                       _stats_fields(result))


def _rx_overrun_digest() -> str:
    """A double-buffered blast into one receive buffer on a slower host:
    frames overrun and the go-back-n rounds repair them."""
    from ..core import BlastTransfer
    from ..sim import Environment
    from ..simnet import Host, Medium, NetworkParams, TraceRecorder

    env, trace = Environment(), TraceRecorder()
    params = NetworkParams.standalone().with_double_buffering()
    slow = params.copy_model.scaled(params.copy_model.setup_s + 1e-3)
    medium = Medium(env, params, trace=trace)
    sender = Host(env, "sender", params, medium, trace=trace)
    receiver = Host(env, "receiver", params, medium, trace=trace,
                    rx_buffers=1, copy_model=slow)
    sender.connect(receiver)
    data = canonical_payload("scenario:rx_overrun", 16 * 1024)
    result = BlastTransfer(env, sender, receiver, data, strategy="gobackn",
                           timeout_s=0.05).run()
    if not result.data_intact or receiver.interface.rx_overruns == 0:
        raise AssertionError("rx_overrun scenario did not overrun and recover")
    return _lan_digest(env, trace, medium, (sender, receiver),
                       _stats_fields(result))


def _shared_network_digest() -> str:
    """Four hosts, two senders into one receiver, both launched at t=0,
    busy-wait and interrupt-driven: same-instant requests for the wire,
    two receiver processes sharing one processor, one transmit buffer
    and (through predicate gets) one receive queue."""
    from ..core import BlastTransfer, StopAndWaitTransfer
    from ..sim import Environment
    from ..simnet import NetworkParams, TraceRecorder, make_network

    payload = canonical_payload("scenario:shared", 24 * 1024 + 11)
    fields = []
    for params in (NetworkParams.standalone(),
                   NetworkParams.standalone().with_double_buffering()):
        env, trace = Environment(), TraceRecorder()
        hosts, medium = make_network(env, ["a", "b", "c", "d"], params=params,
                                     trace=trace)
        a, b, c, _idle = hosts
        transfers = [
            BlastTransfer(env, a, c, payload, transfer_id=1),
            StopAndWaitTransfer(env, b, c, payload[:16384], transfer_id=2),
        ]
        env.run(until=env.all_of([transfer.launch() for transfer in transfers]))
        results = [transfer.result() for transfer in transfers]
        if not all(result.data_intact for result in results):
            raise AssertionError("shared-network transfer corrupted data")
        fields.append(_lan_digest(env, trace, medium, hosts,
                                  *map(_stats_fields, results)))
    return _fields_digest(fields)


def _noisy_digest() -> str:
    """Loss, duplication, delay and silent corruption on one wire, for a
    protocol of each family; receive timeouts must really fire."""
    from ..core import BlastTransfer, StopAndWaitTransfer
    from ..faults import FaultPlan, FaultRule, ScriptedErrors
    from ..sim import Environment
    from ..simnet import NetworkParams, TraceRecorder, make_lan

    plan = FaultPlan(
        name="perf-noisy",
        rules=(
            FaultRule(action="drop", kinds=("data",), direction="send",
                      indices=(1, 6)),
            FaultRule(action="drop", kinds=("reply",), direction="recv",
                      indices=(2,)),
            FaultRule(action="duplicate", kinds=("data",), direction="send",
                      indices=(3,), count=2),
            FaultRule(action="duplicate", kinds=("reply",), direction="recv",
                      indices=(0,)),
            FaultRule(action="delay", kinds=("data",), direction="send",
                      indices=(4,), delay_s=0.004),
            FaultRule(action="delay", kinds=("reply",), direction="recv",
                      indices=(4,), delay_s=0.3),
            FaultRule(action="corrupt", kinds=("data",), direction="send",
                      indices=(8,), silent=True),
        ),
    )
    fields = []
    for engine, kwargs in (
        (StopAndWaitTransfer, {"timeout_s": 0.02}),
        (BlastTransfer, {"strategy": "selective", "timeout_s": 0.02,
                         "verify_checksum": True}),
    ):
        env, trace = Environment(), TraceRecorder()
        errors = ScriptedErrors(plan, seed=7)
        sender, receiver, medium = make_lan(
            env, NetworkParams.standalone(), error_model=errors, trace=trace)
        data = canonical_payload(f"scenario:noisy:{engine.name}", 9 * 1024 + 3)
        result = engine(env, sender, receiver, data, **kwargs).run()
        if result.stats.timeouts == 0:
            raise AssertionError(f"noisy {engine.name}: no timeout fired")
        fields.append(_lan_digest(env, trace, medium, (sender, receiver),
                                  _stats_fields(result)))
    return _fields_digest(fields)


def _vkernel_digest() -> str:
    """A V-kernel file read (Send, retransmitted while the disk seeks;
    MoveTo; Reply) followed by a bare MoveTo, on a lossy wire."""
    from ..sim import Environment
    from ..simnet import BernoulliErrors, NetworkParams, TraceRecorder, make_lan
    from ..vkernel import VKernel
    from ..vkernel.fileserver import FileClient, FileServer, SimDisk

    env, trace = Environment(), TraceRecorder()
    client_host, server_host, medium = make_lan(
        env, NetworkParams.vkernel(), trace=trace, names=("client", "server"),
        error_model=BernoulliErrors(0.05, seed=11))
    client_kernel = VKernel(env, client_host, kernel_id=1, send_timeout_s=0.05)
    server_kernel = VKernel(env, server_host, kernel_id=2, send_timeout_s=0.05)
    contents = canonical_payload("scenario:vkernel:file", 16 * 1024 + 9)
    server = FileServer(server_kernel, files={"f": contents},
                        disk=SimDisk(seek_s=0.12))
    client = FileClient(client_kernel, server.ref)
    sink = server_kernel.create_process("sink")
    sink.allocate("buf", 3000)
    moved = canonical_payload("scenario:vkernel:move", 3000)

    def body():
        got = yield from client.read_file("f", len(contents))
        yield from client_kernel.move_to(client.process, sink.ref, "buf", moved)
        return got

    got = env.run(until=env.process(body()))
    if got != contents or sink.read_buffer("buf") != moved:
        raise AssertionError("V-kernel scenario corrupted data")
    return _lan_digest(env, trace, medium, (client_host, server_host),
                       server.requests_served)


def _des_service_digest() -> str:
    """Eight streams through ``run_des_service``: the whole report."""
    from ..service import ServiceConfig, run_des_service
    from ..simnet import BernoulliErrors

    config = ServiceConfig(protocol="sliding", policy="rr",
                           max_active=3, max_queue=8)
    result = run_des_service(
        [3000 + 700 * index for index in range(8)],
        arrivals=[0.0, 0.0, 0.0, 0.002, 0.002, 0.01, 0.05, 0.05],
        config=config, error_model=BernoulliErrors(0.02, seed=5))
    if not result.ok:
        raise AssertionError("DES service scenario failed a stream")
    return _fields_digest([result.report_json,
                           sorted(result.client_status.items())])


def contention_digests() -> Dict[str, str]:
    """``scenario:<name>`` -> digest, for every contention scenario."""
    return {
        "scenario:double_buffered": _double_buffered_digest(),
        "scenario:dma": _dma_digest(),
        "scenario:rx_overrun": _rx_overrun_digest(),
        "scenario:shared_network": _shared_network_digest(),
        "scenario:noisy": _noisy_digest(),
        "scenario:vkernel": _vkernel_digest(),
        "scenario:des_service": _des_service_digest(),
    }

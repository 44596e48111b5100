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
from typing import List, Sequence, Tuple

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

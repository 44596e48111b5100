"""The optimized fast path must reproduce seed-kernel output byte-for-byte.

The fixtures under ``tests/perf/fixtures/`` were recorded by running
``capture_fixtures.py`` against the pre-optimization (seed) kernel and
codec.  Every test here replays the same canonical workload on the live
code and compares bytes/digests against that recording — so any
behaviour change smuggled in under the banner of "just a speedup" fails
loudly.
"""

import dataclasses
import json
import mmap
from pathlib import Path

import pytest

from repro.core.wire import decode, encode_into
from repro.perf import workloads

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def seed_digests():
    return json.loads((FIXTURES / "seed_digests.json").read_text())


def recorded_datagrams():
    return [
        bytes.fromhex(line)
        for line in (FIXTURES / "wire_frames.hex").read_text().splitlines()
        if line
    ]


def test_encode_bytes_match_seed_fixture(seed_digests):
    recorded = recorded_datagrams()
    live = workloads.canonical_datagrams()
    assert live == recorded
    assert workloads.wire_digest(live) == seed_digests["wire"]


def test_staged_back_to_back_the_arena_holds_the_recording():
    """``encode_into`` as the batch layer uses it — one mapped arena, each
    frame behind the last — against the seed's bytes, and ``decode`` of
    each arena window against ``decode`` of the recorded datagram."""
    recorded = recorded_datagrams()
    arena = memoryview(mmap.mmap(-1, 3 + sum(map(len, recorded))))
    offset = 3
    for frame, datagram in zip(workloads.canonical_frames(), recorded):
        written = encode_into(frame, arena, offset)
        window = arena[offset:offset + written]
        assert window == datagram
        assert decode(window) == decode(datagram)
        offset += written
    assert offset == len(arena)


def test_decode_round_trips_recorded_datagrams():
    frames = workloads.canonical_frames()
    for frame, datagram in zip(frames, workloads.canonical_datagrams()):
        decoded = decode(datagram)
        assert dataclasses.replace(decoded, wire_bytes=frame.wire_bytes) == frame


def test_kernel_digest_matches_seed(seed_digests):
    assert workloads.kernel_digest() == seed_digests["kernel"]


@pytest.mark.parametrize("protocol", workloads.CANONICAL_TRACE_PROTOCOLS)
def test_trace_matches_seed_fixture(protocol, seed_digests):
    ascii_art, span_digest = workloads.canonical_trace(protocol)
    assert span_digest == seed_digests[f"trace:{protocol}"]
    assert ascii_art == (FIXTURES / f"trace_{protocol}.txt").read_text()


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("protocol", workloads.CANONICAL_TRACE_PROTOCOLS)
def test_run_many_digest_matches_seed_for_any_jobs(protocol, n_jobs, seed_digests):
    digest = workloads.run_digest(protocol, n_jobs=n_jobs)
    assert digest == seed_digests[f"run_many:{protocol}"]


def test_contention_scenarios_match_recording(seed_digests):
    """Resource/Store ordering under contention, the interrupt-driven and
    DMA paths, overruns, every error-model hook, the V-kernel IPC and the
    service driver — recorded at PR 16, before hand-offs left the heap."""
    live = workloads.contention_digests()
    recorded = {key: value for key, value in seed_digests.items()
                if key.startswith("scenario:")}
    assert sorted(live) == sorted(recorded)
    moved = [key for key in live if live[key] != recorded[key]]
    assert not moved

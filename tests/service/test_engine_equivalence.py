"""Property suite: indexed ServiceCore ≡ the frozen full-table walker.

Random admit/frame/timer interleavings drive the live indexed engine
and the reference :class:`.reference_engine.LegacyServiceCore` in
lockstep.  After every operation both engines must agree on the
emitted frames *and* on ``next_deadline`` — the two observables the
substrates act on — and at the end on the canonical metrics report and
the finished-stream set.  ``poll`` must emit the very frames, in the
very order; a drain hands the socket one run per stream, so it must
emit each stream's frames in order, with the streams in the order they
first appear in the reference's drain: what ``flush`` puts on the wire
per destination.
This is the determinism contract the committed goldens rely on.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.frames import ControlFrame
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.machines import receiver_for

from .drained import frames_of
from .reference_engine import LegacyServiceCore

_PACKET_BYTES = 64
_CLIENTS = ("alpha", "beta", "gamma")

_OPS = st.one_of(
    st.tuples(st.just("admit"), st.sampled_from(_CLIENTS),
              st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("drain"), st.integers(min_value=1, max_value=16)),
    st.tuples(st.just("advance"),
              st.sampled_from((0.001, 0.0103, 0.021, 0.047, 0.21))),
    st.tuples(st.just("deliver"), st.integers(min_value=0, max_value=7),
              st.sampled_from(("ok", "drop", "dup"))),
)


def by_stream(outputs):
    """Each stream's frames — seq, wants_reply, payload, client — in
    order, the streams in the order they first appear."""
    streams = {}
    for frame, client in outputs:
        streams.setdefault(frame.stream_id, []).append(
            (frame.seq, frame.wants_reply, frame.payload, client))
    return list(streams.items())


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(("blast", "sliding", "saw")),
    policy=st.sampled_from(("fifo", "rr", "copy-budget")),
    congestion=st.sampled_from(("fixed", "reno")),
    ops=st.lists(_OPS, min_size=5, max_size=60),
)
def test_indexed_engine_matches_reference(protocol, policy, congestion, ops):
    config = ServiceConfig(protocol=protocol, policy=policy,
                           packet_bytes=_PACKET_BYTES, timeout_s=0.05,
                           max_active=3, max_queue=2, grants_per_poll=4,
                           congestion=congestion)
    indexed = ServiceCore(config)
    reference = LegacyServiceCore(config)
    receivers = {}
    replies = []
    now = 0.0
    next_stream = 1

    def both(method, *args, **kwargs):
        live = getattr(indexed, method)(*args, **kwargs)
        frozen = getattr(reference, method)(*args, **kwargs)
        assert live == frozen, (method, args, live, frozen)
        return live

    def route(outputs):
        for frame, _client in outputs:
            receiver = receivers.get(frame.stream_id)
            if receiver is not None and hasattr(frame, "payload"):
                replies.extend(receiver.on_frame(frame, now))

    for item in ops:
        kind = item[0]
        if kind == "admit":
            _, client, packets = item
            stream_id = next_stream
            next_stream += 1
            body = json.dumps({"op": "pull", "size": _PACKET_BYTES * packets,
                               "stream": stream_id}, sort_keys=True)
            pull = ControlFrame(transfer_id=stream_id, request_id=stream_id,
                                body=body.encode(), stream_id=stream_id)
            outputs = both("on_frame", pull, now, client=client)
            if json.loads(outputs[0][0].body.decode())["status"] == "ok":
                receivers[stream_id] = receiver_for(protocol, stream_id)
        elif kind == "poll":
            route(both("poll", now))
        elif kind == "drain":
            frozen = reference.drain_sends(now, item[1])
            live = frames_of(indexed.drain_sends(now, item[1]))
            assert by_stream(live) == by_stream(frozen), (item, live, frozen)
            route(frozen)
        elif kind == "advance":
            now += item[1]
        else:  # deliver a pending receiver reply (maybe dropped/duplicated)
            _, index, mode = item
            if not replies:
                continue
            reply = replies.pop(index % len(replies))
            if mode == "drop":
                continue
            both("on_frame", reply, now)
            if mode == "dup":
                both("on_frame", reply, now)
        assert indexed.next_deadline(now) == reference.next_deadline(now)

    assert indexed.finished.keys() == reference.finished.keys()
    assert indexed.metrics.canonical_json() == reference.metrics.canonical_json()


def test_a_drain_stops_where_a_timeout_closes_the_window():
    """Under Reno a timeout retransmission drops the congestion window
    to one packet, so a drain must not fill the room the window had
    before it: it sends what repeated ``poll`` calls send."""
    config = ServiceConfig(protocol="sliding", window=16, congestion="reno",
                           packet_bytes=_PACKET_BYTES, timeout_s=0.05,
                           grants_per_poll=4)
    drained_core, polled_core = ServiceCore(config), ServiceCore(config)
    body = json.dumps({"op": "pull", "size": _PACKET_BYTES * 32,
                       "stream": 1}, sort_keys=True).encode()
    for core in (drained_core, polled_core):
        core.on_frame(ControlFrame(transfer_id=1, request_id=1, body=body,
                                   stream_id=1), 0.0, client="alpha")
        assert [frame.seq for frame, _ in frames_of(
            core.drain_sends(0.0, 16))] == [0]     # cwnd 1
        core.on_acks(1, (0,), 0.001, client="alpha")  # cwnd 2
        assert [frame.seq for frame, _ in frames_of(
            core.drain_sends(0.001, 16))] == [1, 2]
        core.on_acks(1, (1,), 0.002, client="alpha")  # cwnd 3
        assert [frame.seq for frame, _ in frames_of(
            core.drain_sends(0.002, 16))] == [3, 4]
    # ACK 3 frees a slot; just past the earliest timer, at least one
    # packet is overdue and the window still has room for fresh ones.
    machine = drained_core._active[1].machine
    for core in (drained_core, polled_core):
        core.on_acks(1, (3,), 0.003, client="alpha")
    overdue_at = min(record[0] for record in machine._outstanding.values())
    now = overdue_at + 1e-6
    overdue = sum(now >= record[0] for record in machine._outstanding.values())
    assert machine.frames_available(now) > overdue >= 1
    polled = []
    while True:
        outputs = polled_core.poll(now)
        if not outputs:
            break
        polled += outputs
    assert by_stream(frames_of(drained_core.drain_sends(now, 16))) == (
        by_stream(polled))
    assert len(polled) == overdue

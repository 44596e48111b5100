"""Property suite: indexed ServiceCore ≡ the frozen full-table walker.

Random admit/frame/timer interleavings drive the live indexed engine
and the reference :class:`.reference_engine.LegacyServiceCore` in
lockstep.  After every operation both engines must agree on the
emitted frames *and* on ``next_deadline`` — the two observables the
substrates act on — and at the end on the canonical metrics report and
the finished-stream set.
This is the determinism contract the committed goldens rely on.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.frames import ControlFrame
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.machines import receiver_for

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


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(("blast", "sliding", "saw")),
    policy=st.sampled_from(("fifo", "rr", "copy-budget")),
    ops=st.lists(_OPS, min_size=5, max_size=60),
)
def test_indexed_engine_matches_reference(protocol, policy, ops):
    config = ServiceConfig(protocol=protocol, policy=policy,
                           packet_bytes=_PACKET_BYTES, timeout_s=0.05,
                           max_active=3, max_queue=2, grants_per_poll=4)
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
            route(both("drain_sends", now, item[1]))
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

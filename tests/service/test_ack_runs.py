"""Property suite: a ring of arrivals fed as ACK runs ≡ fed frame by frame.

The UDP serve loop hands each run of consecutive ACKs from one client
for one stream to :meth:`ServiceCore.on_acks` in one call
(:func:`~repro.service.udpservice.deliver_ring`); the DES drivers feed
:meth:`ServiceCore.on_frame` one frame at a time.  Two cores see the
same arrivals at the same ``now`` — one frame by frame, the other as
encoded datagrams through ``deliver_ring`` — and must agree on every
output, the finished set, the deadline and the canonical report.
The rings mix in-order, out-of-order, duplicate, foreign-stream,
foreign-client and past-``total`` ACKs with NAK and control frames
between them, under both congestion controllers.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.frames import AckFrame, ControlFrame, NakFrame
from repro.core.wire import encode
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.machines import receiver_for
from repro.service.udpservice import deliver_ring

from .drained import frames_of

_PACKET_BYTES = 64
_CLIENTS = ("alpha", "beta")

_ARRIVAL = st.one_of(
    # The oldest replies, as a pump's flush sends a window's ACKs.
    st.tuples(st.just("in-order"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("out-of-order"), st.integers(min_value=0)),
    st.tuples(st.just("duplicate"), st.integers(min_value=0)),
    # An ACK naming a stream nobody pulled, or one past the body.
    st.tuples(st.just("foreign-stream"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("past-total"), st.integers(min_value=1, max_value=4)),
    # A live stream's ACK from the other client.
    st.tuples(st.just("foreign-client"), st.integers(min_value=0)),
    st.tuples(st.just("nak"), st.integers(min_value=0)),
    st.tuples(st.just("control"), st.integers(min_value=1, max_value=6)),
)

_PULLS = st.lists(st.tuples(st.sampled_from(_CLIENTS),
                            st.integers(min_value=1, max_value=12)),
                  min_size=1, max_size=5)

#: One turn of the serve loop: grant up to n sends, take in one ring,
#: let the clock run on.
_TURNS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=16),
              st.lists(_ARRIVAL, max_size=16),
              st.sampled_from((0.0, 0.001, 0.0103, 0.021, 0.047, 0.21))),
    min_size=1, max_size=30)


def pull_request(stream_id, size):
    body = json.dumps({"op": "pull", "size": size, "stream": stream_id},
                      sort_keys=True)
    return ControlFrame(transfer_id=stream_id, request_id=stream_id,
                        body=body.encode(), stream_id=stream_id)


class Staged(list):
    """What :func:`deliver_ring` stages, in order."""

    def send_frame(self, frame, address):
        self.append((frame, address))


@settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(("sliding", "saw", "blast")),
    congestion=st.sampled_from(("fixed", "reno")),
    pulls=_PULLS,
    turns=_TURNS,
)
def test_ack_runs_match_frame_by_frame(protocol, congestion, pulls, turns):
    config = ServiceConfig(protocol=protocol, congestion=congestion,
                           window=4, packet_bytes=_PACKET_BYTES,
                           timeout_s=0.05, max_rounds=4, max_active=3,
                           max_queue=2, grants_per_poll=4)
    per_frame = ServiceCore(config)
    grouped = ServiceCore(config)
    # A queued pull's verdict is "ok" too: it is admitted later.
    streams = {}        # stream id -> (client, packets, receiver)
    replies = []        # honest replies not yet delivered, oldest first
    delivered = []      # honest ACKs already delivered
    now = 0.0

    def both(method, *args, **kwargs):
        left = getattr(per_frame, method)(*args, **kwargs)
        right = getattr(grouped, method)(*args, **kwargs)
        assert left == right, (method, args, left, right)
        return left

    def arrivals(spec):
        kind = spec[0]
        if kind == "in-order":
            burst = replies[:spec[1]]
            del replies[:spec[1]]
            return burst
        if kind == "out-of-order" and replies:
            return [replies.pop(spec[1] % len(replies))]
        if kind == "duplicate" and delivered:
            return [delivered[spec[1] % len(delivered)]]
        if kind == "foreign-stream":
            return [(AckFrame(40 + spec[1], spec[1], stream_id=40 + spec[1]),
                     _CLIENTS[0])]
        if kind in ("past-total", "foreign-client", "nak") and streams:
            ids = sorted(streams)
            stream_id = ids[spec[1] % len(ids)]
            client, packets, _receiver = streams[stream_id]
            if kind == "past-total":
                return [(AckFrame(stream_id, packets - 1 + spec[1],
                                  stream_id=stream_id), client)]
            if kind == "foreign-client":
                other = _CLIENTS[1 - _CLIENTS.index(client)]
                return [(AckFrame(stream_id, spec[1] % packets,
                                  stream_id=stream_id), other)]
            return [(NakFrame(stream_id, 0, (0,), packets,
                              stream_id=stream_id), client)]
        if kind == "control" and streams:
            # A duplicate pull: the cached verdict is replayed.
            stream_id = sorted(streams)[spec[1] % len(streams)]
            client, packets, _receiver = streams[stream_id]
            return [(pull_request(stream_id, packets * _PACKET_BYTES),
                     client)]
        return []

    for client, packets in pulls:
        stream_id = len(streams) + 1
        outputs = both("on_frame",
                       pull_request(stream_id, packets * _PACKET_BYTES),
                       now, client=client)
        if json.loads(outputs[0][0].body.decode())["status"] == "ok":
            streams[stream_id] = (client, packets,
                                  receiver_for(protocol, stream_id))
    for budget, specs, advance in turns:
        for frame, client in frames_of(both("drain_sends", now, budget)):
            receiver = streams[frame.stream_id][2]
            replies.extend((reply, client)
                           for reply in receiver.on_frame(frame, now))
        ring = [arrival for spec in specs for arrival in arrivals(spec)]
        one_by_one = []
        for frame, client in ring:
            one_by_one += per_frame.on_frame(frame, now, client=client)
        staged = Staged()
        deliver_ring(grouped, staged, [(memoryview(encode(frame)), client)
                                       for frame, client in ring], now)
        assert one_by_one == staged
        delivered.extend(arrival for arrival in ring
                         if type(arrival[0]) is AckFrame)
        now += advance
        assert per_frame.next_deadline(now) == grouped.next_deadline(now)
        assert per_frame.finished == grouped.finished
        assert per_frame.foreign_replies == grouped.foreign_replies

    assert per_frame.metrics.canonical_json() == grouped.metrics.canonical_json()

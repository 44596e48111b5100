"""PullMachine on a fake clock: scripted ``(now, frame)`` tables, no
sockets, no simulator.  ``play`` is the quiet-period contract of
``repro.service.pullclient`` written out once as a reference driver.
Two classes hold the pump to the same contract: its socket driver, and
the hand-off of a ring to the machine as one run once the verdict is in."""

import json
import math
import select
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import AckFrame, ControlFrame, DataFrame, NakFrame
from repro.core.wire import WireError, decode, encode
from repro.service.clientpump import _PumpClient, _take_ring
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.machines import service_payload
from repro.service.pullclient import PullMachine

SEED = 7
SIZE = 4096
PACKETS = 4


def machine(stream_id=1, protocol="blast", **timing):
    values = dict(pull_timeout_s=0.25, pull_retries=3, recv_timeout_s=2.0,
                  linger_s=0.1)
    values.update(timing)
    return PullMachine(stream_id, SIZE, protocol, "selective", **values)


def verdict(stream_id=1, **body):
    body = body or {"status": "ok", "seed": SEED, "packets": PACKETS}
    return ControlFrame(transfer_id=stream_id, request_id=stream_id,
                        body=json.dumps(body).encode(), stream_id=stream_id)


def data(seq, stream_id=1, payload=None):
    if payload is None:
        payload = service_payload(SEED, stream_id, SIZE)
    return DataFrame(transfer_id=stream_id, seq=seq, total=PACKETS,
                     payload=payload[seq * 1024:(seq + 1) * 1024],
                     wants_reply=(seq == PACKETS - 1), stream_id=stream_id)


def play(pull, arrivals, start=0.0):
    """Run ``pull`` to completion over ``arrivals``; returns what it
    sent as ``[(now, frame)]``.  Frames it does not want are dropped."""
    sent = [(start, frame) for frame in pull.start(start)]
    timer = start + pull.quiet_s
    for now, frame in list(arrivals) + [(math.inf, None)]:
        while not pull.done and timer <= now:
            quiet_at = timer
            sent += [(quiet_at, out) for out in pull.on_quiet(quiet_at)]
            timer = quiet_at + pull.quiet_s
        if pull.done:
            break
        if pull.wants(frame):
            sent += [(now, out) for out in pull.on_frame(frame, now)]
            timer = now + pull.quiet_s
    return sent


def whole_stream(at=0.01, stream_id=1, **kwargs):
    return [(at, verdict(stream_id))] + [
        (at + 0.001 * (seq + 1), data(seq, stream_id, **kwargs))
        for seq in range(PACKETS)
    ]


class TestPulling:
    def test_request_names_the_stream_and_size(self):
        (request,) = machine(stream_id=5).start(0.0)
        assert isinstance(request, ControlFrame)
        assert request.request_id == 5 and request.stream_id == 0
        assert json.loads(request.body) == {
            "op": "pull", "size": SIZE, "stream": 5}

    def test_client_name_rides_in_the_request(self):
        pull = PullMachine(5, SIZE, "blast", "selective", 0.25, 3, 2.0, 0.1,
                           client="client004")
        (request,) = pull.start(0.0)
        assert json.loads(request.body)["client"] == "client004"

    def test_unknown_protocol_or_strategy_of_our_own_is_loud(self):
        with pytest.raises(ValueError):
            machine(protocol="carrier-pigeon")
        with pytest.raises(ValueError):
            PullMachine(1, SIZE, "blast", "no-such", 0.25, 3, 2.0, 0.1)

    def test_request_resent_each_quiet_period_then_no_response(self):
        pull = machine()
        sent = play(pull, [])
        assert [now for now, _ in sent] == pytest.approx([0.0, 0.25, 0.5])
        assert len({id(frame) for _, frame in sent}) == 1
        assert pull.done
        assert pull.result.status == "no-response"
        assert pull.result.elapsed_s == pytest.approx(0.75)
        assert not pull.result.ok

    @pytest.mark.parametrize("status, reason", [
        ("rejected", "queue full"), ("error", "bad size")])
    def test_refusals_surface_with_their_reason(self, status, reason):
        pull = machine()
        play(pull, [(0.05, verdict(status=status, reason=reason, stream=1))])
        assert pull.done
        assert (pull.result.status, pull.result.error) == (status, reason)
        assert pull.result.elapsed_s == pytest.approx(0.05)

    def test_data_before_the_verdict_is_not_consumed(self):
        pull = machine()
        pull.start(0.0)
        assert not pull.wants(data(0))
        assert not pull.wants(verdict(stream_id=2))
        assert pull.wants(verdict())

    @pytest.mark.parametrize("body", [
        b'{"status": "ok", "packets": 4}',           # no seed
        b"[]",                                       # not an object
        b'{"status": 3, "seed": 7, "packets": 4}',   # status not a string
        b'{"status": "ok", "seed": "7", "packets": 4}',  # seed not an int
        b'{"status": "ok", "seed": 7}',              # no packet count
        b'{"status": "ok", "seed": 7, "packets": "4"}',
        b'{"status": "ok", "seed": 7, "packets": 0}',
        b'{"status": "ok", "seed": true, "packets": 4}',   # a JSON true is
        b'{"status": "ok", "seed": 7, "packets": true}',   # no integer
        b'{"status": "ok", "seed": 7, "packets": 1000000}',  # of 4096 bytes?
        b'{"status": "ok", "seed": 7, "packets": 4, "protocol": "smoke-signals"}',
        b'{"status": "ok", "seed": 7, "packets": 4, "protocol": []}',
        b"not json",
        b"\xff\xfe",
    ])
    def test_malformed_verdict_is_ignored_and_the_pull_retried(self, body):
        pull = machine()
        bad = ControlFrame(transfer_id=1, request_id=1, body=body,
                           stream_id=1)
        sent = play(pull, [(0.01, bad)])
        assert len(sent) == 3               # still retried to the limit
        assert pull.result.status == "no-response"


class TestReceiving:
    def test_whole_stream_verifies(self):
        pull = machine()
        sent = play(pull, whole_stream())
        (ack_at, ack), = sent[1:]
        assert isinstance(ack, AckFrame) and ack.seq == PACKETS - 1
        assert ack_at == pytest.approx(0.014)
        result = pull.result
        assert result.ok and result.size_bytes == SIZE
        assert result.elapsed_s == pytest.approx(0.014)
        assert pull.done                    # linger ran out after the ack

    def test_verdict_naming_another_protocol_builds_that_receiver(self):
        pull = machine(protocol="blast")
        tuned = verdict(status="ok", seed=SEED, packets=PACKETS,
                        protocol="saw")
        sent = play(pull, [(0.01, tuned), (0.02, data(0))])
        # A blast receiver stays silent for a frame that does not ask
        # for a reply; saw acknowledges every packet.
        replies = [frame for _, frame in sent[1:]]
        assert [(type(f), f.seq) for f in replies] == [(AckFrame, 0)]

    def test_blast_receiver_naks_an_incomplete_round(self):
        pull = machine()
        sent = play(pull, [(0.01, verdict()), (0.02, data(0)),
                           (0.03, data(PACKETS - 1))])
        (nak,) = [frame for _, frame in sent[1:]]
        assert isinstance(nak, NakFrame) and nak.first_missing == 1

    def test_stall_after_one_silent_recv_timeout(self):
        pull = machine()
        play(pull, [(0.01, verdict()), (0.5, data(0))])
        assert pull.result.status == "stalled"
        assert pull.result.elapsed_s == pytest.approx(2.5)

    def test_foreign_and_duplicate_frames_do_not_refresh_the_stall(self):
        pull = machine()
        noise = [(0.01, verdict()), (0.5, data(0)),
                 (1.0, verdict()),               # duplicate verdict
                 (1.5, data(1, stream_id=2)),    # another stream's data
                 (2.0, AckFrame(transfer_id=1, seq=0, stream_id=1))]
        sent = play(pull, noise)
        assert len(sent) == 1                    # nothing answered
        assert pull._receiver.duplicates == 0
        assert pull.result.status == "stalled"
        assert pull.result.elapsed_s == pytest.approx(2.5)

    def test_payload_mismatch_is_ok_status_but_not_ok(self):
        pull = machine()
        play(pull, whole_stream(payload=bytes(SIZE)))
        result = pull.result
        assert result.status == "ok" and result.size_bytes == SIZE
        assert not result.payload_ok and not result.ok


class TestLinger:
    def test_reanswers_a_wants_reply_duplicate_then_ends(self):
        pull = machine()
        last = data(PACKETS - 1)
        sent = play(pull, whole_stream() + [(0.05, last), (0.08, data(0))])
        acks = [(now, frame.seq) for now, frame in sent[1:]]
        assert acks == [(pytest.approx(0.014), PACKETS - 1),
                        (pytest.approx(0.05), PACKETS - 1)]
        assert pull.done and pull.result.ok
        # The verdict froze at completion: linger adds no elapsed time.
        assert pull.result.elapsed_s == pytest.approx(0.014)
        assert pull.result.duplicates == 0

    def test_verdict_is_available_before_linger_ends(self):
        pull = machine()
        pull.start(0.0)
        for now, frame in whole_stream():
            pull.on_frame(frame, now)
        assert pull.result.ok and not pull.done
        assert pull.quiet_s == 0.1
        assert pull.on_quiet(0.114) == [] and pull.done


class TestThePumpsQuietPeriod:
    """``_PumpClient`` is the quiet-period contract on a socket: a ring of
    reads restarts the period once, at the ring's ``now``, if the machine
    wanted any of it — to the ``quiet_s`` of the state the ring ended in."""

    @pytest.fixture
    def pump(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        client = _PumpClient(
            1, SIZE, server.getsockname(), ring_slots=8, slot_bytes=8192,
            protocol="blast", strategy="selective", pull_timeout_s=0.25,
            pull_retries=3, recv_timeout_s=2.0, linger_s=0.1)
        client.start(0.0)

        def deliver(*frames):
            for frame in frames:
                datagram = frame if isinstance(frame, bytes) else encode(frame)
                server.sendto(datagram, client.sock.getsockname())
            assert select.select([client.sock], [], [], 2.0)[0]

        def heard():
            frames = []
            while select.select([server], [], [], 0.05)[0]:
                frames.append(decode(server.recv(65535)))
            return frames

        yield client, deliver, heard
        client.close()
        server.close()

    def test_only_a_wanted_frame_restarts_it(self, pump):
        client, deliver, _heard = pump
        assert client.next_timer == 0.25
        damaged = bytearray(encode(verdict()))
        damaged[-1] ^= 0x01
        deliver(data(0), verdict(stream_id=2), bytes(damaged),
                AckFrame(transfer_id=1, seq=0, stream_id=1))
        assert client.on_readable(0.1) is False
        assert client.next_timer == 0.25         # nothing wanted: untouched
        deliver(verdict())
        client.on_readable(0.2)
        assert client.next_timer == 0.2 + 2.0    # receiving: recv_timeout_s
        deliver(verdict(), data(1, stream_id=2))
        client.on_readable(0.3)
        assert client.next_timer == 0.2 + 2.0    # a duplicate verdict is not progress
        deliver(data(1, stream_id=2), data(0))
        client.on_readable(0.4)
        assert client.next_timer == 0.4 + 2.0    # one wanted frame in the ring is enough

    def test_it_restarts_to_the_state_the_ring_ended_in(self, pump):
        client, deliver, heard = pump
        # Verdict, body and final packet in one ring: pulling ->
        # receiving -> linger, three values of quiet_s, one restart.
        deliver(verdict(), *[data(seq) for seq in range(PACKETS)])
        assert client.on_readable(0.5) is False
        assert client.machine.result.ok and not client.machine.done
        assert client.machine.quiet_s == 0.1
        assert client.next_timer == 0.5 + 0.1
        request, ack = heard()                   # the reply left in the ring's flush
        assert isinstance(request, ControlFrame)
        assert isinstance(ack, AckFrame) and ack.seq == PACKETS - 1
        client.on_timer(0.55)
        assert not client.machine.done           # before next_timer: a no-op
        client.on_timer(0.6)
        assert client.machine.done


def ring_of(*frames):
    """A ring of reads as ``recv_batch`` returns it: views of one arena."""
    datagrams = [frame if isinstance(frame, bytes) else encode(frame)
                 for frame in frames]
    arena = memoryview(bytearray(b"".join(datagrams)))
    ring, start = [], 0
    for datagram in datagrams:
        ring.append((arena[start:start + len(datagram)], ("127.0.0.1", 9)))
        start += len(datagram)
    return ring


def frame_by_frame(pull, ring, now):
    """The hand-off before runs: every datagram decoded to a frame,
    the ring to ``on_frames``."""
    frames = []
    for view, _sender in ring:
        try:
            frames.append(decode(view))
        except WireError:
            pass
    return pull.on_frames(frames, now)


def outcome(pull):
    receiver = pull._receiver
    return (pull.pulling, pull.done, pull.quiet_s, pull.result,
            pull._verified, pull._bytes, pull._intact,
            None if receiver is None else (
                receiver.tracker.received, dict(receiver.chunks),
                receiver.duplicates, receiver.dropped, receiver.replies_sent))


def damaged(frame):
    datagram = bytearray(encode(frame))
    datagram[-1] ^= 0x01
    return bytes(datagram)


class TestTheBodyAsOneRun:
    """``_take_ring``, the pump's hand-off of a ring of reads: once the
    verdict is in, the stream's data packets go to ``PullMachine.on_run``
    as one run, and the machine must answer and end up as ``on_frames``
    over the same ring's frames leaves it."""

    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_data_read_before_its_verdict_is_dropped(self, protocol):
        runs, frames = machine(protocol=protocol), machine(protocol=protocol)
        for pull in (runs, frames):
            pull.start(0.0)
        early = ring_of(data(0), data(1), verdict(), data(2), data(3))
        assert _take_ring(runs, early, 0.1) == frame_by_frame(frames, early, 0.1)
        assert outcome(runs) == outcome(frames)
        assert not runs.pulling and runs._receiver.tracker.received == {2, 3}
        # The verdict again, then the packets it dropped: a read of the body.
        late = ring_of(verdict(), data(0), data(1))
        assert _take_ring(runs, late, 0.2) == frame_by_frame(frames, late, 0.2)
        assert outcome(runs) == outcome(frames)
        assert runs.result.ok and runs.result.duplicates == 0

    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_the_verdict_followed_by_data_is_taken_whole(self, protocol):
        runs, frames = machine(protocol=protocol), machine(protocol=protocol)
        for pull in (runs, frames):
            pull.start(0.0)
        ring = ring_of(verdict(), *[data(seq) for seq in range(PACKETS)])
        replies = _take_ring(runs, ring, 0.1)
        assert replies == frame_by_frame(frames, ring, 0.1)
        assert len(replies) == (PACKETS if protocol == "sliding" else 1)
        assert outcome(runs) == outcome(frames) and runs.result.ok

    ARRIVALS = [data(seq) for seq in range(PACKETS)] + [
        data(1, stream_id=2), verdict(), AckFrame(1, 0, stream_id=1),
        damaged(data(2)), data(0, payload=bytes(SIZE)),   # wrong bytes
        DataFrame(1, 7, 8, b"stale", stream_id=1),        # another total
    ]

    @settings(max_examples=100, deadline=None)
    @given(protocol=st.sampled_from(["blast", "sliding"]),
           rings=st.lists(st.lists(st.integers(0, len(ARRIVALS) - 1),
                                   max_size=8), max_size=6))
    def test_runs_answer_as_frames_do(self, protocol, rings):
        runs, frames = machine(protocol=protocol), machine(protocol=protocol)
        for pull in (runs, frames):
            pull.start(0.0)
            pull.on_frames([verdict()], 0.0)
        for now, picks in enumerate(rings, 1):
            ring = ring_of(*[self.ARRIVALS[pick] for pick in picks])
            assert (_take_ring(runs, ring, now)
                    == frame_by_frame(frames, ring, now))
            assert outcome(runs) == outcome(frames)


class TestAgainstTheRealCore:
    @pytest.mark.parametrize("protocol", ["blast", "sliding", "saw"])
    def test_machine_and_service_core_complete_a_pull(self, protocol):
        """No substrate at all: frames are handed across by hand."""
        core = ServiceCore(ServiceConfig(protocol=protocol, seed=SEED))
        pull = machine(stream_id=3, protocol=protocol)
        to_server = pull.start(0.0)
        now = 0.0
        for _ in range(200):
            to_client = []
            for frame in to_server:
                to_client += [f for f, _ in core.on_frame(frame, now,
                                                          client="c")]
            to_client += [f for f, _ in core.poll(now)]
            to_server = []
            for frame in to_client:
                if pull.wants(frame):
                    to_server += pull.on_frame(frame, now)
            now += 0.001
            if pull.result is not None and core.idle:
                break
        assert pull.result.ok and pull.result.size_bytes == SIZE
        assert core.finished_count == 1

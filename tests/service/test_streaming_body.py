"""The body as a stream: packets produced on demand by the sender,
verified on arrival by the client.

Four groups: the source itself (property tests against the one-shot
``service_payload``), the complexity guard (counts of bytes drawn and
packets retained, never timings), the hostile packet count, and the
differential test that on-arrival verification is exactly as strict as
joining the whole body and comparing it — on the machine alone, on the
DES client and on the UDP pump.
"""

import hashlib
import json
import random
import socket
import types

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.base import chunk_payload
from repro.core.frames import AckFrame, ControlFrame, DataFrame
from repro.core.wire import encode
from repro.service import machines
from repro.service.clientpump import UdpClientPump
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.machines import (
    BlastSenderMachine,
    BodyStream,
    WindowSenderMachine,
    make_sender_machine,
    receiver_for,
    service_payload,
)
from repro.service.pullclient import PullMachine
from repro.service.simservice import _client_process
from repro.sim import Environment
from repro.simnet.host import make_network

from .test_machines import drain

SEED = 7


def pull_request(stream, size):
    body = {"op": "pull", "size": size, "stream": stream}
    return ControlFrame(transfer_id=0, request_id=stream,
                        body=json.dumps(body).encode())


def verdict(stream, size, packets, seed=SEED):
    body = {"status": "ok", "stream": stream, "size": size,
            "packets": packets, "seed": seed}
    return ControlFrame(transfer_id=stream, request_id=stream,
                        body=json.dumps(body).encode(), stream_id=stream)


def pull_machine(stream, size, protocol="blast", **kwargs):
    return PullMachine(stream, size, protocol, "selective",
                       pull_timeout_s=0.25, pull_retries=3,
                       recv_timeout_s=2.0, linger_s=0.05, **kwargs)


# -- the source ---------------------------------------------------------------

class TestBodyStream:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), stream=st.integers(1, 2**20),
           size=st.integers(0, 40_000), packet_bytes=st.integers(1, 5000))
    @example(seed=7, stream=1, size=0, packet_bytes=1024)       # empty body
    @example(seed=7, stream=1, size=100, packet_bytes=1024)     # one short packet
    @example(seed=7, stream=1, size=4099, packet_bytes=1021)    # not word-aligned
    @example(seed=7, stream=1, size=515, packet_bytes=1)
    @example(seed=7, stream=1, size=3 * BodyStream.BLOCK + 2, packet_bytes=1024)
    def test_packets_concatenate_to_the_one_shot_body(self, seed, stream,
                                                      size, packet_bytes):
        assume(size // packet_bytes <= 4096)
        body = BodyStream(seed, stream, size)
        assert len(body) == size
        packets = [body.read(packet_bytes)
                   for _ in range(max(1, -(-size // packet_bytes)))]
        assert packets == chunk_payload(service_payload(seed, stream, size),
                                        packet_bytes)
        assert body.read(packet_bytes) == b""

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(0, 50_000),
           lengths=st.lists(st.integers(0, 20_000), max_size=30))
    def test_any_read_lengths_walk_the_same_bytes(self, size, lengths):
        body = BodyStream(SEED, 3, size)
        expected = service_payload(SEED, 3, size)
        offset = 0
        for n in lengths:
            assert body.read(n) == expected[offset:offset + n]
            offset += n

    def test_the_body_definition_is_pinned(self):
        # The bytes a (seed, stream, size) names are part of the wire
        # contract between a server and a client of different versions.
        assert hashlib.sha256(service_payload(7, 1, 4096)).hexdigest() == (
            "e5617070e6a51b07190fd7456b9bb33cfe9f1223e2f5b23d7bd52474be7f3017")

    @pytest.mark.parametrize("protocol", ["blast", "sliding", "saw"])
    @pytest.mark.parametrize("size, packet_bytes", [
        (0, 1024), (4096, 1024), (70_001, 1024), (5000, 333)])
    def test_wire_bytes_equal_the_eager_encoding(self, protocol, size,
                                                 packet_bytes):
        """The datagrams of a first transmission, against the same
        frames built from the whole body cut up front."""
        stream = 5
        machine = make_sender_machine(
            protocol, stream, BodyStream(SEED, stream, size), packet_bytes,
            timeout_s=0.1, window=8)
        chunks = chunk_payload(service_payload(SEED, stream, size),
                               packet_bytes)
        sent = []
        while not machine.done:
            for frame in drain(machine, 0.0):
                sent.append(encode(frame))
                if protocol != "blast" or frame.wants_reply:
                    ack = frame.seq if protocol != "blast" else len(chunks) - 1
                    machine.on_frame(AckFrame(transfer_id=stream, seq=ack,
                                              stream_id=stream), 0.0)
        assert sent == [
            encode(DataFrame(
                transfer_id=stream, seq=seq, total=len(chunks), payload=chunk,
                wants_reply=(protocol != "blast" or seq == len(chunks) - 1),
                stream_id=stream))
            for seq, chunk in enumerate(chunks)]
        assert machine.outcome().size_bytes == size
        assert machine.outcome().packets == len(chunks)


class TestAcrossVersions:
    """A peer that still treats the body as one buffer interoperates."""

    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_whole_body_client_against_the_streaming_server(self, protocol):
        size, stream = 10_000, 4
        core = ServiceCore(ServiceConfig(protocol=protocol, seed=SEED))
        (reply, _), = core.on_frame(pull_request(stream, size), 0.0,
                                    client="c")
        seed = json.loads(reply.body)["seed"]
        receiver = receiver_for(protocol, stream)
        now = 0.0
        while not core.idle:
            for frame, _client in core.poll(now):
                for answer in receiver.on_frame(frame, now):
                    core.on_frame(answer, now, client="c")
            now += 0.001
        assert receiver.data == service_payload(seed, stream, size)
        assert core.finished[stream].ok

    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_streaming_client_against_a_whole_body_server(self, protocol):
        size, stream = 10_000, 4
        sender = make_sender_machine(
            protocol, stream, service_payload(SEED, stream, size), 1024,
            timeout_s=0.1, window=4)
        pull = pull_machine(stream, size, protocol)
        pull.start(0.0)
        pull.on_frame(verdict(stream, size, sender.total), 0.0)
        while not sender.done:
            for frame in drain(sender, 0.0):
                for answer in pull.on_frame(frame, 0.0):
                    sender.on_frame(answer, 0.0)
        assert pull.result.ok and pull.result.size_bytes == size


# -- complexity guard: counts, not timings -----------------------------------------

class CountingRandom(random.Random):
    """``random.Random`` that adds up the body bytes drawn from it."""

    drawn = 0

    def randbytes(self, n):
        CountingRandom.drawn += n
        return super().randbytes(n)


@pytest.fixture
def drawn(monkeypatch):
    """Swap the generator ``machines`` seeds for the counting one."""
    monkeypatch.setattr(CountingRandom, "drawn", 0)
    monkeypatch.setattr(machines, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    return lambda: CountingRandom.drawn


class TestCountsNotTimings:
    def test_admission_draws_no_body_bytes(self, drawn):
        config = ServiceConfig(max_active=8, grants_per_poll=8)
        core = ServiceCore(config)
        for stream in range(1, config.max_active + 1):
            (reply, _), = core.on_frame(
                pull_request(stream, config.max_size_bytes), 0.0, client="c")
            assert json.loads(reply.body)["status"] == "ok"
        assert core.active_count == config.max_active
        assert drawn() == 0
        # The first grant pays for what it sends, not for the transfer.
        assert len(core.poll(0.0)) == config.grants_per_poll
        assert 0 < drawn() <= config.grants_per_poll * BodyStream.BLOCK

    def test_window_sender_retains_at_most_its_window(self, drawn):
        window, packets = 32, 1024
        machine = WindowSenderMachine(
            1, BodyStream(SEED, 1, packets * 1024), 1024, timeout_s=0.5,
            window=window)
        in_flight = []
        while not machine.done:
            in_flight += drain(machine, 0.0)
            assert len(machine._outstanding) <= window
            assert drawn() <= (machine._next_unsent * 1024
                               + BodyStream.BLOCK)
            frame = in_flight.pop(0)
            machine.on_frame(AckFrame(transfer_id=1, seq=frame.seq,
                                      stream_id=1), 0.0)
        assert not machine._outstanding
        assert drawn() == packets * 1024

    def test_blast_sender_retains_each_packet_once(self, drawn):
        packets = 64
        machine = BlastSenderMachine(
            1, BodyStream(SEED, 1, packets * 1024), 1024, timeout_s=0.1,
            strategy="full_no_nak")
        first = drain(machine, 0.0)
        machine.poll(0.2)                   # silent round: full retransmission
        second = drain(machine, 0.2)
        # One table, one entry per packet, holding the only copy of its
        # bytes: the retransmitted frames carry the very same objects
        # and no byte of the body was drawn a second time.
        assert len(machine._retained) == packets
        assert ([id(f.payload) for f in first]
                == [id(f.payload) for f in second]
                == [id(machine._retained[seq]) for seq in range(packets)])
        assert drawn() == packets * 1024
        assert machine.retransmits == packets
        machine.on_frame(AckFrame(transfer_id=1, seq=packets - 1,
                                  stream_id=1), 0.25)
        assert machine.done and not machine._retained

    def test_generator_lives_only_while_the_body_flows(self):
        # 1,024 queued or finished DES clients each holding 2.5 KB of
        # generator state (and a last block) was +19 % peak RSS.
        body = BodyStream(SEED, 1, 3 * BodyStream.BLOCK)
        assert body._draw is None
        body.read(1024)
        assert body._draw is not None
        while body.read(4096):
            pass
        assert body._draw is None

    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_in_order_pull_holds_one_packet_at_a_time(self, protocol):
        size, stream = 256 * 1024, 2
        chunks = chunk_payload(service_payload(SEED, stream, size), 1024)
        pull = pull_machine(stream, size, protocol)
        pull.start(0.0)
        pull.on_frame(verdict(stream, size, len(chunks)), 0.0)
        for seq, chunk in enumerate(chunks):
            pull.on_frame(DataFrame(
                transfer_id=stream, seq=seq, total=len(chunks), payload=chunk,
                wants_reply=(seq == len(chunks) - 1), stream_id=stream), 0.0)
            assert len(pull._receiver.chunks) <= 1
        assert pull.result.ok and not pull._receiver.chunks
        assert pull._body is None           # released with the verdict

    def test_early_packets_wait_for_their_turn(self):
        size, stream = 8 * 1024, 2
        chunks = chunk_payload(service_payload(SEED, stream, size), 1024)
        pull = pull_machine(stream, size)
        pull.start(0.0)
        pull.on_frame(verdict(stream, size, 8), 0.0)
        for held, seq in enumerate(reversed(range(1, 8)), start=1):
            pull.on_frame(DataFrame(transfer_id=stream, seq=seq, total=8,
                                    payload=chunks[seq], stream_id=stream),
                          0.0)
            assert len(pull._receiver.chunks) == held
        pull.on_frame(DataFrame(transfer_id=stream, seq=0, total=8,
                                payload=chunks[0], stream_id=stream), 0.0)
        assert pull.result.ok and not pull._receiver.chunks


# -- scripted peers on both substrates -------------------------------------------------

def run_on_des(size, packets, frames, stream=1):
    """One pull on the simulated LAN against a server that answers the
    request with ``verdict`` + ``frames`` and nothing else."""
    env = Environment()
    (server, client), _medium = make_network(env, ["server", "client000"])
    pull = pull_machine(stream, size, client="client000")

    def scripted_server():
        yield from server.receive()
        for frame in [verdict(stream, size, packets)] + list(frames):
            yield from server.send(frame, dst=client)

    env.process(scripted_server())
    env.process(_client_process(env, client, server, pull, 0.0))
    env.run()
    return pull.result


def run_on_pump(scripts):
    """``scripts``: one ``(size, packets, frames_for(stream))`` per
    client.  Everything a client will read is queued on its socket
    before the pump starts, so the order is fixed (no server thread)."""
    server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    server.bind(("127.0.0.1", 0))
    pump = UdpClientPump(server.getsockname(), [s[0] for s in scripts],
                         recv_timeout_s=0.5, linger_s=0.0)
    try:
        for client, (size, packets, frames_for) in zip(pump.clients, scripts):
            stream = client.stream_id
            for frame in ([verdict(stream, size, packets)]
                          + list(frames_for(stream))):
                server.sendto(encode(frame), client.sock.getsockname())
        pulls = pump.run(overall_timeout_s=10.0)
    finally:
        server.close()
    return [pulls[client.stream_id] for client in pump.clients]


def data_frames(stream, chunks, total=None, order=None):
    total = len(chunks) if total is None else total
    order = range(len(chunks)) if order is None else order
    return [DataFrame(transfer_id=stream, seq=seq, total=total,
                      payload=chunks[seq], wants_reply=(seq == total - 1),
                      stream_id=stream) for seq in order]


# -- the hostile packet count -----------------------------------------------------------

class TestHostilePacketCount:
    """A data frame used to fix the packet count, so one forged or stale
    frame arriving first made every real frame look like the forgery
    (stall after ``recv_timeout_s``) and sized the NAK it provoked."""

    SIZE = 4096

    def hostile_then_real(self, stream):
        chunks = chunk_payload(service_payload(SEED, stream, self.SIZE), 1024)
        forged = DataFrame(transfer_id=stream, seq=999_999, total=1_000_000,
                           payload=b"x", wants_reply=True, stream_id=stream)
        return [forged] + data_frames(stream, chunks)

    def test_machine_drops_it_and_builds_no_report(self):
        pull = pull_machine(1, self.SIZE)
        pull.start(0.0)
        pull.on_frame(verdict(1, self.SIZE, 4), 0.0)
        forged, *real = self.hostile_then_real(1)
        assert pull.on_frame(forged, 0.0) == []
        for frame in real:
            pull.on_frame(frame, 0.0)
        assert pull.result.ok and pull.result.dropped == 1

    def test_des_pull_completes(self):
        result = run_on_des(self.SIZE, 4, self.hostile_then_real(1))
        assert (result.status, result.payload_ok, result.dropped) == (
            "ok", True, 1)

    def test_pump_pull_completes(self):
        results = run_on_pump([(self.SIZE, 4, self.hostile_then_real)] * 2)
        assert [(r.status, r.payload_ok, r.dropped) for r in results] == [
            ("ok", True, 1)] * 2

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 120), packets=st.integers(-2, 130))
    def test_verdict_count_must_be_a_way_to_cut_the_body(self, size, packets):
        possible = any(max(1, -(-size // packet_bytes)) == packets
                       for packet_bytes in range(1, size + 2))
        pull = pull_machine(1, size)
        pull.start(0.0)
        pull.on_frame(verdict(1, size, packets), 0.0)
        accepted = pull.wants(DataFrame(transfer_id=1, seq=0, total=1,
                                        payload=b"", stream_id=1))
        assert accepted == possible


# -- streaming verification is as strict as the whole-body compare ---------------------------

def whole_body_verdict(size, total, arrivals, stream, seed=SEED):
    """What a client that joins the body and compares it once concludes
    (the first arrival of each packet wins; the verdict is fixed at
    completion)."""
    got = {}
    for frame in arrivals:
        if frame.total == total:
            got.setdefault(frame.seq, frame.payload)
        if len(got) == total:
            body = b"".join(got[seq] for seq in range(total))
            return body == service_payload(seed, stream, size)
    return None


def flip(chunk, at):
    return chunk[:at] + bytes([chunk[at] ^ 0x40]) + chunk[at + 1:]


#: name -> (chunks -> chunks): ways a body can be wrong (or merely cut
#: differently) while every datagram still carries a valid checksum.
MUTATIONS = {
    "intact": lambda c: c,
    "flipped byte": lambda c: c[:1] + [flip(c[1], 100)] + c[2:],
    "flipped last byte": lambda c: c[:-1] + [flip(c[-1], len(c[-1]) - 1)],
    "swapped packets": lambda c: [c[1], c[0]] + c[2:],
    "short last packet": lambda c: c[:-1] + [c[-1][:-1]],
    "long last packet": lambda c: c[:-1] + [c[-1] + b"\0"],
    "missing tail": lambda c: c[:-1],
    "empty tail": lambda c: c[:-1] + [b""],
    "cut at other bounds": lambda c: chunk_payload(b"".join(c), 683),
}
FIXED_SIZE = 4096
#: arrival orders for the fixed cases: in order, reversed with a
#: duplicate, and interleaved with duplicates.
ORDERS = {
    "in order": lambda n: list(range(n)),
    "reversed, duplicated": lambda n: list(reversed(range(n))) + [0],
    "interleaved, duplicated": lambda n: ([0] + list(range(1, n, 2)) + [0]
                                          + list(range(0, n, 2))),
}


def fixed_case(mutation, order):
    def frames_for(stream):
        chunks = MUTATIONS[mutation](
            chunk_payload(service_payload(SEED, stream, FIXED_SIZE), 1024))
        return data_frames(stream, chunks, order=ORDERS[order](len(chunks)))
    return frames_for


FIXED_CASES = [(mutation, order) for mutation in MUTATIONS for order in ORDERS]


class TestAsStrictAsTheWholeBodyCompare:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_machine_agrees_with_join_and_compare(self, data):
        size = data.draw(st.integers(0, 6000), label="size")
        packet_bytes = data.draw(st.integers(max(1, size // 48), 2048),
                                 label="packet_bytes")
        stream = data.draw(st.integers(1, 50), label="stream")
        chunks = chunk_payload(service_payload(SEED, stream, size),
                               packet_bytes)
        mutation = data.draw(st.sampled_from(sorted(MUTATIONS)),
                             label="mutation")
        if mutation in ("flipped byte", "swapped packets"):
            assume(len(chunks) >= 2 and len(chunks[1]) > 100)
        assume(chunks[-1] or mutation not in ("flipped last byte",))
        chunks = MUTATIONS[mutation](chunks)
        assume(chunks)
        total = len(chunks)
        # Arrivals: every packet once, plus duplicates that may carry
        # other bytes than the original, in any order.
        arrivals = [(seq, chunks[seq]) for seq in range(total)]
        for seq in data.draw(st.lists(st.integers(0, total - 1), max_size=6),
                             label="duplicates"):
            evil = data.draw(st.booleans()) and len(chunks[seq]) > 0
            arrivals.append((seq, flip(chunks[seq], 0) if evil
                             else chunks[seq]))
        arrivals = data.draw(st.permutations(arrivals), label="order")
        frames = [DataFrame(transfer_id=stream, seq=seq, total=total,
                            payload=payload, stream_id=stream)
                  for seq, payload in arrivals]

        pull = pull_machine(stream, size)
        pull.start(0.0)
        pull.on_frame(verdict(stream, size, total), 0.0)
        assume(pull.wants(frames[0]))     # the count can cut this size
        for frame in frames:
            pull.on_frame(frame, 0.0)
            if pull.result is not None:
                break
        expected = whole_body_verdict(size, total, frames, stream)
        assert expected is not None and pull.result is not None
        assert pull.result.payload_ok == expected
        assert pull.result.status == "ok"

    @pytest.mark.parametrize("mutation, order", FIXED_CASES)
    def test_des_client_agrees(self, mutation, order):
        frames = fixed_case(mutation, order)(1)
        total = len({frame.seq for frame in frames})
        result = run_on_des(FIXED_SIZE, total, frames)
        assert result.status == "ok"
        assert result.payload_ok == whole_body_verdict(FIXED_SIZE, total,
                                                       frames, 1)
        assert result.payload_ok == (mutation in ("intact",
                                                  "cut at other bounds"))

    def test_pump_agrees(self):
        scripts, expected = [], []
        for index, (mutation, order) in enumerate(FIXED_CASES):
            frames_for = fixed_case(mutation, order)
            frames = frames_for(index + 1)
            total = len({frame.seq for frame in frames})
            scripts.append((FIXED_SIZE, total, frames_for))
            expected.append(("ok", whole_body_verdict(
                FIXED_SIZE, total, frames, index + 1)))
        results = run_on_pump(scripts)
        assert [(r.status, r.payload_ok) for r in results] == expected
        assert {ok for _status, ok in expected} == {True, False}

"""Protocol totality, checked by running the dispatchers.

Every dispatcher of the pull protocol is handed one honest frame of each
:class:`FrameKind` (built by the live peers, carried through ``encode``
and ``decode``) in each state it can be in, and :data:`TABLE` says what
must happen: a *handled* frame changes something a driver can see
(a frame ready, a deadline, the verdict, a counter, a reply or an
output), an *ignored* one changes none of that and answers nothing.
Nothing may raise, a finished sender stays finished, every kind is
handled somewhere and crosses the codec, and every sender completes a
clean transfer against the receiver that matches it.

The body is one packet, so the one honest ACK (seq 0) is both the
per-packet acknowledgement and the blast's whole-sequence one.
"""

import select
import socket
from functools import partial

import pytest

from repro.core.frames import AckFrame, FrameKind, NakFrame
from repro.core.wire import decode, encode
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.iobatch import DatagramBatchIO
from repro.service.machines import (
    make_sender_machine,
    receiver_for,
    service_payload,
)
from repro.service.pullclient import PullMachine
from repro.service.udpservice import deliver_ring
from repro.udpnet import endpoints, fileserver, transfer

S, SEED, SIZE = 1, 7, 64
NOW = 0.001
CONFIG = ServiceConfig(packet_bytes=SIZE, seed=SEED)
STRATEGIES = ("full_no_nak", "full_nak", "gobackn", "selective")
SENDERS = [("blast", s) for s in STRATEGIES] + [
    ("sliding", "selective"), ("saw", "selective")]

H, I = True, False  # handled, ignored
#: dispatcher -> what it does with each kind, in FrameKind order
#: (DATA, ACK, NAK, CONTROL).  Sender rows hold mid-round; finished
#: senders ignore everything.
TABLE = {
    "blast sender": (I, H, H, I),
    "window sender": (I, H, I, I),
    "receiver": (H, I, I, I),
    "pull, pulling": (I, I, I, H),
    "pull, receiving": (H, I, I, I),
    "pull, lingering": (H, I, I, I),
    "ServiceCore.on_frame": (I, H, H, H),
    "deliver_ring": (I, H, H, H),
}


def wire(frame):
    return decode(encode(frame))


def new_pull():
    return PullMachine(S, SIZE, "blast", "selective", pull_timeout_s=0.25,
                       pull_retries=3, recv_timeout_s=2.0, linger_s=0.1)


def _honest_frames():
    """A client's pull, the server's verdict and data, the receiver's
    ACK, and the report a blast receiver sends when packet 0 is missing."""
    (request,) = new_pull().start(0.0)
    core = ServiceCore(CONFIG)
    ((verdict, _),) = core.on_frame(request, 0.0, client="c")
    ((data, _),) = core.drain_sends(0.0, 8)
    (ack,) = receiver_for("saw", S).on_frame(data, 0.0)
    nak = NakFrame(S, 0, (0,), 1, stream_id=S)
    return request, verdict, data, ack, nak


REQUEST, VERDICT, DATA, ACK, NAK = _honest_frames()
#: What reaches the server side (senders, the core) and the client side.
TO_SERVER = {FrameKind.DATA: DATA, FrameKind.ACK: ACK, FrameKind.NAK: NAK,
             FrameKind.CONTROL: REQUEST}
TO_CLIENT = {**TO_SERVER, FrameKind.CONTROL: VERDICT}


# -- probes: (frames it is fed, feed(frame) -> answer, observe() -> state) --
def sender_probe(protocol, strategy, state, udp):
    machine = make_sender_machine(
        protocol, S, DATA.payload, SIZE, 0.5, strategy=strategy,
        max_rounds=1 if state == "failed" else 60)
    if state != "fresh":
        machine.next_frame(0.0)  # the only packet is out
    if state == "done":
        machine.on_frame(wire(ACK), 0.0)
    elif state == "failed":
        machine.poll(10.0)
    return TO_SERVER, lambda frame: machine.on_frame(frame, NOW), lambda: (
        machine.has_frame(NOW), machine.frames_available(NOW),
        machine.next_deadline(), machine.finished, machine.outcome(),
        getattr(machine, "dropped", 0))


def receiver_probe(protocol, strategy, state, udp):
    machine = receiver_for(protocol, S, strategy)
    if state == "complete":
        machine.on_frame(wire(DATA), 0.0)
    return TO_CLIENT, lambda frame: machine.on_frame(frame, NOW), lambda: (
        machine.done, machine.duplicates, machine.dropped,
        machine.replies_sent, machine.checksums, dict(machine.chunks))


def pull_probe(state, udp):
    machine = new_pull()
    machine.start(0.0)
    for frame in {"receiving": [VERDICT],
                  "lingering": [VERDICT, DATA]}.get(state, []):
        machine.on_frames([wire(frame)], 0.0)

    def feed(frame):
        answer = machine.on_frames([frame], NOW)
        # None: not wanted.  A list, even empty, restarts the quiet period.
        return answer if answer is None else ["restart", *answer]

    return TO_CLIENT, feed, lambda: (machine.done, machine.result,
                                     machine.quiet_s)


def core_state(core):
    return (core.active_count, core.pending_count, core.finished_count,
            core.next_deadline(NOW), core.foreign_replies)


def core_probe(udp):
    core = ServiceCore(CONFIG)
    core.on_frame(wire(REQUEST), 0.0, client="c")
    core.drain_sends(0.0, 8)  # mid-round: the only packet is out
    return (TO_SERVER, lambda frame: core.on_frame(frame, NOW, client="c"),
            lambda: core_state(core))


class Staged(list):
    def send_frame(self, frame, address):
        self.append((frame, address))


def ring_probe(udp):
    """``deliver_ring`` on rings read from a loopback socket."""
    server, client = udp(), udp()
    core, io = ServiceCore(CONFIG), DatagramBatchIO(server, ring_slots=1)

    def feed(frame, now=NOW):
        client.sendto(encode(frame), server.getsockname())
        assert select.select([server], [], [], 2.0)[0]
        staged = Staged()
        deliver_ring(core, staged, io.recv_batch(), now)
        return staged

    feed(REQUEST, 0.0)
    core.drain_sends(0.0, 8)
    return TO_SERVER, feed, lambda: core_state(core)


def _dispatchers():
    """``(id, TABLE row, state, probe(udp))`` for every dispatcher."""
    for protocol, strategy in SENDERS:
        row = "blast sender" if protocol == "blast" else "window sender"
        for state in ("fresh", "mid-round", "done", "failed"):
            yield (f"{protocol}-{strategy}-{state}", row, state,
                   partial(sender_probe, protocol, strategy, state))
        for state in ("empty", "complete"):
            yield (f"{protocol}-{strategy}-receiver-{state}", "receiver",
                   state, partial(receiver_probe, protocol, strategy, state))
    for state in ("pulling", "receiving", "lingering"):
        yield f"pull-{state}", f"pull, {state}", state, partial(pull_probe,
                                                                 state)
    yield "core", "ServiceCore.on_frame", "mid-round", core_probe
    yield "ring", "deliver_ring", "mid-round", ring_probe


def cells(states, handled=None):
    """One case per (dispatcher in ``states``, kind it ``handled``)."""
    return [pytest.param(probe, kind, id=f"{name}-{kind.name}")
            for name, row, state, probe in _dispatchers() if state in states
            for kind, cell in zip(FrameKind, TABLE[row])
            if handled is None or cell is handled]


LIVE = {"fresh", "mid-round", "empty", "complete", "pulling", "receiving",
        "lingering"}


@pytest.fixture
def udp():
    sockets = []

    def bind():
        sockets.append(socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
        sockets[-1].bind(("127.0.0.1", 0))
        return sockets[-1]

    yield bind
    for sock in sockets:
        sock.close()


def run(probe, udp, kind):
    frames, feed, observe = probe(udp)
    before = observe()
    answer = feed(wire(frames[kind]))
    return before, answer, observe()


@pytest.mark.parametrize("probe,kind", cells(LIVE, handled=I))
def test_ignored_cells_change_nothing_and_answer_nothing(probe, kind, udp):
    before, answer, after = run(probe, udp, kind)
    assert not answer and after == before


# A fresh sender has sent nothing an honest reply could answer.
@pytest.mark.parametrize("probe,kind", cells(LIVE - {"fresh"}, handled=H))
def test_handled_cells_change_what_a_driver_sees(probe, kind, udp):
    before, answer, after = run(probe, udp, kind)
    assert answer or after != before


@pytest.mark.parametrize("probe,kind", cells({"done", "failed"}))
def test_a_finished_sender_stays_finished(probe, kind, udp):
    before, answer, after = run(probe, udp, kind)
    has_frame, available, deadline, finished = after[:4]
    assert finished and not has_frame and not available and deadline is None
    assert after == before and not answer


def test_every_kind_is_handled_somewhere():
    assert {len(row) for row in TABLE.values()} == {len(FrameKind)}
    for index, kind in enumerate(FrameKind):
        assert any(row[index] for row in TABLE.values()), kind


def test_every_kind_crosses_the_codec():
    frames = [*TO_CLIENT.values(), REQUEST]
    assert {frame.kind for frame in frames} == set(FrameKind)
    for frame in frames:
        back = decode(encode(frame))
        assert type(back) is type(frame) and encode(back) == encode(frame)


@pytest.mark.parametrize("protocol,strategy", SENDERS)
def test_each_sender_completes_against_its_matched_receiver(protocol,
                                                            strategy):
    body = service_payload(SEED, S, 5 * SIZE - 7)  # five packets
    sender = make_sender_machine(protocol, S, body, SIZE, 0.5,
                                 strategy=strategy)
    receiver = receiver_for(protocol, S, strategy)
    replies, now = [], 0.0  # (body complete?, reply)
    while not sender.finished and now < 0.1:
        while sender.has_frame(now):
            frame = wire(sender.next_frame(now))
            for reply in receiver.on_frame(frame, now):
                replies.append((receiver.done, reply))
                sender.on_frame(wire(reply), now)
        now += 0.001
    # Reply coherence: a complete body is answered with an ACK of its
    # last packet, and a clean blast hears nothing else.
    final = [reply for complete, reply in replies if complete]
    assert final and set(final) == {AckFrame(S, 4, stream_id=S)}
    assert protocol != "blast" or len(replies) == 1
    assert sender.done and receiver.data == body
    assert sender.outcome().retransmits == 0


def test_no_udpnet_module_builds_an_ack_or_nak():
    # The machines are the protocol's one implementation: the endpoints
    # and the file service carry its frames and never build a reply.
    for module in (endpoints, fileserver, transfer):
        names = vars(module).values()
        assert not any(v is AckFrame or v is NakFrame for v in names)

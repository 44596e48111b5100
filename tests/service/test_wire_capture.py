"""Wire capture: every datagram the server sends, per destination.

A fixed set of pulls runs through the serve loop's two halves —
``drain_sends`` staged on a :class:`DatagramBatchIO` and flushed, then
the clients' replies taken in as one ring by ``deliver_ring`` — on a
made-up clock, over a socket that records what it is asked to send
(``StubSocket``, which cuts a segmented send back into its datagrams).
A loss is a frame-keyed :class:`FaultPlan` on the server's socket, so
the capture is exactly repeatable.

``fixtures/wire_capture.json`` holds, per case and destination, the
count of datagrams and a SHA-256 over them in order (each prefixed by
its length).  It was recorded from the frame-at-a-time send path (one
``next_frame``, ``send_frame`` and ``encode_into`` per datagram), so the
run path must put the same bytes on the wire in the same per-destination
order.  Each destination holds one stream: where one holds several, the
run path may regroup the streams' interleaving (each stream keeps its
own order), which a per-destination digest would not allow.

Re-record (only when the wire format is meant to change)::

    PYTHONPATH=src python -m tests.service.test_wire_capture > \\
        tests/service/fixtures/wire_capture.json
"""

import hashlib
import json
import os

import pytest

from repro.core.wire import decode, encode
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.socket import FaultySocket
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.iobatch import DatagramBatchIO
from repro.service.pullclient import PullMachine
from repro.service.udpservice import SEND_BATCH, deliver_ring

from .test_iobatch import StubSocket

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "wire_capture.json")

#: A body whose last packet is short, so runs end in a shorter datagram.
ODD = 40 * 1024 + 100

#: Lose the 6th data frame the server sends (a NAK round follows) and
#: the 65th: with 64 packets that is the NAK round's one retransmission,
#: its reply-requesting last frame, so the sender times out and goes
#: again from the start.
NAK_THEN_TIMEOUT = FaultPlan("nak-then-timeout", rules=(
    FaultRule("drop", kinds=("data",), direction="send", indices=(5, 64)),))

#: name -> (config, [(client, stream, size, credit)], server fault plan)
CASES = {
    **{f"blast-{strategy}": (
        ServiceConfig(strategy=strategy, policy="rr"),
        [("c1", 1, ODD, None), ("c2", 2, 64 * 1024, None),
         ("c3", 3, 3000, None)],
        None)
       for strategy in ("full_no_nak", "full_nak", "gobackn", "selective")},
    "sliding-32": (
        ServiceConfig(protocol="sliding", window=32, policy="rr"),
        [("c1", 1, 100 * 1024, None), ("c2", 2, ODD, None)],
        None),
    "saw": (
        ServiceConfig(protocol="saw", policy="rr"),
        [("c1", 1, 20 * 1024, None), ("c2", 2, 5000, None)],
        None),
    "blast-credit-2": (
        ServiceConfig(policy="rr"),
        [("c1", 1, ODD, 2), ("c2", 2, 9 * 1024, 2)],
        None),
    "blast-nak-then-timeout": (
        ServiceConfig(timeout_s=0.05),
        [("c1", 1, 64 * 1024, None)],
        NAK_THEN_TIMEOUT),
}


def send_half(core, io, now):
    """``UdpTransferService.serve``'s send half: one drain, one flush."""
    for run in core.drain_sends(now, SEND_BATCH):
        io.send_run(*run)
    io.flush()


def capture(config, pulls, plan=None, outcomes=None):
    """Run ``pulls`` to the end; returns ``{client: [datagram, ...]}``
    in the order the server's socket put them on the wire (the
    server's transfer outcomes go into ``outcomes`` when given)."""
    stub = StubSocket()
    try:
        sock = stub if plan is None else FaultySocket(stub, plan=plan, seed=1)
        io = DatagramBatchIO(sock)
        core = ServiceCore(config)
        machines = {client: PullMachine(stream, size, config.protocol,
                                        config.strategy, pull_timeout_s=0.25,
                                        pull_retries=3, recv_timeout_s=2.0,
                                        linger_s=0.1, credit=credit)
                    for client, stream, size, credit in pulls}
        now = 0.0
        ring = [(memoryview(encode(request)), client)
                for client, machine in machines.items()
                for request in machine.start(now)]
        sent = {client: [] for client in machines}
        while True:
            deliver_ring(core, io, ring, now)
            send_half(core, io, now)
            ring = []
            arrived = {}
            for datagram, client in stub.sent:
                sent[client].append(datagram)
                arrived.setdefault(client, []).append(decode(datagram))
            stub.sent.clear()
            for client, frames in arrived.items():
                for reply in machines[client].on_frames(frames, now) or ():
                    ring.append((memoryview(encode(reply)), client))
            if ring or arrived:
                continue
            deadline = core.next_deadline(now)
            if deadline is None:
                break
            now = max(now, deadline)
        assert core.idle
        if outcomes is not None:
            outcomes.update(core.finished)
        assert all(machine.result.ok and machine.result.payload_ok
                   for machine in machines.values())
        return sent
    finally:
        stub.close()


def digests(sent):
    """``{client: [datagrams, sha256 of the length-prefixed datagrams]}``."""
    out = {}
    for client, datagrams in sorted(sent.items()):
        digest = hashlib.sha256()
        for datagram in datagrams:
            digest.update(len(datagram).to_bytes(4, "big") + datagram)
        out[client] = [len(datagrams), digest.hexdigest()]
    return out


def record():
    return {name: digests(capture(*CASES[name])) for name in sorted(CASES)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_server_sends_the_recorded_datagrams(name):
    with open(FIXTURE) as handle:
        golden = json.load(handle)[name]
    assert digests(capture(*CASES[name])) == golden


def test_the_drop_plan_forces_a_nak_round_and_a_timeout():
    config, pulls, plan = CASES["blast-nak-then-timeout"]
    outcomes = {}
    sent = capture(config, pulls, plan, outcomes)["c1"]
    # After the verdict, round 1 loses seq 5 and is NAKed; round 2 is
    # seq 5 alone, lost; round 3 follows the timeout: the whole body.
    assert [decode(datagram).seq for datagram in sent[1:]] == [
        seq for seq in range(64) if seq != 5] + list(range(64))
    assert (outcomes[1].rounds, outcomes[1].retransmits) == (3, 65)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))

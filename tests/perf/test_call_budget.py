"""Complexity guard: Python-level calls per datagram on the bulk path.

Counts, not timings, in the style of ``tests/simnet/test_event_budget.py``.
A CPython function call costs 50-100 ns before it does anything, and at
~8 µs of processor time per datagram (docs/performance.md, "What a packet
costs") a call the bulk path does not need is a percent of goodput.  A
256-packet blast is walked through the two loops that handle every data
datagram of ``udp_bulk_blast`` — the server's ``drain_sends`` ->
``send_run`` -> ``flush`` and the pump's ``_take_ring`` (``decode_data_run``
-> ``PullMachine.on_run``) — under ``sys.setprofile``, which reports one
``call`` event per Python function entered and none for C functions.
A 256-packet sliding pull is walked through both loops with its ACKs
(``udp_bulk_sliding``'s ack clock), each side counted on its own.

At PR 22 the same walks counted 10.30 calls per datagram sent (``_data``,
``_frame``, the generated ``__init__``, ``__post_init__`` and
``_frame_fields`` on top of six more) and 10.09 per datagram received;
until the server sent a run at a time, 6.30 per datagram sent, and until
the pump took a run at a time, 4.15 per datagram received.
"""

import sys
from collections import Counter
from contextlib import contextmanager

from repro.core.wire import decode, encode
from repro.service.clientpump import _take_ring
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.iobatch import MAX_RUN_SEGMENTS, DatagramBatchIO
from repro.service.pullclient import PullMachine
from repro.service.udpservice import SEND_BATCH, deliver_ring

from ..service.test_iobatch import StubSocket, stub  # noqa: F401 - stub: a fixture

PACKETS = 256
#: Datagrams per coalesced read: one segmented send's worth.
RING = MAX_RUN_SEGMENTS


@contextmanager
def counted_calls(calls=None):
    """``Counter`` of Python functions entered inside the block, by name
    (added to ``calls`` when given one)."""
    calls = Counter() if calls is None else calls

    def on_event(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    outer = sys.getprofile()    # the reachability audit runs under one
    sys.setprofile(on_event)
    try:
        yield calls
    finally:
        sys.setprofile(outer)
    del calls["__exit__"]       # this context manager's own way out


def admitted_pull():
    """A blast server that has just admitted one 256-packet pull, and
    the client machine that asked, holding the verdict."""
    core = ServiceCore(ServiceConfig(max_active=1, seed=7))
    pull = PullMachine(1, PACKETS * 1024, "blast", "selective",
                       pull_timeout_s=0.25, pull_retries=3,
                       recv_timeout_s=2.0, linger_s=0.1)
    (request,) = pull.start(0.0)
    ((verdict, _client),) = core.on_frame(request, 0.0, client="c")
    pull.on_frame(decode(encode(verdict)), 0.0)
    return core, pull


def blast_through_the_send_loop(core, io):
    """``UdpTransferService.serve``'s send half, to the end of the body."""
    while True:
        runs = core.drain_sends(0.0, SEND_BATCH)
        if not runs:
            return
        for run in runs:
            io.send_run(*run)
        io.flush()


def rings_of(datagrams):
    """Coalesced reads of ``RING`` datagrams, as ``recv_batch`` returns
    them."""
    return [[(view, "server") for view in datagrams[start:start + RING]]
            for start in range(0, len(datagrams), RING)]


def test_calls_per_datagram_sent(stub):  # noqa: F811
    core, _pull = admitted_pull()
    io = DatagramBatchIO(stub)
    # ``drain_sends`` counts its grants with ``Counter(list)``, whose
    # Mapping check walks the ABC registry (13 calls) the first time
    # after any class registers with an ABC: once per process, not per
    # datagram, so it is paid here, before counting.
    Counter([])
    with counted_calls() as calls:
        blast_through_the_send_loop(core, io)
    assert len(stub.sent) == PACKETS
    # None per datagram: a drain asks each machine once for its run, and
    # the run is drawn, encoded and sent whole.  What is left is per
    # drain, per run and per segmented send; the message names it.
    assert sum(calls.values()) <= 0.45 * PACKETS, (     # 6.30 frame by
        calls.most_common(12))                          # frame


def test_calls_per_datagram_received(stub):  # noqa: F811
    core, pull = admitted_pull()
    blast_through_the_send_loop(core, DatagramBatchIO(stub))
    rings = rings_of([memoryview(datagram) for datagram, _address in stub.sent])
    replies = []
    with counted_calls() as calls:      # _PumpClient.on_readable's hand-off
        for ring in rings:
            replies += _take_ring(pull, ring, 0.0) or []
    assert pull.result.ok and len(replies) == 1
    # None per datagram: a ring is decoded and taken as one run.  What
    # is left is per ring (the hand-off, decode_data_run, both on_runs,
    # one BodyStream.read, the completion check) and the one ACK; the
    # message names them.
    assert sum(calls.values()) <= 0.20 * PACKETS, (     # 4.15 a frame at
        calls.most_common(12))      # a time, 9.10 at 0582b3c


def admitted_window_pull():
    """A sliding-window server (window 32) that has just admitted one
    256-packet pull, and the client machine holding the verdict."""
    core = ServiceCore(ServiceConfig(protocol="sliding", window=32,
                                     max_active=1, seed=7))
    pull = PullMachine(1, PACKETS * 1024, "sliding", "selective",
                       pull_timeout_s=0.25, pull_retries=3,
                       recv_timeout_s=2.0, linger_s=0.1)
    (request,) = pull.start(0.0)
    ((verdict, _client),) = core.on_frame(request, 0.0, client="c")
    pull.on_frame(decode(encode(verdict)), 0.0)
    return core, pull


def ack_clock(server_calls=None, pump_calls=None):
    """A whole sliding pull through both loops, a window per turn: the
    server grants and flushes, the pump consumes the ring and flushes
    its ACKs, the server takes them in as one ring.  Each side's calls
    are counted into its own ``Counter``."""
    core, pull = admitted_window_pull()
    server, pump = StubSocket(), StubSocket()
    server_io, pump_io = DatagramBatchIO(server), DatagramBatchIO(pump)
    try:
        while not core.idle:
            with counted_calls(server_calls):
                for run in core.drain_sends(0.0, SEND_BATCH):
                    server_io.send_run(*run)
                server_io.flush()
            data = [memoryview(datagram) for datagram, _ in server.sent]
            server.sent.clear()
            ring = [(view, "server") for view in data]
            with counted_calls(pump_calls):     # _PumpClient.on_readable
                for reply in _take_ring(pull, ring, 0.0) or []:
                    pump_io.send_frame(reply, "server")
                pump_io.flush()
            acks = [(memoryview(datagram), "c") for datagram, _ in pump.sent]
            pump.sent.clear()
            with counted_calls(server_calls):
                deliver_ring(core, server_io, acks, 0.0)
    finally:
        server.close()
        pump.close()
    assert pull.result.ok
    assert core.finished[1].data_frames_sent == PACKETS
    assert core.finished[1].retransmits == 0


def test_calls_per_window_frame_at_the_server():
    calls = Counter()
    ack_clock(server_calls=calls)
    # Per data frame: the ACK's decode, on_ack and on_rtt_sample; per
    # window, the run (next_run, one read of the body), on_acks twice,
    # _retime, the ready set and the deadline index.  The message names
    # them.  12.30 a frame at a time: next_frame, BodyStream.read, the
    # frame's __init__, the controller's rto, send_frame, encode_into,
    # has_frame and the controller's window behind it, per data frame.
    assert sum(calls.values()) <= 4.60 * PACKETS, (     # 25.88 at 0582b3c:
        calls.most_common(14))      # decode, AckFrame, on_frame x2 per ACK


def test_calls_per_window_frame_at_the_pump():
    calls = Counter()
    ack_clock(pump_calls=calls)
    # Per data frame: the ACK's __init__, send_frame and encode_into;
    # per ring, the hand-off, decode_data_run, both on_runs, one
    # BodyStream.read and the completion check.  The message names
    # them.  7.45 a frame at a time (decode, the frame's __init__,
    # on_frame and tracker.add on top), 13.32 at 0582b3c.
    assert sum(calls.values()) <= 3.65 * PACKETS, (
        calls.most_common(14))

"""Complexity guard: Python-level calls per datagram on the bulk path.

Counts, not timings, in the style of ``tests/simnet/test_event_budget.py``.
A CPython function call costs 50-100 ns before it does anything, and at
~8 µs of processor time per datagram (docs/performance.md, "What a packet
costs") a call the bulk path does not need is a percent of goodput.  A
256-packet blast is walked through the two loops that handle every data
datagram of ``udp_bulk_blast`` — the server's ``drain_sends`` ->
``send_frame`` -> ``flush`` and the pump's ``decode`` -> ``wants`` ->
``on_frame`` — under ``sys.setprofile``, which reports one ``call`` event
per Python function entered and none for C functions.

At PR 22 the same walks counted 10.30 calls per datagram sent (``_data``,
``_frame``, the generated ``__init__``, ``__post_init__`` and
``_frame_fields`` on top of today's six) and 10.09 per datagram received.
"""

import sys
from collections import Counter
from contextlib import contextmanager

from repro.core.wire import decode, encode
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.iobatch import DatagramBatchIO
from repro.service.pullclient import PullMachine
from repro.service.udpservice import SEND_BATCH

from ..service.test_iobatch import stub  # noqa: F401 - a fixture: a socket that records

PACKETS = 256


@contextmanager
def counted_calls():
    """``Counter`` of Python functions entered inside the block, by name."""
    calls = Counter()

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
        granted = core.drain_sends(0.0, SEND_BATCH)
        if not granted:
            return
        for frame, address in granted:
            io.send_frame(frame, address)
        io.flush()


def test_calls_per_datagram_sent(stub):  # noqa: F811
    core, _pull = admitted_pull()
    io = DatagramBatchIO(stub)
    with counted_calls() as calls:
        blast_through_the_send_loop(core, io)
    assert len(stub.sent) == PACKETS
    # Today one each per datagram — next_frame (which builds the frame),
    # BodyStream.read, the frame's __init__, has_frame, send_frame,
    # encode_into — and 0.30 of per-burst work; the message names them.
    assert sum(calls.values()) <= 6.35 * PACKETS, (     # 10.30 at PR 22
        calls.most_common(12))


def test_calls_per_datagram_received(stub):  # noqa: F811
    core, pull = admitted_pull()
    blast_through_the_send_loop(core, DatagramBatchIO(stub))
    datagrams = [memoryview(datagram) for datagram, _address in stub.sent]
    replies = []
    with counted_calls() as calls:
        for view in datagrams:      # _PumpClient.on_readable's loop
            frame = decode(view)
            if pull.wants(frame):
                replies += pull.on_frame(frame, 0.0)
    assert pull.result.ok and len(replies) == 1
    # Today: decode, the frame's __init__, wants, both on_frames,
    # tracker.add, BodyStream.read, and the two properties behind
    # ``receiver.done``; the message names them.
    assert sum(calls.values()) <= 9.10 * PACKETS, (     # 10.09 at PR 22
        calls.most_common(12))

"""Property suite: heap-timed WindowSenderMachine ≡ the table-scanning one.

Random send / ack / duplicate-ack / out-of-order-ack / advance-clock
sequences drive the live machine and the reference
:class:`.reference_machines.ReferenceWindowSenderMachine` in lockstep.
After every step both must agree on everything a driver can observe —
the frame handed out, ``frames_available``, ``next_deadline``, the
counters and ``outcome()`` (under ``reno`` that includes the whole
cwnd/ssthresh timeline, so the controller saw the same events in the
same order) — and the live machine must keep the promise the engine's
deadline index rests on: if ``next_deadline()`` changed,
``timer_epoch`` changed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.congestion import make_controller
from repro.core.frames import AckFrame
from repro.service.machines import WindowSenderMachine

from .reference_machines import ReferenceWindowSenderMachine

_PACKET_BYTES = 16
_TIMEOUT_S = 0.05

_OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(min_value=1, max_value=40)),
    # What a driver does each turn: run the timers, send all it may.
    st.tuples(st.just("drive")),
    st.tuples(st.just("ack-lowest")),
    # Gap evidence: an ack above the lowest outstanding packet.
    st.tuples(st.just("ack-highest")),
    # Any packet sent so far: above the lowest outstanding one it is an
    # out-of-order ack, already acknowledged it is a duplicate.
    st.tuples(st.just("ack-any"), st.integers(min_value=0)),
    # The last ack again, often enough to fast-retransmit under reno.
    st.tuples(st.just("dup-ack"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("advance"),
              st.sampled_from((0.0005, 0.003, 0.02, 0.051, 0.2))),
)


def _observe(machine, now):
    return (machine.frames_available(now), machine.has_frame(now),
            machine.next_deadline(), machine.data_frames_sent,
            machine.retransmits, machine.rounds, machine.done,
            machine.failed, machine.error, machine.outcome())


@settings(max_examples=150, deadline=None)
@given(
    window=st.sampled_from((1, 4, 32)),
    congestion=st.sampled_from(("fixed", "reno")),
    packets=st.integers(min_value=1, max_value=80),
    max_rounds=st.sampled_from((1, 3, 60)),
    ops=st.lists(_OPS, min_size=5, max_size=120),
)
def test_heap_timed_machine_matches_reference(window, congestion, packets,
                                              max_rounds, ops):
    payload = bytes(range(256)) * (packets * _PACKET_BYTES // 256 + 1)
    payload = payload[:packets * _PACKET_BYTES]
    live = WindowSenderMachine(
        1, payload, _PACKET_BYTES, _TIMEOUT_S, max_rounds, window=window,
        controller=make_controller(congestion, _TIMEOUT_S))
    reference = ReferenceWindowSenderMachine(
        1, payload, _PACKET_BYTES, _TIMEOUT_S, max_rounds, window=window,
        controller=make_controller(congestion, _TIMEOUT_S))
    now = 0.0
    sent = []
    acked = []
    indexed = (live.next_deadline(), live.timer_epoch)

    def check():
        nonlocal indexed
        assert _observe(live, now) == _observe(reference, now)
        deadline, epoch = live.next_deadline(), live.timer_epoch
        if deadline != indexed[0]:
            assert epoch != indexed[1], (indexed, deadline)
        indexed = (deadline, epoch)

    def deliver(seq):
        frame = AckFrame(transfer_id=1, seq=seq, stream_id=1)
        live.on_frame(frame, now)
        reference.on_frame(frame, now)
        acked.append(seq)
        check()

    def send(limit):
        for _ in range(limit):
            if not reference.has_frame(now):
                break
            frame = live.next_frame(now)
            assert frame == reference.next_frame(now)
            sent.append(frame.seq)
            check()

    def poll():
        live.poll(now)
        reference.poll(now)
        check()

    check()
    for item in ops:
        kind = item[0]
        if kind == "send":
            send(item[1])
        elif kind == "drive":
            poll()
            send(window)
        elif kind == "ack-lowest":
            if reference._outstanding:
                deliver(min(reference._outstanding))
        elif kind == "ack-highest":
            if reference._outstanding:
                deliver(max(reference._outstanding))
        elif kind == "ack-any":
            if sent:
                deliver(sent[item[1] % len(sent)])
        elif kind == "dup-ack":
            for _ in range(item[1] if acked else 0):
                deliver(acked[-1])
        elif kind == "poll":
            poll()
        else:
            now += item[1]
            check()

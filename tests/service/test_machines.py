"""Unit tests for the substrate-free per-transfer state machines."""

import random
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congestion import FixedController
from repro.core.frames import AckFrame, DataFrame, NakFrame
from repro.service.machines import (
    BlastSenderMachine,
    ReceiverMachine,
    WindowSenderMachine,
    make_sender_machine,
    receiver_for,
    service_payload,
)


def drain(machine, now):
    frames = []
    while machine.has_frame(now):
        frames.append(machine.next_frame(now))
    return frames


#: 63 packets of 1 KiB, the last one 512 bytes, no two alike.
_BODY = random.Random(5).randbytes(64000)
_SENDERS = {
    "blast-selective": dict(protocol="blast", strategy="selective"),
    "blast-gobackn": dict(protocol="blast", strategy="gobackn"),
    "blast-full_no_nak": dict(protocol="blast", strategy="full_no_nak"),
    "blast-credit-5": dict(protocol="blast", strategy="selective", credit=5),
    "sliding": dict(protocol="sliding", window=16),
    "sliding-reno": dict(protocol="sliding", window=16, congestion="reno"),
    "saw": dict(protocol="saw"),
}


def _state(machine, now):
    """What a run may not tell apart from as many frames (``timer_epoch``
    excepted: it only has to move when the deadline does)."""
    held = (machine._retained if isinstance(machine, BlastSenderMachine)
            else sorted((seq, *record) for seq, record
                        in machine._outstanding.items()))
    return (machine.data_frames_sent, machine.retransmits, machine.rounds,
            machine.done, machine.failed, machine.next_deadline(),
            machine.has_frame(now), machine.frames_available(now), held)


class TestARunIsFramesInARow:
    """``next_run(now, n)`` sends what ``n`` calls of ``next_frame(now)``
    send — seqs, payloads, reply flags — and leaves the same state,
    whatever rounds, reports, timeouts and acks came before."""

    @settings(max_examples=120, deadline=None)
    @given(sender=st.sampled_from(sorted(_SENDERS)), ops=st.lists(st.one_of(
        st.tuples(st.just("send"), st.integers(1, 40)),
        st.tuples(st.just("ack"), st.integers(0, 62)),
        st.tuples(st.just("nak"), st.sets(st.integers(0, 62), min_size=1)),
        st.tuples(st.just("advance"), st.sampled_from([0.01, 0.06, 0.3]))),
        max_size=40))
    # A forged report: seq 2 is resent, seq 6 is drawn past 5, never sent.
    @example(sender="blast-credit-5",
             ops=[("send", 5), ("nak", {2, 6}), ("send", 2)])
    # A timeout shrinks the Reno window to one packet below the two
    # outstanding: the run stops after the retransmissions, with room
    # left before them.
    @example(sender="sliding-reno",
             ops=[("send", 1), ("ack", 0), ("send", 2), ("ack", 1),
                  ("send", 2), ("ack", 3), ("advance", 0.3), ("send", 8)])
    def test_same_packets_and_state(self, sender, ops):
        run, frames = (make_sender_machine(stream_id=1, payload=_BODY,
                                           packet_bytes=1024, timeout_s=0.05,
                                           **_SENDERS[sender])
                       for _ in range(2))
        now = 0.0
        for op, arg in ops:
            for machine in (run, frames):
                if op == "ack":
                    machine.on_acks((arg,), now)
                elif op == "nak":
                    machine.on_frame(NakFrame(1, min(arg), tuple(sorted(arg)),
                                              63, stream_id=1), now)
                else:
                    machine.poll(now)
            if op == "advance":
                now += arg
            elif op == "send":
                # A run may end early: a timeout retransmission can
                # close a Reno window, after which has_frame is False.
                count = min(arg, run.frames_available(now))
                sent = []
                while len(sent) < count and frames.has_frame(now):
                    frame = frames.next_frame(now)
                    sent.append((frame.seq, frame.payload, frame.wants_reply))
                if count:
                    assert list(zip(*run.next_run(now, count))) == sent
            assert _state(run, now) == _state(frames, now)


#: The three reply disciplines of a receiver.
_RECEIVERS = {
    "per-packet-ack": ("sliding", "selective"),
    "nak": ("blast", "selective"),
    "timer-only": ("blast", "full_no_nak"),
}


def _receiver_state(receiver):
    tracker = receiver.tracker
    return (receiver.chunks, receiver.duplicates, receiver.dropped,
            receiver.replies_sent, receiver.checksums, receiver.done,
            None if tracker is None else
            (tracker.total, tracker.received, tracker.duplicates))


class TestARunIsPacketsInARow:
    """``ReceiverMachine.on_run`` returns the replies, in order, and
    leaves the counters that ``on_frame`` gives the same packets' frames
    one at a time: duplicates, packets out of order, a ``total`` other
    than the transfer's, ``wants_reply`` anywhere, a total known from a
    verdict or fixed by the first packet."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(_RECEIVERS)), known=st.booleans(),
           runs=st.lists(st.lists(st.tuples(
               st.integers(0, 9), st.sampled_from([6, 6, 6, 10]),
               st.booleans(), st.integers(0, 1)), max_size=10), max_size=6))
    # The last packet of a round wants a report, twice, then arrives
    # again after the body is complete: NAK, NAK, ACK.
    @example(kind="nak", known=True, runs=[
        [(0, 6, False, 0), (5, 6, True, 0)], [(1, 6, False, 0),
         (5, 6, True, 1)], [(2, 6, False, 0), (3, 6, False, 0),
                            (4, 6, False, 0), (5, 6, True, 0)]])
    def test_same_replies_and_counters(self, kind, known, runs):
        protocol, strategy = _RECEIVERS[kind]
        by_run, by_frame = (receiver_for(protocol, 3, strategy,
                                         total=6 if known else None)
                            for _ in range(2))
        for drawn in runs:
            packets = [(seq % total, total, bytes([seq % total, variant]), want)
                       for seq, total, want, variant in drawn]
            replies = []
            for seq, total, payload, want in packets:
                replies += by_frame.on_frame(
                    DataFrame(3, seq, total, payload, want, stream_id=3), 0.0)
            columns = [list(column) for column in zip(*packets)] or [[]] * 4
            assert by_run.on_run(*columns, 0.0) == replies
            assert _receiver_state(by_run) == _receiver_state(by_frame)


class TestServicePayload:
    def test_deterministic(self):
        assert service_payload(7, 3, 1024) == service_payload(7, 3, 1024)

    def test_streams_differ(self):
        assert service_payload(7, 1, 1024) != service_payload(7, 2, 1024)

    def test_seeds_differ(self):
        assert service_payload(7, 1, 1024) != service_payload(8, 1, 1024)

    def test_size(self):
        assert len(service_payload(0, 1, 300)) == 300


class TestBlastSender:
    def test_clean_round_completes(self):
        machine = BlastSenderMachine(1, bytes(3000), 1024, timeout_s=0.1)
        frames = drain(machine, 0.0)
        assert [f.seq for f in frames] == [0, 1, 2]
        assert [f.wants_reply for f in frames] == [False, False, True]
        assert all(f.stream_id == 1 for f in frames)
        machine.on_frame(AckFrame(transfer_id=1, seq=2, stream_id=1), 0.01)
        assert machine.done and machine.outcome().ok
        assert machine.outcome().retransmits == 0

    def test_first_transmissions_are_what_the_per_packet_path_builds(self):
        # A first round's queue is a range, so next_run draws its first
        # transmissions in one read; a working set given as a list takes
        # the per-packet path.  Runs, frames, counters and the retained
        # payloads must not tell the two apart.
        body = bytes(range(256)) * 11       # the last packet is short
        whole = BlastSenderMachine(3, body, 1024, timeout_s=0.1)
        per_packet = BlastSenderMachine(3, body, 1024, timeout_s=0.1)
        per_packet._queue = list(per_packet._queue)
        run = whole.next_run(0.0, 2)
        assert type(run[0]) is range
        assert list(zip(*run)) == list(zip(*per_packet.next_run(0.0, 2)))
        frame = whole.next_frame(0.0)
        assert frame == per_packet.next_frame(0.0)
        assert (frame.seq, len(frame.payload), frame.wants_reply) == (
            2, 768, True)
        assert [type(value) for value in astuple(frame)] == [
            int, int, int, bytes, bool, int, type(None), int]
        assert whole._retained[2] is frame.payload
        for name in ("_drawn", "data_frames_sent", "retransmits",
                     "_retained"):
            assert getattr(whole, name) == getattr(per_packet, name)

    def test_timeout_triggers_new_round(self):
        machine = BlastSenderMachine(1, bytes(2048), 1024, timeout_s=0.1)
        drain(machine, 0.0)
        assert machine.next_deadline() == pytest.approx(0.1)
        machine.poll(0.2)
        assert machine.rounds == 2
        frames = drain(machine, 0.2)
        assert frames and machine.retransmits == len(frames)

    def test_nak_selective_resends_missing_only(self):
        machine = BlastSenderMachine(1, bytes(4096), 1024, timeout_s=0.1,
                                     strategy="selective")
        drain(machine, 0.0)
        machine.on_frame(
            NakFrame(transfer_id=1, first_missing=1, missing=(1, 3), total=4,
                     stream_id=1),
            0.01,
        )
        frames = drain(machine, 0.01)
        assert sorted(f.seq for f in frames) == [1, 3]

    @pytest.mark.parametrize("strategy", ["full_nak", "gobackn", "selective"])
    def test_nak_with_another_total_is_dropped_and_counted(self, strategy):
        # A CRC-valid NAK naming packet 6 of 8 for a 4-packet body: it
        # used to raise KeyError (selective), empty the round for good
        # (gobackn) or restart it (full_nak).
        machine = BlastSenderMachine(1, bytes(4096), 1024, timeout_s=0.1,
                                     strategy=strategy)
        drain(machine, 0.0)

        def state():
            return (list(machine._queue), machine._index, machine._burst_end,
                    machine.next_deadline(), machine.timer_epoch,
                    machine.rounds, machine.retransmits,
                    machine.data_frames_sent)

        before = state()
        machine.on_frame(NakFrame(1, 6, (6,), 8, stream_id=1), 0.01)
        assert state() == before
        assert machine.dropped == 1 and not machine.finished
        machine.on_frame(AckFrame(1, 3, stream_id=1), 0.02)
        assert machine.done and machine.outcome().ok

    def test_round_cap_fails_transfer(self):
        machine = BlastSenderMachine(1, bytes(1024), 1024, timeout_s=0.1,
                                     max_rounds=2)
        now = 0.0
        for _ in range(3):
            drain(machine, now)
            now += 0.2
            machine.poll(now)
            if machine.finished:
                break
        assert machine.failed
        assert "gave up" in machine.outcome().error

    def test_empty_payload_is_one_packet(self):
        machine = BlastSenderMachine(1, b"", 1024, timeout_s=0.1)
        frames = drain(machine, 0.0)
        assert len(frames) == 1 and frames[0].payload == b""

    def test_rejects_stream_zero(self):
        with pytest.raises(ValueError):
            BlastSenderMachine(0, b"x", 1024, timeout_s=0.1)


class TestWindowSender:
    def test_window_limits_outstanding(self):
        machine = WindowSenderMachine(1, bytes(8192), 1024, timeout_s=0.1,
                                      window=3)
        frames = drain(machine, 0.0)
        assert len(frames) == 3
        machine.on_frame(AckFrame(transfer_id=1, seq=0, stream_id=1), 0.01)
        assert machine.frames_available(0.01) == 1

    def test_completes_on_all_acks(self):
        machine = WindowSenderMachine(1, bytes(2048), 1024, timeout_s=0.1,
                                      window=4)
        frames = drain(machine, 0.0)
        for frame in frames:
            machine.on_frame(AckFrame(transfer_id=1, seq=frame.seq,
                                      stream_id=1), 0.01)
        assert machine.done and machine.outcome().ok

    def test_overdue_packet_retransmits_first(self):
        machine = WindowSenderMachine(1, bytes(4096), 1024, timeout_s=0.1,
                                      window=2)
        drain(machine, 0.0)  # seq 0, 1 outstanding
        frames = drain(machine, 0.15)
        assert frames[0].seq == 0 and machine.retransmits >= 1

    def test_attempt_cap_fails(self):
        machine = WindowSenderMachine(1, bytes(1024), 1024, timeout_s=0.1,
                                      max_rounds=2, window=1)
        now = 0.0
        for _ in range(5):
            machine.poll(now)
            if machine.finished:
                break
            drain(machine, now)
            now += 0.2
        assert machine.failed

    def test_saw_is_window_one(self):
        machine = make_sender_machine("saw", 1, bytes(4096), 1024,
                                      timeout_s=0.1)
        assert isinstance(machine, WindowSenderMachine)
        assert machine.window == 1
        assert len(drain(machine, 0.0)) == 1

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_sender_machine("carrier-pigeon", 1, b"", 1024, timeout_s=0.1)


class ScanCountingDict(dict):
    """A dict that counts walks over itself.

    ``values()`` and ``items()`` always count as a scan; ``iter()`` is
    how the machine reads its first key, so it is charged only for the
    steps it takes beyond that one.
    """

    def __init__(self):
        super().__init__()
        self.scans = 0

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def __iter__(self):
        for position, key in enumerate(super().__iter__()):
            if position:
                self.scans += 1
            yield key


class TestConstantTimeAckClock:
    """Counts, not timings: the ack clock never walks the window."""

    def test_in_order_ack_clock_never_scans_the_window(self):
        window, packets = 256, 4096
        machine = WindowSenderMachine(1, bytes(packets * 64), 64,
                                      timeout_s=0.5, window=window)
        machine._outstanding = counted = ScanCountingDict()
        in_flight = []
        now = 0.0
        while not machine.done:
            machine.poll(now)
            while machine.has_frame(now):
                in_flight.append(machine.next_frame(now).seq)
            now += 0.0001
            machine.on_frame(ack(in_flight.pop(0)), now)
            deadline = machine.next_deadline()
            assert deadline is None or now < deadline
            assert counted.scans == 0
            assert len(machine._timers) <= 2 * window + 64
        assert machine.data_frames_sent == packets
        assert machine.retransmits == 0

    def test_timer_heap_bounded_behind_a_long_lived_timer(self):
        # Packet 0's ack never comes and its RTO is far away, so every
        # later packet's stale heap entry is buried under a valid one.
        window = 4
        machine = WindowSenderMachine(1, bytes(2000 * 64), 64,
                                      timeout_s=1000.0, window=window)
        now = 0.0
        for _ in range(1500):
            for frame in drain(machine, now):
                if frame.seq:
                    machine.on_frame(ack(frame.seq), now)
            now += 0.001
            assert len(machine._timers) <= 2 * window + 64
        assert machine.next_deadline() == pytest.approx(1000.0)
        assert list(machine._outstanding)[0] == 0

    def test_bookkeeping_is_bounded_by_the_window(self):
        # One record per outstanding packet holds all it has: deadline,
        # attempts, first-send time and the payload, the only copy of
        # its bytes.  The record dies with its ack.
        window = 8
        machine = WindowSenderMachine(1, bytes(512 * 64), 64, timeout_s=0.5,
                                      window=window)
        now = 0.0
        while not machine.done:
            sent = now
            for frame in drain(machine, sent):
                assert len(machine._outstanding) <= window
                deadline, attempts, sent_at, held = (
                    machine._outstanding[frame.seq])
                assert (deadline, attempts, sent_at) == (sent + 0.5, 1, sent)
                assert held is frame.payload
                now += 0.0001
                machine.on_frame(ack(frame.seq), now)
                assert frame.seq not in machine._outstanding
                assert len(machine._timers) <= 2 * window + 64
        assert machine.data_frames_sent == 512
        assert not machine._outstanding
        assert vars(machine).keys() == vars(
            WindowSenderMachine(1, b"", 64, timeout_s=0.5)).keys()

    def test_poll_fails_on_exactly_the_overdue_exhausted_packet(self):
        machine = WindowSenderMachine(1, bytes(256 * 64), 64, timeout_s=1.0,
                                      max_rounds=1, window=256)
        for seq in range(256):          # one send per millisecond
            assert machine.next_frame(seq * 0.001).seq == seq
        for seq in range(100):
            machine.on_frame(ack(seq), 0.3)
        counted = ScanCountingDict()
        counted.update(machine._outstanding)
        machine._outstanding = counted
        machine.poll(1.0995)            # nothing is due before 1.100
        assert not machine.failed
        machine.poll(1.1005)            # packet 100 is, packet 101 is not
        assert machine.failed
        assert machine.error == "packet 100 unacknowledged after 1 attempts"
        assert counted.scans == 0       # found through the timer heap

    def test_poll_reaches_every_due_timer(self):
        # Retransmitting 0 and then 1 leaves packet 1's timer in the
        # right half of the heap with first-attempt timers all around
        # it; once 0 is acknowledged, 1 is the only exhausted packet.
        machine = WindowSenderMachine(1, bytes(7 * 64), 64, timeout_s=0.1,
                                      max_rounds=2, window=8)
        for seq in range(7):
            assert machine.next_frame(seq * 0.001).seq == seq
        assert machine.next_frame(0.1).seq == 0
        assert machine.next_frame(0.101).seq == 1
        machine.on_frame(ack(0), 0.15)
        machine.poll(0.25)              # all six outstanding are overdue
        assert machine.error == "packet 1 unacknowledged after 2 attempts"


class TestReceiverMachine:
    def test_blast_replies_only_on_wants_reply(self):
        receiver = receiver_for("blast", 5)
        payload = service_payload(7, 5, 2048)
        f0 = DataFrame(transfer_id=5, seq=0, total=2, payload=payload[:1024],
                       stream_id=5)
        f1 = DataFrame(transfer_id=5, seq=1, total=2, payload=payload[1024:],
                       wants_reply=True, stream_id=5)
        assert receiver.on_frame(f0, 0.0) == []
        replies = receiver.on_frame(f1, 0.0)
        assert len(replies) == 1 and isinstance(replies[0], AckFrame)
        assert replies[0].seq == 1
        assert receiver.done and receiver.data == payload

    def test_blast_naks_when_incomplete(self):
        receiver = receiver_for("blast", 5, strategy="selective")
        f1 = DataFrame(transfer_id=5, seq=1, total=3, payload=b"b" * 10,
                       wants_reply=True, stream_id=5)
        replies = receiver.on_frame(f1, 0.0)
        assert len(replies) == 1 and isinstance(replies[0], NakFrame)
        assert 0 in replies[0].missing and 2 in replies[0].missing

    def test_timer_only_strategy_stays_silent(self):
        receiver = receiver_for("blast", 5, strategy="full_no_nak")
        f1 = DataFrame(transfer_id=5, seq=1, total=3, payload=b"b",
                       wants_reply=True, stream_id=5)
        assert receiver.on_frame(f1, 0.0) == []

    def test_sliding_acks_every_frame(self):
        receiver = receiver_for("sliding", 5)
        frame = DataFrame(transfer_id=5, seq=0, total=2, payload=b"a",
                          stream_id=5)
        assert len(receiver.on_frame(frame, 0.0)) == 1

    def test_duplicate_counted_and_reacked(self):
        receiver = receiver_for("sliding", 5)
        frame = DataFrame(transfer_id=5, seq=0, total=1, payload=b"a",
                          stream_id=5)
        receiver.on_frame(frame, 0.0)
        replies = receiver.on_frame(frame, 0.1)
        assert receiver.duplicates == 1 and len(replies) == 1

    def test_other_stream_ignored(self):
        receiver = receiver_for("sliding", 5)
        frame = DataFrame(transfer_id=6, seq=0, total=1, payload=b"a",
                          stream_id=6)
        assert receiver.on_frame(frame, 0.0) == []
        assert receiver.tracker is None

    def test_frame_with_other_total_dropped_like_corruption(self):
        # A stale frame from a reused stream id (or a hostile peer):
        # CRC-valid, right stream, but sized for a different transfer.
        receiver = receiver_for("sliding", 5)
        receiver.on_frame(DataFrame(transfer_id=5, seq=0, total=4,
                                    payload=b"a", stream_id=5), 0.0)
        stale = DataFrame(transfer_id=5, seq=7, total=8, payload=b"z",
                          stream_id=5)
        assert receiver.on_frame(stale, 0.1) == []
        assert receiver.tracker.total == 4
        assert receiver.tracker.received == {0}
        assert receiver.duplicates == 0 and receiver.replies_sent == 1


class TestFrameCacheAndTimerEpoch:
    def test_retransmission_reuses_cached_frame(self):
        machine = WindowSenderMachine(1, bytes(4096), 1024, timeout_s=0.1,
                                      window=2)
        first = drain(machine, 0.0)
        retx = drain(machine, 0.15)
        # The record keeps the payload, the only copy of the packet's
        # bytes: the retransmission carries the very bytes sent first.
        assert retx[0] == first[0]
        assert retx[0].payload is first[0].payload

    def test_cache_does_not_skew_send_accounting(self):
        machine = WindowSenderMachine(1, bytes(2048), 1024, timeout_s=0.1,
                                      window=1)
        drain(machine, 0.0)
        drain(machine, 0.15)
        assert machine.data_frames_sent == 2 and machine.retransmits == 1

    def test_window_epoch_moves_with_deadlines(self):
        machine = WindowSenderMachine(1, bytes(2048), 1024, timeout_s=0.1,
                                      window=2)
        epoch = machine.timer_epoch
        machine.next_frame(0.0)  # the first deadline appears
        assert machine.timer_epoch > epoch
        epoch = machine.timer_epoch
        machine.next_frame(0.005)  # a send behind an older packet
        assert machine.next_deadline() == pytest.approx(0.1)
        assert machine.timer_epoch == epoch  # earliest deadline unmoved
        machine.on_frame(AckFrame(transfer_id=1, seq=0, stream_id=1), 0.01)
        assert machine.next_deadline() == pytest.approx(0.105)
        assert machine.timer_epoch > epoch  # earliest deadline moved

    def test_blast_epoch_moves_on_round_boundaries(self):
        machine = BlastSenderMachine(1, bytes(2048), 1024, timeout_s=0.1)
        epoch = machine.timer_epoch
        drain(machine, 0.0)  # last frame of the round arms the reply timer
        assert machine.timer_epoch > epoch
        epoch = machine.timer_epoch
        machine.poll(0.2)  # reply timeout: next round starts, timer re-arms
        assert machine.timer_epoch > epoch


class RecordingController(FixedController):
    """The fixed discipline, remembering which events it was fed."""

    def __init__(self, timeout_s=0.1):
        super().__init__(timeout_s)
        self.samples = []
        self.timeouts = 0
        self.dup_acks = 0

    def on_rtt_sample(self, rtt_s):
        self.samples.append(rtt_s)

    def on_timeout(self, now=0.0):
        self.timeouts += 1

    def on_dup_ack(self, now=0.0):
        self.dup_acks += 1
        return False


def ack(seq):
    return AckFrame(transfer_id=1, seq=seq, stream_id=1)


class TestKarnSampling:
    """Karn's rule at the machines: an exchange that involved a
    retransmission is never an RTT sample, and expiries back the timer
    off once per RTO period.  Scripted ``(now, frame)`` sequences — no
    sockets, no threads, no clock."""

    def window_machine(self, window, packets=4):
        controller = RecordingController()
        machine = WindowSenderMachine(1, bytes(packets * 1024), 1024,
                                      timeout_s=0.1, window=window,
                                      controller=controller)
        return machine, controller

    def blast_machine(self, strategy="full_nak"):
        controller = RecordingController()
        machine = BlastSenderMachine(1, bytes(4096), 1024, timeout_s=0.1,
                                     strategy=strategy,
                                     controller=controller)
        return machine, controller

    def test_clean_saw_samples_every_packet(self):
        machine, controller = self.window_machine(window=1)
        for seq in range(4):
            now = seq * 0.01
            assert [f.seq for f in drain(machine, now)] == [seq]
            machine.on_frame(ack(seq), now + 0.002)
        assert machine.done
        assert controller.samples == pytest.approx([0.002] * 4)
        assert controller.timeouts == 0

    def test_saw_dropped_ack_not_sampled_backs_off_once(self):
        machine, controller = self.window_machine(window=1)
        drain(machine, 0.0)              # packet 0; its ack is lost
        machine.poll(0.1)
        assert [f.seq for f in drain(machine, 0.1)] == [0]
        machine.on_frame(ack(0), 0.102)  # ambiguous: which send was acked?
        assert controller.samples == [] and controller.timeouts == 1
        for seq in (1, 2, 3):
            drain(machine, 0.2 + seq * 0.01)
            machine.on_frame(ack(seq), 0.2 + seq * 0.01 + 0.002)
        assert machine.done and machine.retransmits == 1
        assert len(controller.samples) == 3 and controller.timeouts == 1

    def test_saw_duplicated_ack_is_ignored(self):
        machine, controller = self.window_machine(window=1)
        drain(machine, 0.0)
        machine.on_frame(ack(0), 0.002)
        assert [f.seq for f in drain(machine, 0.002)] == [1]
        machine.on_frame(ack(0), 0.003)  # the duplicate: stale, not for 1
        assert controller.dup_acks == 1
        assert not machine.has_frame(0.003)  # no resend of packet 1
        machine.on_frame(ack(1), 0.004)
        for seq in (2, 3):
            drain(machine, seq * 0.01)
            machine.on_frame(ack(seq), seq * 0.01 + 0.002)
        assert machine.done and machine.retransmits == 0
        assert len(controller.samples) == 4  # no exchange lost its sample

    def test_clean_blast_samples_exactly_its_first_round(self):
        machine, controller = self.blast_machine()
        drain(machine, 0.0)
        machine.on_frame(NakFrame(transfer_id=1, first_missing=2,
                                  missing=(2,), total=4, stream_id=1), 0.003)
        assert controller.samples == pytest.approx([0.003])
        drain(machine, 0.003)            # round 2 is all retransmissions
        machine.on_frame(ack(3), 0.006)
        assert machine.done
        assert len(controller.samples) == 1 and controller.timeouts == 0

    def test_blast_lost_first_reply_is_never_sampled(self):
        machine, controller = self.blast_machine()
        drain(machine, 0.0)              # round 1; its reply is lost
        machine.poll(0.1)
        assert controller.timeouts == 1
        assert len(drain(machine, 0.1)) == 4
        machine.on_frame(ack(3), 0.103)
        assert machine.done
        assert controller.samples == []  # no round was unambiguous

    def test_clean_sliding_samples_every_packet(self):
        machine, controller = self.window_machine(window=4)
        assert len(drain(machine, 0.0)) == 4
        for seq in range(4):
            machine.on_frame(ack(seq), 0.002 + seq * 0.001)
        assert machine.done
        assert controller.samples == pytest.approx(
            [0.002, 0.003, 0.004, 0.005])
        assert controller.timeouts == 0

    def test_sliding_samples_first_transmissions_only(self):
        machine, controller = self.window_machine(window=4)
        assert len(drain(machine, 0.0)) == 4
        for seq in (0, 2, 3):            # packet 1 is lost
            machine.on_frame(ack(seq), 0.002)
        assert [f.seq for f in drain(machine, 0.1)] == [1]
        machine.on_frame(ack(1), 0.102)
        assert machine.done
        assert controller.samples == pytest.approx([0.002] * 3)

    def test_sliding_backs_off_once_per_rto_period(self):
        machine, controller = self.window_machine(window=4)
        drain(machine, 0.0)              # all four acks are lost
        machine.poll(0.1)
        assert [f.seq for f in drain(machine, 0.1)] == [0, 1, 2, 3]
        assert controller.timeouts == 1  # four expiries, one backoff
        machine.poll(0.2)
        drain(machine, 0.2)              # the next period backs off again
        assert controller.timeouts == 2

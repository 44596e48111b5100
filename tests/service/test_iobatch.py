"""Unit tests for the batched zero-copy datagram I/O layer."""

import errno
import select
import socket
import struct
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AckFrame, ControlFrame, DataFrame, NakFrame, decode, encode
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.socket import FaultySocket
from repro.service.iobatch import (
    BATCH_SLOTS,
    MAX_RUN_BYTES,
    MAX_RUN_SEGMENTS,
    UDP_GRO,
    DatagramBatchIO,
)

#: Why a test that counts kernel crossings was skipped.  CI fails when
#: this appears on its Linux runner (.github/workflows/ci.yml).
REFUSED = "kernel refused UDP_SEGMENT"


def bound_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


@pytest.fixture
def pair():
    """Two bound loopback sockets: (a, b)."""
    socks = [bound_socket() for _ in range(2)]
    yield socks
    for sock in socks:
        sock.close()


def _settle(sock, patience_s: float = 2.0) -> None:
    """Block until ``sock`` has at least one readable datagram."""
    ready, _, _ = select.select([sock.fileno()], [], [], patience_s)
    assert ready, "datagram never arrived on loopback"


class TestRecvBatch:
    def test_drains_queued_datagrams_in_order(self, pair):
        a, b = pair
        io = DatagramBatchIO(b, ring_slots=8)
        for index in range(5):
            a.sendto(b"datagram-%d" % index, b.getsockname())
        _settle(b)
        batch = io.recv_batch()
        # Loopback preserves order; all five were queued before the drain.
        assert [bytes(view) for view, _ in batch] == [
            b"datagram-%d" % index for index in range(5)
        ]
        assert all(sender == a.getsockname() for _, sender in batch)
        assert io.recv_batch() == []  # queue empty, never blocks

    def test_one_batch_caps_at_ring_slots(self, pair):
        a, b = pair
        io = DatagramBatchIO(b, ring_slots=3)
        for index in range(7):
            a.sendto(bytes([index]), b.getsockname())
        _settle(b)
        first = io.recv_batch()
        assert len(first) == 3
        rest = io.recv_batch() + io.recv_batch()
        assert len(first) + len(rest) == 7
        assert io.datagrams_in == 7
        assert io.recv_batches == 3
        assert io.recv_calls == 7           # nothing here was coalesced

    def test_views_alias_the_ring_until_next_batch(self, pair):
        a, b = pair
        io = DatagramBatchIO(b, ring_slots=2)
        a.sendto(b"first", b.getsockname())
        _settle(b)
        (view, _sender), = io.recv_batch()
        held = bytes(view)  # decode() copies out exactly like this
        a.sendto(b"other", b.getsockname())
        _settle(b)
        io.recv_batch()  # ring slot 0 is overwritten here
        assert held == b"first"
        assert bytes(view) == b"other"

    def test_views_of_a_coalesced_read_stay_valid_until_next_batch(
            self, pair):
        a, b = pair
        sender = DatagramBatchIO(a)
        reader = DatagramBatchIO(b, ring_slots=2, slot_bytes=2048)
        frames = [data(seq, 1024) for seq in range(16)]
        for frame in frames:
            sender.send_frame(frame, b.getsockname())
        sender.flush()
        _settle(b)
        batch = reader.recv_batch()
        # Every view is read only after the whole batch came back: a
        # coalesced read hands out sixteen views of one slot, longer
        # than the caller's slot_bytes.
        assert [bytes(view) for view, _ in batch] == [
            encode(frame) for frame in frames]
        if sender.segmented is False:
            pytest.skip(REFUSED)
        assert (reader.recv_calls, reader.datagrams_in) == (1, 16)


class TestSend:
    def test_send_frame_matches_encode_bytes(self, pair):
        a, b = pair
        io = DatagramBatchIO(a, ring_slots=1)
        for frame in (DataFrame(7, 3, 10, b"hello", stream_id=4),
                      AckFrame(9, seq=63)):
            sent = io.send_frame(frame, b.getsockname())
            io.flush()
            _settle(b)
            datagram, _ = b.recvfrom(65536)
            assert datagram == encode(frame)
            assert sent == len(datagram)
            decoded = decode(datagram)
            assert type(decoded) is type(frame)
        assert io.datagrams_out == 2

    def test_nothing_leaves_before_the_flush(self, pair):
        a, b = pair
        io = DatagramBatchIO(a)
        io.send_frame(AckFrame(9, seq=1), b.getsockname())
        assert not select.select([b.fileno()], [], [], 0.05)[0]
        assert io.datagrams_out == 0
        io.flush()
        _settle(b)
        io.flush()                          # nothing staged: no second copy
        assert io.stats()["datagrams_out"] == io.stats()["send_calls"] == 1

    def test_send_buffer_reuse_does_not_bleed_between_frames(self, pair):
        a, b = pair
        io = DatagramBatchIO(a, ring_slots=1)
        big = DataFrame(1, 0, 2, b"x" * 1000, stream_id=2)
        small = DataFrame(1, 1, 2, b"y" * 10, stream_id=2)
        for frame in (big, small, big):
            io.send_frame(frame, b.getsockname())
            io.flush()
        _settle(b)
        received = [b.recvfrom(65536)[0] for _ in range(3)]
        # No tail of the big frame after the small one, at the same
        # place in the send arena.
        assert received == [encode(big), encode(small), encode(big)]

    def test_send_datagram_passes_bytes_through(self, pair):
        a, b = pair
        io = DatagramBatchIO(a, ring_slots=1)
        payload = b"pre-encoded control request"
        assert io.send_datagram(payload, b.getsockname()) == len(payload)
        io.flush()
        _settle(b)
        assert b.recvfrom(65536)[0] == payload

    def test_an_empty_datagram_is_not_lost_inside_a_run(self, pair):
        a, b = pair
        io = DatagramBatchIO(a)
        payloads = [b"x" * 100, b"y" * 100, b"", b"", b"z" * 100]
        for payload in payloads:
            io.send_datagram(payload, b.getsockname())
        io.flush()
        assert arrived(DatagramBatchIO(b), len(payloads)) == payloads

    def test_a_full_stage_flushes_itself(self, pair):
        a, b = pair
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        io = DatagramBatchIO(a)
        frame = data(0, 8000)
        for _ in range(40):                 # 320 KB through a 256 KiB stage
            io.send_frame(frame, b.getsockname())
        assert 0 < io.datagrams_out < 40
        io.flush()
        assert io.datagrams_out + io.send_drops == 40


class TestConstruction:
    def test_rejects_empty_ring(self, pair):
        with pytest.raises(ValueError, match="ring_slots"):
            DatagramBatchIO(pair[0], ring_slots=0)

    def test_rejects_empty_slots(self, pair):
        with pytest.raises(ValueError, match="slot_bytes"):
            DatagramBatchIO(pair[0], slot_bytes=0)

    def test_default_ring_is_batch_slots(self, pair):
        io = DatagramBatchIO(pair[0])
        assert len(io._arenas.slots) == BATCH_SLOTS

    def test_plain_socket_has_no_fault_hooks(self, pair):
        io = DatagramBatchIO(pair[0])
        assert io.has_ready is False
        assert io.next_held_due() is None
        assert io.flush_held() == 0

    def test_a_coalescing_socket_reads_a_whole_burst_whatever_the_caller_said(
            self, pair):
        io = DatagramBatchIO(pair[0], ring_slots=2, slot_bytes=2048)
        wanted = 65536 if io.coalescing else 2048
        assert [len(slot) for slot in io._arenas.slots] == [wanted, wanted]


class TestSiblings:
    """Batch layers of one thread share their arenas (the pump's
    clients): nothing of one may end up on another's socket."""

    def test_siblings_share_arenas_not_sockets_or_counters(self, pair):
        a, b = pair
        first = DatagramBatchIO(a, ring_slots=2, slot_bytes=2048)
        second = first.sibling(b)
        assert second._arenas is first._arenas
        assert second.coalescing == first.coalescing
        first.send_frame(AckFrame(1, seq=1), b.getsockname())
        first.flush()
        _settle(b)
        (view, sender), = second.recv_batch()
        assert bytes(view) == encode(AckFrame(1, seq=1))
        assert sender == a.getsockname()
        assert (first.datagrams_out, first.datagrams_in) == (1, 0)
        assert (second.datagrams_out, second.datagrams_in) == (0, 1)

    def test_staging_beside_a_sibling_that_has_not_flushed_sends_its_frames_first(
            self, pair):
        a, b = pair
        with bound_socket() as sink:
            first = DatagramBatchIO(a)
            second = first.sibling(b)
            ours = [data(seq, 700, stream=1) for seq in range(3)]
            theirs = [data(seq, 900, stream=2) for seq in range(3)]
            for frame in ours:
                first.send_frame(frame, sink.getsockname())
            for frame in theirs:            # the same bytes of the arena
                second.send_frame(frame, sink.getsockname())
            assert first.datagrams_out == 3 and second.datagrams_out == 0
            second.flush()
            first.flush()                   # nothing left, nothing twice
            got = arrived(DatagramBatchIO(sink), 6)
        assert got == [encode(frame) for frame in ours + theirs]

    def test_a_pump_has_one_set_of_arenas(self):
        from repro.service.clientpump import UdpClientPump

        pump = UdpClientPump(("127.0.0.1", 9), [4096] * 3)
        try:
            assert len({id(client.io._arenas)
                        for client in pump.clients}) == 1
            assert len({client.io.fileno() for client in pump.clients}) == 3
        finally:
            for client in pump.clients:
                client.close()


# -- one kernel crossing per burst ------------------------------------------------------

def data(seq, payload_bytes, stream=1):
    return DataFrame(transfer_id=stream, seq=seq, total=1 << 20,
                     payload=bytes([seq % 251]) * payload_bytes,
                     stream_id=stream)


def control(request_id, body_bytes):
    return ControlFrame(transfer_id=0, request_id=request_id,
                        body=b"c" * body_bytes)


@contextmanager
def loopback(coalesce, receivers=3):
    """A sending batch layer and ``receivers`` reading ones, each on its
    own loopback socket, with ``UDP_GRO`` as ``coalesce`` says."""
    socks = [bound_socket() for _ in range(receivers + 1)]
    try:
        sender = DatagramBatchIO(socks[0])
        readers = []
        for sock in socks[1:]:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
            readers.append(DatagramBatchIO(sock, ring_slots=4,
                                           slot_bytes=2048))
            if not coalesce and readers[-1].coalescing:
                sock.setsockopt(socket.SOL_UDP, UDP_GRO, 0)
        yield sender, readers, [sock.getsockname() for sock in socks[1:]]
    finally:
        for sock in socks:
            sock.close()


def arrived(reader, expected, patience_s=2.0):
    """Every datagram ``reader`` gets, waiting until ``expected`` came."""
    got = []
    deadline = time.monotonic() + patience_s
    while len(got) < expected and time.monotonic() < deadline:
        select.select([reader.fileno()], [], [], 0.05)
        got += [bytes(view) for view, _ in reader.recv_batch()]
    return got + [bytes(view) for view, _ in reader.recv_batch()]


def stage_flush_and_check(staged, coalesce):
    """Stage ``[(destination index, frame), ...]``, flush once, and
    check each destination got exactly its frames in staging order."""
    with loopback(coalesce) as (sender, readers, addresses):
        for destination, frame in staged:
            sender.send_frame(frame, addresses[destination])
        sender.flush()
        for index, reader in enumerate(readers):
            expected = [encode(frame) for destination, frame in staged
                        if destination == index]
            assert arrived(reader, len(expected)) == expected
        assert sender.datagrams_out == len(staged)
        assert sender.send_drops == 0
        return sender


# Payload lengths cluster on a few values so that equal-sized runs,
# shorter closers and longer openers all come up often.
lengths = st.sampled_from([0, 1, 17, 512, 1024]) | st.integers(0, 1500)
frames = st.one_of(
    st.builds(data, seq=st.integers(0, 1000), payload_bytes=lengths,
              stream=st.integers(0, 3)),
    st.builds(control, request_id=st.integers(0, 1000), body_bytes=lengths),
    st.builds(AckFrame, transfer_id=st.integers(0, 9),
              seq=st.integers(0, 1000), stream_id=st.integers(0, 3)),
    st.builds(lambda first, stream: NakFrame(
        transfer_id=1, first_missing=first, missing=(first, first + 2),
        total=2000, stream_id=stream),
        st.integers(0, 1000), st.integers(0, 3)),
)


class TestStagedFramesArriveAsEncoded:
    @settings(max_examples=60, deadline=None)
    @given(staged=st.lists(st.tuples(st.integers(0, 2), frames),
                           max_size=80),
           coalesce=st.booleans())
    @example(staged=[(0, data(seq, 1024)) for seq in range(80)],
             coalesce=True)
    @example(staged=[(seq % 3, data(seq, 1024)) for seq in range(80)],
             coalesce=False)
    def test_any_mix_to_three_destinations(self, staged, coalesce):
        stage_flush_and_check(staged, coalesce)

    #: Frames carrying a 1 KiB packet that fit one run: 62 of 1,050 bytes.
    FIT = MAX_RUN_BYTES // len(encode(data(0, 1024)))

    # (what is staged for one destination, the send calls it must take)
    RULES = {
        "equal sizes are one run":
            ([data(seq, 1024) for seq in range(16)], 1),
        "a longer frame opens the next run":
            ([data(0, 100), data(1, 100), data(2, 500), data(3, 500)], 2),
        "a shorter frame closes its run":
            ([data(0, 500), data(1, 500), data(2, 100), data(3, 500)], 2),
        "a run holds 64 segments":
            ([data(seq, 100) for seq in range(MAX_RUN_SEGMENTS + 6)], 2),
        "a run holds 65,507 bytes":
            ([data(seq, 1024) for seq in range(2 * FIT)], 2),
        "a short frame that does not fit opens a run of its own":
            ([data(seq, 1024) for seq in range(FIT)]
             + [data(FIT, 600), data(FIT + 1, 600)], 2),
        "a run of one is a plain send":
            ([data(0, 100), data(1, 500)], 2),
        "a control reply between data closes one run, opens none":
            ([data(0, 1024), data(1, 1024), control(7, 80),
              data(2, 1024), data(3, 1024)], 2),
        "a verdict ahead of its body goes alone":
            ([control(7, 80)] + [data(seq, 1024) for seq in range(4)], 2),
    }

    @pytest.mark.parametrize("coalesce", [True, False])
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_every_splitting_rule(self, rule, coalesce):
        frames, calls = self.RULES[rule]
        sender = stage_flush_and_check([(1, f) for f in frames], coalesce)
        if sender.segmented is False:
            pytest.skip(REFUSED)
        assert sender.send_calls == calls

    def test_destinations_dealt_in_turn_each_leave_in_one_call(self):
        staged = [(seq % 3, data(seq, 1024, stream=seq % 3))
                  for seq in range(48)]
        sender = stage_flush_and_check(staged, coalesce=True)
        if sender.segmented is False:
            pytest.skip(REFUSED)
        assert (sender.send_calls, sender.segmented) == (3, True)


def run_of(stream, first, count, last_bytes=1024, wants_last=True):
    """A sender machine's run as ``send_run`` takes it — ``(stream,
    total, seqs, payloads, wants)`` — and the frames it stands for."""
    seqs = range(first, first + count)
    payloads = [bytes([seq % 251]) * (1024 if seq < first + count - 1
                                      else last_bytes) for seq in seqs]
    wants = [False] * (count - 1) + [wants_last]
    total = first + count
    frames = [DataFrame(stream, seq, total, payload, reply, stream_id=stream)
              for seq, payload, reply in zip(seqs, payloads, wants)]
    return (stream, total, seqs, payloads, wants), frames


class TestStagedRuns:
    """A run staged whole leaves as the frames it stands for would."""

    @settings(max_examples=25, deadline=None)
    @given(staged=st.lists(st.tuples(
        st.integers(0, 2), st.integers(1, 140), st.sampled_from([0, 1, 700, 1024]),
        st.booleans()), min_size=1, max_size=6), coalesce=st.booleans())
    @example(staged=[(0, 140, 1024, True), (1, 1, 20, True),
                     (0, 63, 600, False)], coalesce=True)
    def test_runs_and_frames_to_three_destinations(self, staged, coalesce):
        with loopback(coalesce) as (sender, readers, addresses):
            expected = [[] for _ in readers]
            first = 0
            for index, (destination, count, last, single) in enumerate(staged):
                run, frames = run_of(index + 1, first, count, last)
                first += count
                if single:      # a control reply staged between runs
                    sender.send_frame(control(index, 80), addresses[destination])
                    expected[destination].append(encode(control(index, 80)))
                sender.send_run(addresses[destination], *run)
                expected[destination] += [encode(frame) for frame in frames]
            sender.flush()
            for reader, datagrams in zip(readers, expected):
                assert arrived(reader, len(datagrams)) == datagrams
            assert sender.datagrams_out == sum(map(len, expected))
            assert sender.send_drops == 0

    def test_a_run_leaves_in_whole_segmented_sends(self, stub):
        io = DatagramBatchIO(stub)
        run, frames = run_of(1, 0, 130, last_bytes=10)
        io.send_run(("10.0.0.1", 9), *run)
        io.flush()
        # 62 datagrams of 1,051 bytes fit 65,507; the last run is 6.
        assert [datagram for datagram, _ in stub.sent] == list(map(encode, frames))
        assert (stub.segmented_calls, io.send_calls, io.datagrams_out) == (3, 3, 130)

    def test_a_run_larger_than_the_arena_is_staged_in_pieces(self, stub):
        io = DatagramBatchIO(stub)
        run, frames = run_of(1, 0, 400)
        io.send_run(("10.0.0.1", 9), *run)
        io.flush()
        assert [datagram for datagram, _ in stub.sent] == list(map(encode, frames))

    def test_a_socket_that_cannot_segment_sends_each_datagram(self, stub):
        stub.refusals = [OSError(errno.EINVAL, "Invalid argument")]
        io = DatagramBatchIO(stub)
        runs = [run_of(stream, 0, 20) for stream in (1, 2)]
        for stream, (run, _frames) in enumerate(runs):
            io.send_run(("10.0.0.%d" % stream, 9), *run)
        io.flush()
        assert io.segmented is False
        assert [datagram for datagram, _ in stub.sent] == [
            encode(frame) for _run, frames in runs for frame in frames]
        assert (io.send_calls, io.datagrams_out) == (40, 40)


class StubSocket:
    """A socket that records what it is asked to send.  ``sendmsg`` and
    ``sendto`` first raise what ``refusals`` holds, one per call."""

    def __init__(self, refusals=()):
        self._real = bound_socket()         # a descriptor to wait on
        self.refusals = list(refusals)
        self.segmented_calls = 0
        self.sent = []

    def setblocking(self, flag):
        pass

    def setsockopt(self, level, option, value):
        pass

    def fileno(self):
        return self._real.fileno()

    def close(self):
        self._real.close()

    def sendmsg(self, buffers, ancdata, flags, address):
        """Records the datagrams the kernel would cut the buffers into:
        pieces of the ``UDP_SEGMENT`` size, the last maybe shorter."""
        self.segmented_calls += 1
        if self.refusals:
            raise self.refusals.pop(0)
        ((_level, _option, size),) = ancdata
        (segment,) = struct.unpack("H", size)
        joined = b"".join(buffers)
        self.sent += [(joined[start:start + segment], address)
                      for start in range(0, len(joined), segment)]

    def sendto(self, payload, address):
        if self.refusals:
            raise self.refusals.pop(0)
        self.sent.append((bytes(payload), address))


@pytest.fixture
def stub():
    sock = StubSocket()
    yield sock
    sock.close()


class TestASocketThatCannotSegment:
    def test_a_refused_control_message_loses_and_reorders_nothing(self, stub):
        stub.refusals = [OSError(errno.EINVAL, "Invalid argument")]
        io = DatagramBatchIO(stub)
        first = [(seq % 2, data(seq, 1024)) for seq in range(8)]
        for destination, frame in first:
            io.send_frame(frame, ("10.0.0.%d" % destination, 9))
        io.flush()
        assert io.segmented is False and stub.segmented_calls == 1
        for destination in (0, 1):
            assert [datagram for datagram, address in stub.sent
                    if address == ("10.0.0.%d" % destination, 9)] == [
                encode(frame) for to, frame in first if to == destination]
        assert (io.datagrams_out, io.send_calls, io.send_drops) == (8, 8, 0)
        # Later flushes do not ask again, and send in staging order.
        del stub.sent[:]
        for destination, frame in first:
            io.send_frame(frame, ("10.0.0.%d" % destination, 9))
        io.flush()
        assert stub.segmented_calls == 1
        assert [datagram for datagram, _ in stub.sent] == [
            encode(frame) for _, frame in first]

    @pytest.mark.parametrize("code", [errno.ENOPROTOOPT, errno.EIO])
    def test_every_way_of_saying_no_is_understood(self, stub, code):
        stub.refusals = [OSError(code, "no")]
        io = DatagramBatchIO(stub)
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        io.flush()
        assert io.segmented is False and len(stub.sent) == 4

    def test_any_other_error_is_the_callers(self, stub):
        stub.refusals = [OSError(errno.ENETUNREACH, "unreachable")]
        io = DatagramBatchIO(stub)
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        with pytest.raises(OSError):
            io.flush()
        io.flush()                          # and nothing is sent twice
        assert stub.sent == [] and io.segmented is None

    def test_a_later_refusal_costs_only_its_run(self, stub):
        io = DatagramBatchIO(stub)
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        io.flush()
        assert io.segmented is True
        stub.refusals = [OSError(errno.EINVAL, "segment exceeds the MTU")]
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        io.flush()
        assert io.segmented is True         # the first answer stands
        assert len(stub.sent) == 8 and io.send_calls == 1 + 4

    def test_a_full_queue_is_waited_out_once(self, stub):
        stub.refusals = [BlockingIOError()]
        io = DatagramBatchIO(stub)
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        io.flush()
        assert len(stub.sent) == 4 and stub.segmented_calls == 2
        assert (io.datagrams_out, io.send_calls, io.send_drops) == (4, 1, 0)

    def test_a_run_dropped_counts_its_datagrams(self, stub):
        stub.refusals = [BlockingIOError(), BlockingIOError()]
        io = DatagramBatchIO(stub)
        for seq in range(4):
            io.send_frame(data(seq, 64), ("10.0.0.1", 9))
        io.flush()
        assert stub.sent == []
        assert (io.datagrams_out, io.send_calls, io.send_drops) == (0, 0, 4)
        assert io.segmented is None         # a full queue is not an answer
        io.send_frame(data(9, 64), ("10.0.0.1", 9))
        io.flush()
        assert len(stub.sent) == 1          # dropped, not kept for later


class TestFaultComposition:
    """The batch layer must route through FaultySocket's plan hooks."""

    def _wrap(self, sock, rules):
        plan = FaultPlan(name="test", rules=tuple(rules),
                         description="iobatch test plan")
        return FaultySocket(sock, plan=plan, seed=7)

    def test_recv_duplicate_plan_yields_both_copies(self, pair):
        a, b = pair
        frame = DataFrame(3, 0, 1, b"payload", stream_id=1)
        faulty = self._wrap(b, [FaultRule(action="duplicate", kinds=("data",),
                                          direction="recv", first=0, last=0,
                                          count=1)])
        io = DatagramBatchIO(faulty, ring_slots=4)
        a.sendto(encode(frame), b.getsockname())
        _settle(b)
        batch = io.recv_batch()
        assert len(batch) == 2
        assert all(bytes(view) == encode(frame) for view, _ in batch)

    def test_recv_delay_holds_then_flushes(self, pair):
        a, b = pair
        frame = DataFrame(3, 0, 1, b"late", stream_id=1)
        faulty = self._wrap(b, [FaultRule(action="delay", kinds=("data",),
                                          direction="recv", indices=(0,),
                                          delay_s=0.1)])
        io = DatagramBatchIO(faulty, ring_slots=4)
        a.sendto(encode(frame), b.getsockname())
        _settle(b)
        assert io.recv_batch() == []          # held by the plan, not lost
        due = io.next_held_due()               # bounds the loop's poll wait
        assert due is not None
        # A quiet wait's expiry releases reorder holds only: a delay
        # hold leaves at its due time, not early.
        assert io.flush_held() == 0 and not io.has_ready
        assert io.recv_batch() == []
        time.sleep(max(due - time.monotonic(), 0.0))
        (view, _sender), = io.recv_batch()
        assert bytes(view) == encode(frame)
        assert time.monotonic() >= due

    def test_drop_plan_swallows_datagram(self, pair):
        a, b = pair
        frame = DataFrame(3, 0, 1, b"doomed", stream_id=1)
        faulty = self._wrap(b, [FaultRule(action="drop", kinds=("data",),
                                          direction="recv", first=0, last=0)])
        io = DatagramBatchIO(faulty, ring_slots=4)
        a.sendto(encode(frame), b.getsockname())
        _settle(b)
        assert io.recv_batch() == []
        assert faulty.recv_dropped == 1

    def test_the_plan_sees_every_datagram_of_a_run(self, pair):
        a, b = pair
        faulty = self._wrap(a, [FaultRule(action="drop", kinds=("data",),
                                          direction="send", indices=(2,))])
        io = DatagramBatchIO(faulty)
        run, frames = run_of(1, 0, 6, last_bytes=300)
        io.send_run(b.getsockname(), *run)
        io.flush()
        assert faulty.datagrams_sent == 6 and faulty.datagrams_dropped == 1
        assert (io.segmented, io.send_calls) == (False, 6)
        assert arrived(DatagramBatchIO(b), 5) == [
            encode(frame) for frame in frames if frame.seq != 2]

    def test_the_plan_sees_every_datagram_of_a_flush(self, pair):
        a, b = pair
        faulty = self._wrap(a, [FaultRule(action="drop", kinds=("data",),
                                          direction="send", indices=(2,))])
        io = DatagramBatchIO(faulty)
        frames = [data(seq, 1024) for seq in range(6)]
        for frame in frames:
            io.send_frame(frame, b.getsockname())
        io.flush()
        assert faulty.datagrams_sent == 6 and faulty.datagrams_dropped == 1
        assert (io.segmented, io.coalescing, io.send_calls) == (False, False, 6)
        reader = DatagramBatchIO(b)
        assert arrived(reader, 5) == [
            encode(frame) for frame in frames if frame.seq != 2]

"""FaultySocket: plan replay over real loopback datagrams."""

import select
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import DataFrame
from repro.core.wire import WireError, decode, encode
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.socket import FaultySocket
from repro.service.iobatch import DatagramBatchIO
from repro.service.udpservice import UdpTransferService


def _udp_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def _datagram(seq, payload=b"payload!"):
    return encode(DataFrame(transfer_id=1, seq=seq, total=16, payload=payload))


def _plan(*rules, name="t", seed=0):
    return FaultPlan(name=name, rules=tuple(rules), seed=seed)


@pytest.fixture()
def pair():
    """(left, right): two raw loopback sockets; tests wrap ``left``."""
    left = _udp_socket()
    right = _udp_socket()
    right.settimeout(2.0)
    yield left, right
    left.close()
    right.close()


def _wrap(raw, *rules, seed=0):
    return FaultySocket(raw, _plan(*rules, seed=seed))


class TestSendSide:
    def test_transparent_without_plan(self, pair):
        left, right = pair
        faulty = _wrap(left)  # a plan with no rules
        faulty.sendto(_datagram(0), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        assert decode(datagram).seq == 0
        assert faulty.datagrams_sent == 1
        assert faulty.datagrams_dropped == 0

    def test_plan_drop_swallows_datagram(self, pair):
        left, right = pair
        faulty = _wrap(
            left, FaultRule(action="drop", kinds=("data",), indices=(0,))
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        assert decode(datagram).seq == 1
        assert faulty.datagrams_dropped == 1
        assert faulty.loss_rate == 0.5
        assert faulty.faults_injected["drop"] == 1

    def test_plan_duplicate_sends_copies(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="duplicate", kinds=("data",), indices=(0,), count=2),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(3)]
        assert seqs == [0, 0, 0]
        assert faulty.faults_injected["duplicate"] == 2

    def test_plan_reorder_swaps_neighbours(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="reorder", kinds=("data",), indices=(0,), depth=1),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(2)]
        assert seqs == [1, 0]

    def test_plan_delay_holds_until_due(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="delay", kinds=("data",), indices=(0,), delay_s=0.05),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        assert decode(right.recvfrom(65536)[0]).seq == 1
        # The next socket use past the due time releases the held datagram.
        time.sleep(0.06)
        faulty.sendto(_datagram(2), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(2)]
        assert sorted(seqs) == [0, 2]

    def test_detectable_corruption_fails_crc(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="corrupt", kinds=("data",), indices=(0,)),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        with pytest.raises(WireError):
            decode(datagram)

    def test_silent_corruption_decodes_with_wrong_bytes(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(
                action="corrupt", kinds=("data",), indices=(0,),
                corrupt_mask=0x0F, silent=True,
            ),
        )
        faulty.sendto(_datagram(0, payload=b"payload!"), right.getsockname())
        frame = decode(right.recvfrom(65536)[0])
        assert frame.payload != b"payload!"
        assert len(frame.payload) == len(b"payload!")


def _batch_layer(raw, *rules):
    """The one receive path: a plan behind a ``DatagramBatchIO``."""
    faulty = _wrap(raw, *rules)
    return faulty, DatagramBatchIO(faulty, ring_slots=4)


def _recv(io, timeout_s):
    """Datagrams through a deadline-bounded wait: no longer than the next
    held due time, reorder holds released when the wait expires quiet,
    give up at the deadline."""
    deadline = time.monotonic() + timeout_s
    while True:
        batch = io.recv_batch()
        if batch:
            return [bytes(view) for view, _ in batch]
        wait = deadline - time.monotonic()
        if wait <= 0:
            if not io.flush_held():
                return None
            continue
        due = io.next_held_due()
        if due is not None:
            wait = min(wait, max(due - time.monotonic(), 0.0))
        select.select([io.fileno()], [], [], wait)


class TestReceiveSide:
    def test_plan_drop_counts_on_recv_ledger(self, pair):
        left, right = pair
        faulty, io = _batch_layer(
            left, FaultRule(action="drop", kinds=("data",), direction="recv",
                            indices=(0,))
        )
        right.sendto(_datagram(0), left.getsockname())
        right.sendto(_datagram(1), left.getsockname())
        (datagram,) = _recv(io, 2.0)
        assert decode(datagram).seq == 1
        assert faulty.datagrams_received == 2
        assert faulty.recv_dropped == 1
        assert faulty.recv_loss_rate == 0.5
        assert faulty.datagrams_dropped == 0  # send ledger untouched

    def test_plan_duplicate_replays_datagram(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="duplicate", kinds=("data",), direction="recv",
                      indices=(0,), count=1),
        )
        right.sendto(_datagram(0), left.getsockname())
        first, second = _recv(io, 2.0)
        assert first == second == _datagram(0)

    def test_plan_reorder_overtaken_by_later_traffic(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="reorder", kinds=("data",), direction="recv",
                      indices=(0,), depth=1),
        )
        right.sendto(_datagram(0), left.getsockname())
        right.sendto(_datagram(1), left.getsockname())
        assert [decode(d).seq for d in _recv(io, 2.0)] == [1, 0]

    def test_plan_delay_defers_delivery(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="delay", kinds=("data",), direction="recv",
                      indices=(0,), delay_s=0.05),
        )
        right.sendto(_datagram(0), left.getsockname())
        start = time.monotonic()
        assert io.recv_batch() == []  # held, and says until when
        assert start < io.next_held_due() <= time.monotonic() + 0.05
        (datagram,) = _recv(io, 2.0)
        assert decode(datagram).seq == 0
        assert 0.04 <= time.monotonic() - start < 1.0

    def test_detectable_corruption_fails_crc(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="corrupt", kinds=("data",), direction="recv",
                      indices=(0,)),
        )
        right.sendto(_datagram(0), left.getsockname())
        (datagram,) = _recv(io, 2.0)
        with pytest.raises(WireError):
            decode(datagram)

    def test_silent_corruption_decodes_with_wrong_bytes(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="corrupt", kinds=("data",), direction="recv",
                      indices=(0,), corrupt_mask=0x0F, silent=True),
        )
        right.sendto(_datagram(0, payload=b"payload!"), left.getsockname())
        frame = decode(_recv(io, 2.0)[0])
        assert frame.payload != b"payload!"
        assert len(frame.payload) == len(b"payload!")

    def test_reorder_hold_flushed_at_deadline(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left,
            FaultRule(action="reorder", kinds=("data",), direction="recv",
                      indices=(0,), depth=10),
        )
        right.sendto(_datagram(0), left.getsockname())
        # A zero-wait drain is not a timeout: the hold stays held.
        assert io.recv_batch() == [] and not io.has_ready
        # Nothing overtakes it, but the deadline flush returns it anyway:
        # bounded plans must never turn into data loss.
        start = time.monotonic()
        (datagram,) = _recv(io, 0.2)
        assert decode(datagram).seq == 0
        assert time.monotonic() - start >= 0.19

    def test_timeout_still_raised_when_nothing_held(self, pair):
        left, right = pair
        _, io = _batch_layer(
            left, FaultRule(action="drop", kinds=("data",), direction="recv")
        )
        right.sendto(_datagram(0), left.getsockname())
        assert _recv(io, 0.05) is None
        assert io.flush_held() == 0


def _serve_turns(io, timeout_s):
    """Frames through ``UdpTransferService.serve``'s turns until some
    arrive or ``timeout_s`` passes: each wait is bounded by the next held
    due time, a positive wait that expires with nothing readable releases
    the reorder holds, and a datagram that fails to decode is a loss."""
    deadline = time.monotonic() + timeout_s
    while True:
        now = time.monotonic()
        wait = max(deadline - now, 0.0)
        held_due = io.next_held_due()
        if held_due is not None:
            wait = min(wait, max(held_due - now, 0.0))
        if io.has_ready:
            wait = 0.0
        readable, _, _ = select.select([io.fileno()], [], [], wait)
        datagrams = io.recv_batch()
        if not datagrams and not readable and wait > 0.0 \
                and io.flush_held():
            datagrams = io.recv_batch()
        frames = []
        for view, sender in datagrams:
            try:
                frames.append((decode(view), sender))
            except WireError:
                continue
        if frames or time.monotonic() >= deadline:
            return frames


@pytest.fixture()
def service():
    """``service(*rules)``: a ``UdpTransferService`` behind those plan
    rules (none: the kernel socket), closed after the test."""
    made = []

    def make(*rules):
        made.append(UdpTransferService(
            fault_plan=_plan(*rules) if rules else None))
        return made[-1]

    yield make
    for each in made:
        each.close()


class TestServeWait:
    """The same plans through the wait the service's loop uses."""

    def test_delay_released_at_its_due_time(self, pair, service):
        _, right = pair
        server = service(
            FaultRule(action="delay", kinds=("data",), direction="recv",
                      indices=(0,), delay_s=0.05))
        right.sendto(_datagram(0), server.address)
        start = time.monotonic()
        ((frame, sender),) = _serve_turns(server.io, 2.0)
        assert frame.seq == 0 and sender == right.getsockname()
        assert 0.04 <= time.monotonic() - start < 1.0

    def test_reorder_hold_flushed_when_the_wait_expires(self, pair, service):
        _, right = pair
        server = service(
            FaultRule(action="reorder", kinds=("data",), direction="recv",
                      indices=(0,), depth=10))
        right.sendto(_datagram(0), server.address)
        start = time.monotonic()
        ((frame, _),) = _serve_turns(server.io, 0.2)
        assert frame.seq == 0
        assert time.monotonic() - start >= 0.19

    def test_corrupted_is_a_loss_and_nothing_held_times_out(self, pair,
                                                             service):
        _, right = pair
        server = service(
            FaultRule(action="corrupt", kinds=("data",), direction="recv",
                      indices=(0,)))
        right.sendto(_datagram(0), server.address)
        start = time.monotonic()
        assert _serve_turns(server.io, 0.05) == []
        assert 0.05 <= time.monotonic() - start < 1.0

    def test_one_read_of_many_is_one_batch(self, pair, service):
        _, right = pair
        server = service()
        for seq in range(5):
            right.sendto(_datagram(seq), server.address)
        frames = _serve_turns(server.io, 2.0)
        assert [frame.seq for frame, _ in frames] == [0, 1, 2, 3, 4]
        assert server.io.recv_batches == 1
        assert _serve_turns(server.io, 0.0) == []


#: What the plan does to the datagram at each position of the stream.
_ACTIONS = st.one_of(
    st.just(("pass", 1)),
    st.just(("drop", 1)),
    st.tuples(st.just("duplicate"), st.integers(1, 3)),
    st.tuples(st.just("reorder"), st.integers(1, 6)),
    st.tuples(st.just("delay"), st.integers(1, 3)),   # milliseconds
)


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(_ACTIONS, min_size=1, max_size=12))
def test_delivered_is_sent_minus_drops_plus_duplicates(actions):
    """For any bounded plan over any datagram sequence, ``recv_batch`` +
    ``flush_held`` deliver exactly what was sent, minus the plan's
    drops, plus its duplicates — nothing held is ever lost."""
    rules, expected = [], []
    for index, (action, amount) in enumerate(actions):
        expected += [index] * {"drop": 0, "duplicate": 1 + amount}.get(action, 1)
        if action != "pass":
            rules.append(FaultRule(
                action=action, kinds=("data",), direction="recv",
                indices=(index,), count=amount, depth=amount,
                delay_s=amount / 1000.0))
    left, right = _udp_socket(), _udp_socket()
    try:
        faulty, io = _batch_layer(left, *rules)
        for seq in range(len(actions)):
            right.sendto(_datagram(seq), left.getsockname())
        delivered = []
        while True:
            got = _recv(io, 0.0)
            if got is not None:
                delivered += [decode(datagram).seq for datagram in got]
            elif io.next_held_due() is not None:
                time.sleep(max(io.next_held_due() - time.monotonic(), 0.0))
            else:
                break
        assert sorted(delivered) == expected
        assert faulty.datagrams_received == len(actions)
        assert faulty.recv_dropped == sum(a == "drop" for a, _ in actions)
    finally:
        left.close()
        right.close()


"""Matched speeds: the receive buffer sized to the body, the credit that
stands in for what the buffer cannot hold, and the cheaper grant and
receive paths that make sizing necessary.

Five groups: the credit on a fake clock (real ``ServiceCore`` x real
``PullMachine``, no sockets), the hostile ``credit`` field, the kernel's
per-datagram charge, count guards (calls and reads, never timings) for
the grant path and the pump, and the loopback acceptance runs.
"""

import hashlib
import json
import selectors
import socket
import threading
from dataclasses import astuple
from types import SimpleNamespace

import pytest

from repro.core.base import chunk_payload
from repro.core.frames import AckFrame, ControlFrame, DataFrame, NakFrame
from repro.core.wire import encode
from repro.service import clientpump
from repro.service.clientpump import (
    _MAX_WAIT_S,
    DATAGRAM_CHARGE_BYTES,
    UdpClientPump,
    _receive_credit,
)
from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.iobatch import UDP_GRO, DatagramBatchIO
from repro.service.machines import BlastSenderMachine, service_payload
from repro.service.pullclient import PullMachine
from repro.service.udpservice import SEND_BATCH, UdpTransferService

from .drained import drained, frames_of
from .test_iobatch import REFUSED
from .test_streaming_body import SEED, data_frames, run_on_pump, verdict

KIB = 1024


def pull_machine(stream, size, protocol="blast", strategy="selective",
                 **kwargs):
    return PullMachine(stream, size, protocol, strategy,
                       pull_timeout_s=0.25, pull_retries=3,
                       recv_timeout_s=5.0, linger_s=0.05, **kwargs)


def pull_request(stream, size, **extra):
    body = {"op": "pull", "size": size, "stream": stream, **extra}
    return ControlFrame(transfer_id=0, request_id=stream,
                        body=json.dumps(body, sort_keys=True).encode())


class Exchange:
    """Frames handed between a ``ServiceCore`` and one ``PullMachine``
    by hand, on a clock that only moves when nothing else can.

    ``lose(frame)`` drops a server frame on its way to the client.
    ``sent`` keeps every data frame the server emitted; ``unreported``
    counts the data frames sent since the last report reached the
    server and ``peak`` is the most that ever was.
    """

    def __init__(self, core, pull, lose=lambda frame: False):
        self.core, self.pull, self.lose = core, pull, lose
        self.now = 0.0
        self.sent = []
        self.unreported = self.peak = 0

    def run(self, limit=100_000):
        core, pull = self.core, self.pull
        to_server = pull.start(self.now)
        for _ in range(limit):
            to_client = []
            for frame in to_server:
                if isinstance(frame, (AckFrame, NakFrame)):
                    self.unreported = 0
                to_client += [f for f, _ in core.on_frame(
                    frame, self.now, client="c")]
            for frame, _client in drained(core, self.now, SEND_BATCH):
                self.sent.append(frame)
                self.unreported += 1
                self.peak = max(self.peak, self.unreported)
                to_client.append(frame)
            to_server = []
            for frame in to_client:
                if not self.lose(frame) and pull.wants(frame):
                    to_server += pull.on_frame(frame, self.now)
            if pull.result is not None and core.idle:
                return
            if not to_server and not to_client:
                # Nothing is in flight any more (what was has arrived
                # or is lost): only the server's timer can move it.
                self.now = core.next_deadline(self.now)
                self.unreported = 0
        raise AssertionError("exchange did not finish")


def losing(*seqs):
    """Drop the first copy of each data frame in ``seqs``."""
    dropped = set()

    def lose(frame):
        if (isinstance(frame, DataFrame) and frame.seq in seqs
                and frame.seq not in dropped):
            dropped.add(frame.seq)
            return True
        return False
    return lose


def run_pull(size, credit=None, protocol="blast", strategy="selective",
             lose=lambda frame: False, stream=3, **config):
    core = ServiceCore(ServiceConfig(protocol=protocol, strategy=strategy,
                                     seed=SEED, **config))
    pull = pull_machine(stream, size, protocol, strategy, credit=credit)
    exchange = Exchange(core, pull, lose)
    exchange.run()
    return exchange, core.finished[stream]


# -- the credit, socket-free ------------------------------------------------------------

class TestCredit:
    @pytest.mark.parametrize("credit", [1, 4, 7, 64, 255, 256, 10_000])
    def test_unreported_frames_never_exceed_the_credit(self, credit):
        exchange, outcome = run_pull(256 * KIB, credit=credit)
        assert exchange.pull.result.ok and outcome.ok
        assert exchange.peak == min(credit, 256)
        assert outcome.retransmits == 0 and outcome.rounds == 1
        # One wants_reply frame per burst, the last of it.
        asked = [f.seq for f in exchange.sent if f.wants_reply]
        assert asked == sorted({min(s + credit, 256) - 1
                                for s in range(0, 256, credit)})

    def test_a_thousand_packets_at_credit_four_is_one_round(self):
        # 256 bursts against a cap of 60 rounds: a burst answered by a
        # report that finds it whole is flow control, not a retry.
        exchange, outcome = run_pull(1024 * KIB, credit=4, max_rounds=60)
        assert outcome.ok and exchange.pull.result.ok
        assert outcome.retransmits == 0 and outcome.rounds == 1
        assert outcome.data_frames_sent == 1024
        assert exchange.peak == 4

    def test_lost_wants_reply_frame_recovers_by_timeout_and_is_a_round(self):
        exchange, outcome = run_pull(64 * KIB, credit=4, lose=losing(11))
        assert outcome.ok and exchange.pull.result.ok
        assert outcome.rounds == 2          # the timeout, nothing else
        assert exchange.now == pytest.approx(0.5)   # one RTO
        # A timeout carries no report, so the round starts over (the
        # strategy's rule), still in bursts of the credit.
        assert outcome.retransmits == 12
        assert exchange.peak == 4

    def test_a_packet_lost_inside_a_burst_is_a_round_of_its_own(self):
        exchange, outcome = run_pull(64 * KIB, credit=4, lose=losing(9))
        assert outcome.ok and exchange.pull.result.ok
        assert (outcome.rounds, outcome.retransmits) == (2, 1)
        # Selective repeat: the hole first, then on through the body.
        after = [f.seq for f in exchange.sent][12:16]
        assert after == [9, 12, 13, 14]

    @pytest.mark.parametrize("strategy", ["full_nak", "gobackn", "selective"])
    def test_every_reporting_strategy_gets_through_on_credit(self, strategy):
        exchange, outcome = run_pull(40 * KIB, credit=3, strategy=strategy)
        assert outcome.ok and exchange.pull.result.ok
        assert (outcome.rounds, outcome.retransmits) == (1, 0)

    def test_full_retransmission_after_a_loss_still_walks_in_bursts(self):
        exchange, outcome = run_pull(16 * KIB, credit=4, strategy="full_nak",
                                     lose=losing(5))
        assert outcome.ok and exchange.pull.result.ok
        assert outcome.rounds == 2
        assert [f.seq for f in exchange.sent] == (
            list(range(8)) + list(range(16)))
        assert exchange.peak == 4

    def test_timer_only_strategy_advertises_no_credit(self):
        pull = pull_machine(1, 64 * KIB, strategy="full_no_nak", credit=4)
        (request,) = pull.start(0.0)
        assert "credit" not in json.loads(request.body)
        exchange, outcome = run_pull(64 * KIB, credit=4,
                                     strategy="full_no_nak")
        assert outcome.ok and exchange.peak == 64   # behaviour as before

    def test_credit_rides_in_the_request_only_when_given(self):
        (request,) = pull_machine(5, 4096, credit=12).start(0.0)
        assert json.loads(request.body) == {
            "op": "pull", "size": 4096, "stream": 5, "credit": 12}
        (request,) = pull_machine(5, 4096).start(0.0)
        assert json.loads(request.body) == {
            "op": "pull", "size": 4096, "stream": 5}
        with pytest.raises(ValueError):
            pull_machine(5, 4096, credit=0)

    @pytest.mark.parametrize("protocol", ["sliding", "saw"])
    def test_window_protocols_ignore_the_key(self, protocol):
        plain, plain_outcome = run_pull(32 * KIB, protocol=protocol, window=8)
        keyed, keyed_outcome = run_pull(32 * KIB, protocol=protocol, window=8,
                                        credit=2)
        assert keyed.pull.result.ok
        assert ([encode(f) for f in keyed.sent]
                == [encode(f) for f in plain.sent])
        assert astuple(keyed_outcome) == astuple(plain_outcome)

    def test_a_queued_pull_keeps_its_credit(self):
        core = ServiceCore(ServiceConfig(max_active=1, seed=SEED))
        core.on_frame(pull_request(1, 8 * KIB), 0.0, client="a")
        core.on_frame(pull_request(2, 8 * KIB, credit=3), 0.0, client="b")
        assert core.pending_count == 1
        first = [f for f, _ in drained(core, 0.0, SEND_BATCH)]
        assert len(first) == 8
        core.on_frame(AckFrame(transfer_id=1, seq=7, stream_id=1), 0.01)
        second = [f for f, _ in drained(core, 0.01, SEND_BATCH)]
        assert [(f.stream_id, f.seq, f.wants_reply) for f in second] == [
            (2, 0, False), (2, 1, False), (2, 2, True)]

    def test_stale_report_mid_burst_is_not_taken_for_credit(self):
        machine = BlastSenderMachine(1, bytes(16 * KIB), KIB, timeout_s=0.5,
                                     credit=4)
        for _ in range(4):
            machine.next_frame(0.0)
        report = NakFrame(transfer_id=1, first_missing=4,
                          missing=tuple(range(4, 16)), total=16, stream_id=1)
        machine.on_frame(report, 0.01)
        assert machine.frames_available(0.01) == 4 and machine.rounds == 1
        machine.next_frame(0.01)            # the second burst is under way
        machine.on_frame(report, 0.02)      # the same report, duplicated
        assert machine.rounds == 2          # a retry, by the strategy's rule


#: (sha256 over every datagram the server sent, the sender's outcome) of
#: one 70,001-byte pull whose request has no ``credit`` key, recorded at
#: the parent commit (PR 17, ea9ffc5) by this module's ``Exchange``:
#: nothing lost (so every datagram is a first transmission), two holes
#: (the NAK path) and a lost last frame (the timeout path).
PARENT = {
    ('blast', 'clean'): (
        'aabf02798a536dd8a43ed9fbcdd7f8395779e12edf395a08a98d2a952f4223ad',
        (3, True, 70001, 69, 69, 0, 1, '', None)),
    ('blast', 'holes'): (
        '4e8ba521c7f64f8e580403c06a178097e74bd24d15fc28f84236712b52011653',
        (3, True, 70001, 69, 71, 2, 2, '', None)),
    ('blast', 'silent'): (
        '7b7395ca4ac9ea00779f2a0c5e4d1e9ee065c1a4d39ca018a3ab9449de5cbb05',
        (3, True, 70001, 69, 138, 69, 2, '', None)),
    ('sliding', 'clean'): (
        '7b39a084fdb95254c6931378c8a27db3d1ae7eeeae17621bcf0f2f86e6de7db1',
        (3, True, 70001, 69, 69, 0, 1, '', None)),
    ('sliding', 'holes'): (
        '7f2599e54df44fa22e5fb146978d30d019778b4672b0c71bce50e9d5a66c6d50',
        (3, True, 70001, 69, 71, 2, 3, '', None)),
    ('sliding', 'silent'): (
        '17378cda26959ed377ab80e99ab1c67bb25da20be4d24c34b80937c4a259f0c7',
        (3, True, 70001, 69, 70, 1, 2, '', None)),
    ('saw', 'clean'): (
        '7b39a084fdb95254c6931378c8a27db3d1ae7eeeae17621bcf0f2f86e6de7db1',
        (3, True, 70001, 69, 69, 0, 1, '', None)),
    ('saw', 'holes'): (
        '2572a93ef0ba524c80bff39d1cd4fb667d4ce2d1422f440770c25439ed785bc2',
        (3, True, 70001, 69, 71, 2, 3, '', None)),
    ('saw', 'silent'): (
        '17378cda26959ed377ab80e99ab1c67bb25da20be4d24c34b80937c4a259f0c7',
        (3, True, 70001, 69, 70, 1, 2, '', None)),
}
LOST = {"clean": (), "holes": (5, 40), "silent": (68,)}


class TestNoCreditKeyIsTheParent:
    @pytest.mark.parametrize("protocol, case", sorted(PARENT))
    def test_datagrams_and_outcome_are_byte_equal(self, protocol, case):
        exchange, outcome = run_pull(70_001, protocol=protocol, window=8,
                                     lose=losing(*LOST[case]))
        digest = hashlib.sha256()
        for frame in exchange.sent:
            digest.update(encode(frame))
        assert (digest.hexdigest(), astuple(outcome)) == PARENT[
            protocol, case]


# -- the hostile credit -----------------------------------------------------------------

class TestCreditIsValidated:
    @pytest.mark.parametrize("credit", [0, -1, "8", None, [], 1.5, {}])
    def test_bad_credit_is_an_error_cached_and_replayed(self, credit):
        core = ServiceCore(ServiceConfig(seed=SEED))
        request = pull_request(9, 4096, credit=credit)
        (reply, client), = core.on_frame(request, 0.0, client="c")
        assert json.loads(reply.body) == {
            "status": "error", "reason": "bad credit", "stream": 9}
        assert client == "c" and core.active_count == 0
        # Sticky, like every other verdict: a well-formed retry of the
        # same stream id is answered from the cache.
        (again, _), = core.on_frame(pull_request(9, 4096), 0.1, client="c")
        assert again.body == reply.body

    def test_a_huge_credit_is_only_ever_compared(self):
        core = ServiceCore(ServiceConfig(seed=SEED))
        (reply, _), = core.on_frame(
            pull_request(1, 8 * KIB, credit=2 ** 63), 0.0, client="c")
        assert json.loads(reply.body)["status"] == "ok"
        frames = drained(core, 0.0, SEND_BATCH)
        assert len(frames) == 8 and frames[-1][0].wants_reply

    @pytest.mark.parametrize("body", [b"[]", b"7", b'"pull"', b"null"])
    def test_a_body_that_is_not_an_object_is_ignored(self, body):
        core = ServiceCore(ServiceConfig())
        frame = ControlFrame(transfer_id=0, request_id=1, body=body)
        assert core.on_frame(frame, 0.0, client="c") == []

    def test_des_requests_name_their_client_in_the_body(self):
        core = ServiceCore(ServiceConfig())
        (reply, client), = core.on_frame(
            pull_request(1, 4096, client="client007"), 0.0)
        assert client == "client007"
        assert core.metrics.to_dict()["transfers"][0][
            "client"] == "client007"
        # A source address, where the substrate has one, wins.
        (_, client), = core.on_frame(
            pull_request(2, 4096, client="client007"), 0.0, client="addr")
        assert client == "addr"
        (_, client), = core.on_frame(pull_request(3, 4096, client=[1]), 0.0)
        assert client is None


# -- what the kernel charges ------------------------------------------------------------

class FakeSocket:
    """getsockopt/setsockopt of a kernel with a given ``rmem_max``."""

    def __init__(self, rcvbuf, rmem_max):
        self.rcvbuf, self.rmem_max = rcvbuf, rmem_max
        self.requests = []

    def getsockopt(self, level, option):
        assert (level, option) == (socket.SOL_SOCKET, socket.SO_RCVBUF)
        return self.rcvbuf

    def setsockopt(self, level, option, value):
        assert (level, option) == (socket.SOL_SOCKET, socket.SO_RCVBUF)
        self.requests.append(value)
        self.rcvbuf = 2 * min(value, self.rmem_max)     # Linux doubles


class TestReceiveBuffer:
    def test_one_datagram_is_charged_no_more_than_the_constant(self):
        """Fill an unread loopback socket with datagrams the size of a
        1 KiB data frame; it must hold what the constant says it can."""
        frame = encode(DataFrame(transfer_id=1, seq=0, total=4096,
                                 payload=bytes(KIB), stream_id=1))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as receiver, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            receiver.bind(("127.0.0.1", 0))
            granted = receiver.getsockopt(socket.SOL_SOCKET,
                                          socket.SO_RCVBUF)
            promised = granted // DATAGRAM_CHARGE_BYTES
            for _ in range(promised + 8):
                sender.sendto(frame, receiver.getsockname())
            receiver.setblocking(False)
            held = 0
            try:
                while True:
                    receiver.recv(2048)
                    held += 1
            except BlockingIOError:
                pass
        assert held >= promised

    @pytest.mark.parametrize("coalescing", [False, True])
    def test_a_datagram_of_a_segmented_send_is_charged_no_more(
            self, coalescing):
        """The two arrivals a segmented send adds: the kernel cuts the
        burst apart at a socket that does not coalesce (each piece a
        buffer of its own size, less than a datagram sent alone) and
        queues it whole at one that does (~1.1 data bytes charged per
        byte carried).  Either way ``_receive_credit``'s constant stays
        an upper bound."""
        frame = DataFrame(transfer_id=1, seq=0, total=4096,
                          payload=bytes(KIB), stream_id=1)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as receiver, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            receiver.bind(("127.0.0.1", 0))
            granted = receiver.getsockopt(socket.SOL_SOCKET,
                                          socket.SO_RCVBUF)
            promised = granted // DATAGRAM_CHARGE_BYTES
            reader = DatagramBatchIO(receiver)
            if reader.coalescing and not coalescing:
                receiver.setsockopt(socket.SOL_UDP, UDP_GRO, 0)
            out = DatagramBatchIO(sender)
            # Runs of 16, as the server deals them to eight streams; a
            # coalescing socket takes or refuses a run whole.
            for _ in range(promised // 16 + 2):
                for _ in range(16):
                    out.send_frame(frame, receiver.getsockname())
                out.flush()
            if out.segmented is not True:
                pytest.skip(REFUSED)
            held = 0
            while True:
                batch = reader.recv_batch()
                if not batch:
                    break
                held += len(batch)
        assert held >= promised

    def test_a_body_that_fits_the_default_leaves_the_buffer_alone(self):
        sock = FakeSocket(rcvbuf=212_992, rmem_max=4 << 20)
        assert _receive_credit(sock, 64 * KIB) is None
        assert sock.requests == []          # never lowered

    def test_the_buffer_is_raised_to_the_body_and_the_verdict(self):
        sock = FakeSocket(rcvbuf=212_992, rmem_max=4 << 20)
        assert _receive_credit(sock, 256 * KIB) is None
        assert sock.requests == [257 * DATAGRAM_CHARGE_BYTES]

    def test_what_the_kernel_will_not_grant_becomes_the_credit(self):
        sock = FakeSocket(rcvbuf=212_992, rmem_max=4 << 20)
        credit = _receive_credit(sock, 4 << 20)
        assert sock.rcvbuf == 8 << 20
        assert credit == (8 << 20) // DATAGRAM_CHARGE_BYTES - 1 == 3639
        tight = FakeSocket(rcvbuf=2304, rmem_max=1152)
        assert _receive_credit(tight, 4 << 20) == 1     # never zero

    def test_a_pump_client_sizes_its_real_socket(self):
        def rcvbuf(sock):
            return sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as untouched:
            default = rcvbuf(untouched)
        pump = UdpClientPump(("127.0.0.1", 9), [4 << 20, 4 * KIB])
        try:
            big, small = pump.clients
            assert rcvbuf(small.sock) == default
            assert rcvbuf(big.sock) > default
            # Sized buffer or credit, whichever this box allows — and
            # the credit is what the buffer it got can hold.
            credit = json.loads(big.machine._request.body).get("credit")
            if credit is not None:
                assert credit == rcvbuf(big.sock) // DATAGRAM_CHARGE_BYTES - 1
            assert "credit" not in json.loads(small.machine._request.body)
        finally:
            for client in pump.clients:
                client.close()


# -- count guards: calls and reads, never timings ---------------------------------------

class CountingPolicy:
    """Delegates to the core's policy, counting calls."""

    def __init__(self, policy):
        self.policy, self.calls, self.budgets = policy, 0, []

    def grants(self, table, now, budget):
        self.calls += 1
        self.budgets.append(budget)
        return self.policy.grants(table, now, budget)


class TestGrantPathCounts:
    @pytest.mark.parametrize("policy", ["rr", "fifo"])
    def test_one_policy_call_fills_a_whole_send_batch(self, policy,
                                                      monkeypatch):
        core = ServiceCore(ServiceConfig(policy=policy, max_active=8,
                                         seed=SEED))
        for stream in range(1, 9):
            core.on_frame(pull_request(stream, 256 * KIB), 0.0,
                          client=f"c{stream}")
        counted = core.policy = CountingPolicy(core.policy)
        asked = []
        available = BlastSenderMachine.frames_available
        monkeypatch.setattr(
            BlastSenderMachine, "frames_available",
            lambda self, now: asked.append(self.stream_id)
            or available(self, now))
        runs = core.drain_sends(0.0, SEND_BATCH)
        assert len(frames_of(runs)) == SEND_BATCH
        assert counted.calls == 1                       # 16 at the parent
        assert len(asked) == len(set(asked)) <= 8       # once per stream
        if policy == "rr":
            # Sixteen rotations of the eight streams, granted in one
            # call, leave as one run per stream in rotation order.
            assert [(run[1], len(run[3])) for run in runs] == [
                (stream, 16) for stream in range(1, 9)]

    def test_the_budget_is_whole_quanta(self):
        core = ServiceCore(ServiceConfig(max_active=2, grants_per_poll=8))
        core.on_frame(pull_request(1, 64 * KIB), 0.0, client="a")
        counted = core.policy = CountingPolicy(core.policy)
        assert len(drained(core, 0.0, 1)) == 8
        assert len(drained(core, 0.0, 9)) == 16
        assert len(core.poll(0.0)) == 8
        assert counted.budgets == [8, 16, 8]

    def test_a_grant_touches_the_indexes_only_when_something_moved(
            self, monkeypatch):
        core = ServiceCore(ServiceConfig(max_active=8, seed=SEED))
        core.on_frame(pull_request(1, 200 * KIB), 0.0, client="a")
        touched = []
        monkeypatch.setattr(
            ServiceCore, "_reindex_deadline",
            lambda self, stream_id, entry: touched.append("deadline"))
        monkeypatch.setattr(
            ServiceCore, "_refresh_ready",
            lambda self, *args: touched.append("ready"))
        assert len(drained(core, 0.0, SEND_BATCH)) == SEND_BATCH
        assert touched == []                # mid-burst: neither index
        assert len(drained(core, 0.0, SEND_BATCH)) == 200 - SEND_BATCH
        assert touched == ["deadline"]      # the burst's last frame
        assert not core._ready


def scripted_server():
    server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    server.bind(("127.0.0.1", 0))
    return server


def body_frames(stream, size):
    return data_frames(stream, chunk_payload(
        service_payload(SEED, stream, size), KIB))


def queued_datagrams(sock):
    sock.setblocking(False)
    datagrams = []
    while True:
        try:
            datagrams.append(sock.recv(65536))
        except BlockingIOError:
            return datagrams


class FakeClock:
    """Stands in for ``clientpump``'s ``time``: it starts at 0 and moves
    only while the pump waits."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.fixture
def pump_clock(monkeypatch):
    """Run the pump on a :class:`FakeClock`.  Its selector polls the real
    sockets without blocking; when nothing is ready, ``select(wait)``
    advances the clock by ``wait`` instead of sleeping.  Timer checks
    then see the instants the pump itself chose, whatever the load on
    the machine."""
    clock = FakeClock()

    class Selector(selectors.DefaultSelector):
        def select(self, timeout=None):
            ready = super().select(0)
            if not ready:
                clock.now += timeout
            return ready

    monkeypatch.setattr(clientpump, "time", clock)
    monkeypatch.setattr(clientpump, "selectors", SimpleNamespace(
        DefaultSelector=Selector, EVENT_READ=selectors.EVENT_READ))
    return clock


class CountingSelector(selectors.DefaultSelector):
    rounds = 0

    def select(self, timeout=None):
        CountingSelector.rounds += 1
        return super().select(timeout)


class TestPumpCounts:
    def test_a_64_datagram_burst_is_read_within_two_select_rounds(
            self, monkeypatch):
        monkeypatch.setattr(CountingSelector, "rounds", 0)
        monkeypatch.setattr(clientpump.selectors, "DefaultSelector",
                            CountingSelector)
        # Verdict + body are queued on the socket before the pump runs.
        (result,) = run_on_pump([(64 * KIB, 64, lambda stream: body_frames(
            stream, 64 * KIB))])
        assert result.ok
        assert CountingSelector.rounds <= 2     # 33 at the parent

    def test_one_datagram_among_256_clients_reads_no_other_timer(
            self, monkeypatch):
        reads = []

        class Watched(clientpump._PumpClient):
            @property
            def next_timer(self):
                reads.append(self.stream_id)
                return self._next_timer

            @next_timer.setter
            def next_timer(self, value):
                self._next_timer = value

        monkeypatch.setattr(clientpump, "_PumpClient", Watched)
        server = scripted_server()
        pump = UdpClientPump(server.getsockname(), [KIB] * 256,
                             pull_timeout_s=5.0, slot_bytes=2048)
        target = pump.clients[100]
        marks = {}

        class Selector(selectors.DefaultSelector):
            def select(self, timeout=None):
                ready = super().select(timeout)
                if ready and "before" not in marks:
                    marks["before"] = len(reads)
                elif "before" in marks and "after" not in marks:
                    marks["after"] = len(reads)
                    raise KeyboardInterrupt     # one wakeup is the test
                return ready

        monkeypatch.setattr(clientpump.selectors, "DefaultSelector", Selector)
        server.sendto(encode(verdict(target.stream_id, KIB, 1)),
                      target.sock.getsockname())
        try:
            with pytest.raises(KeyboardInterrupt):
                pump.run(overall_timeout_s=5.0)
        finally:
            server.close()
        wakeup = reads[marks["before"]:marks["after"]]
        assert set(wakeup) <= {target.stream_id}    # 256 clients at the parent
        assert len(wakeup) <= 4

    def test_retries_fire_within_one_wait_of_their_deadline(
            self, pump_clock, monkeypatch):
        staged = []
        stage = clientpump._PumpClient._stage

        def recording(client, frames, now):
            frames = list(frames)
            staged.extend((client.stream_id, now) for _ in frames)
            stage(client, frames, now)

        monkeypatch.setattr(clientpump._PumpClient, "_stage", recording)
        server = scripted_server()
        pump = UdpClientPump(server.getsockname(), [4096, 4096],
                             pull_timeout_s=0.2, pull_retries=3)
        try:
            results = pump.run(overall_timeout_s=10.0)
            assert len(queued_datagrams(server)) == 6   # three per client
        finally:
            server.close()
        for stream in (1, 2):
            sent = [at for client, at in staged if client == stream]
            assert len(sent) == 3
            for at, deadline in zip(sent, [0.0, 0.2, 0.4]):
                assert deadline - 1e-9 <= at <= deadline + _MAX_WAIT_S
            assert results[stream].status == "no-response"
            assert 0.6 - 1e-9 <= results[stream].elapsed_s \
                <= 0.6 + _MAX_WAIT_S

    def test_a_stall_is_called_within_one_wait_of_its_deadline(
            self, pump_clock):
        server = scripted_server()
        pump = UdpClientPump(server.getsockname(), [4096],
                             recv_timeout_s=0.3)
        (client,) = pump.clients
        try:
            first = body_frames(1, 4096)[0]
            for frame in (verdict(1, 4096, 4), first):
                server.sendto(encode(frame), client.sock.getsockname())
            results = pump.run(overall_timeout_s=10.0)
        finally:
            server.close()
        assert results[1].status == "stalled"
        assert 0.3 - 1e-9 <= results[1].elapsed_s <= 0.3 + _MAX_WAIT_S

    def test_the_short_linger_is_not_held_up_by_the_long_stall_timer(
            self, pump_clock):
        # The one deadline that moves *earlier*: a completed pull swaps
        # its recv_timeout_s quiet period for linger_s.
        server = scripted_server()
        pump = UdpClientPump(server.getsockname(), [4096],
                             recv_timeout_s=5.0, linger_s=0.1)
        (client,) = pump.clients
        try:
            for frame in [verdict(1, 4096, 4)] + body_frames(1, 4096):
                server.sendto(encode(frame), client.sock.getsockname())
            results = pump.run(overall_timeout_s=10.0)
        finally:
            server.close()
        assert results[1].ok
        assert 0.1 - 1e-9 <= pump_clock.now <= 0.1 + _MAX_WAIT_S


# -- loopback acceptance ----------------------------------------------------------------

def serve_in_thread(config, streams):
    service = UdpTransferService(config)
    thread = threading.Thread(
        target=service.serve,
        kwargs={"expected_streams": streams, "duration_s": 60.0},
        daemon=True)
    thread.start()
    return service, thread


def pump_against_service(sizes, monkeypatch=None, credit=None):
    if credit is not None:
        monkeypatch.setattr(clientpump, "_receive_credit",
                            lambda sock, size: credit)
    service, thread = serve_in_thread(
        ServiceConfig(policy="rr", max_active=8), len(sizes))
    try:
        pump = UdpClientPump(service.address, sizes, linger_s=0.05,
                             slot_bytes=8192, recv_timeout_s=20.0)
        requests = [json.loads(c.machine._request.body) for c in pump.clients]
        results = pump.run(overall_timeout_s=45.0)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        report = json.loads(service.report_json())
    finally:
        service.stop()
        service.close()
    return results, report, requests


class TestLoopbackAcceptance:
    def check(self, results, report, sizes):
        assert [results[s + 1].ok for s in range(len(sizes))] == (
            [True] * len(sizes))
        assert [results[s + 1].size_bytes for s in range(len(sizes))] == sizes
        summary = report["summary"]
        assert summary["ok"] == len(sizes)
        assert summary["retransmits"] == 0
        assert all(row["rounds"] == 1 for row in report["transfers"])

    def test_one_4_mib_blast_has_no_retransmits(self):
        # Sized buffer or credit, whichever net.core.rmem_max allows.
        sizes = [4 << 20]
        results, report, requests = pump_against_service(sizes)
        self.check(results, report, sizes)
        assert summary_frames(report) == 4096

    def test_eight_concurrent_256_kib_blasts_have_no_retransmits(self):
        sizes = [256 * KIB] * 8
        results, report, requests = pump_against_service(sizes)
        self.check(results, report, sizes)
        assert summary_frames(report) == 8 * 256

    def test_the_credit_path_alone_is_enough(self, monkeypatch):
        # Buffer left at the default (92 datagrams): credit 32 must
        # carry a body 32 times its size without an overrun.
        sizes = [KIB << 10]
        results, report, requests = pump_against_service(
            sizes, monkeypatch, credit=32)
        assert requests[0]["credit"] == 32
        self.check(results, report, sizes)
        assert summary_frames(report) == 1024


    def test_a_256_kib_blast_crosses_the_kernel_once_per_16_datagrams(self):
        """The count guard of the ``perf-smoke`` CI job, read from the
        batch layers' own counters at both ends."""
        service, thread = serve_in_thread(
            ServiceConfig(policy="rr", max_active=8), 1)
        try:
            pump = UdpClientPump(service.address, [256 * KIB], linger_s=0.05,
                                 slot_bytes=8192)
            (client,) = pump.clients
            results = pump.run(overall_timeout_s=45.0)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            report = json.loads(service.report_json())
            table = service.report_table()
            canonical = json.loads(service.canonical_report_json())
        finally:
            service.stop()
            service.close()
        self.check(results, report, [256 * KIB])
        served, pulled = report["io"], client.io.stats()
        assert served == service.io.stats()
        assert "# io: coalescing=" in table and "io" not in canonical
        # Verdict + 256 data frames (a retried request is answered twice).
        assert served["datagrams_out"] == pulled["datagrams_in"] >= 257
        assert served["send_drops"] == pulled["send_drops"] == 0
        if served["segmented"] is False:
            pytest.skip(REFUSED)
        assert served["segmented"] is True and pulled["coalescing"] is True
        assert served["send_calls"] * 16 <= served["datagrams_out"]
        assert pulled["recv_calls"] * 16 <= pulled["datagrams_in"]


def summary_frames(report):
    return report["summary"]["data_frames"]

"""The blocking driver loops against a scripted endpoint: no sockets,
no threads, and a clock that only moves when a receive times out."""

import pytest

from repro.core.frames import AckFrame, DataFrame
from repro.core.wire import encode
from repro.service.machines import make_sender_machine, receiver_for
from repro.udpnet import UdpTransfer, endpoints

DST = ("192.0.2.1", 9)
PEER = ("192.0.2.2", 7)
TIMEOUT_S = 0.05


class FakeClock:
    """Stands in for the ``time`` module inside ``udpnet.endpoints``."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        pass


class RecordingIO:
    """Stands in for the endpoint's batch layer: ``sent`` is what has
    been flushed, in staging order."""

    def __init__(self):
        self.staged = []
        self.sent = []

    def send_frame(self, frame, address):
        self.staged.append((encode(frame), address))

    def flush(self):
        self.sent += self.staged
        self.staged = []


class ScriptedEndpoint(UdpTransfer):
    """Receives from a script, records what it sends.

    Script entries are frames (delivered at once, from ``PEER``) or
    ``None`` (the wait times out: the clock advances by the timeout).
    """

    io = None  # the recording layer, not the property's real one

    def __init__(self, clock, script=()):
        self.clock = clock
        self.script = list(script)
        self.packet_bytes = 1024
        self.io = RecordingIO()
        self.waits = []

    @property
    def sent(self):
        assert not self.io.staged, "a driver returned with frames staged"
        return self.io.sent

    def _recv_frame(self, timeout_s):
        self.io.flush()  # as the real wait does before it blocks
        self.waits.append(timeout_s)
        assert self.script, "driver asked for more frames than scripted"
        frame = self.script.pop(0)
        if frame is None:
            self.clock.now += max(timeout_s, 0.0)
            return None
        return frame, PEER


class Recorder:
    """Forwards to a sender machine, noting what the driver asked."""

    def __init__(self, machine):
        self.machine = machine
        self.polls = []
        self.deadlines = []
        self.emitted = []
        self.fed = []

    def __getattr__(self, name):
        return getattr(self.machine, name)

    def poll(self, now):
        self.polls.append(now)
        self.machine.poll(now)

    def next_frame(self, now):
        frame = self.machine.next_frame(now)
        self.emitted.append(frame)
        return frame

    def next_deadline(self):
        deadline = self.machine.next_deadline()
        self.deadlines.append(deadline)
        return deadline

    def on_frame(self, frame, now):
        self.fed.append(frame)
        self.machine.on_frame(frame, now)


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(endpoints, "time", fake)
    return fake


def ack(seq, stream_id=1):
    return AckFrame(transfer_id=stream_id, seq=seq, stream_id=stream_id)


def sender(protocol, packets=3, max_rounds=60):
    return Recorder(make_sender_machine(
        protocol, 1, bytes(packets * 1024), 1024, TIMEOUT_S,
        max_rounds=max_rounds, strategy="gobackn", window=packets))


#: The replies a lossless 3-packet transfer gets back, per protocol.
CLEAN_REPLIES = {
    "saw": [ack(0), ack(1), ack(2)],
    "sliding": [ack(0), ack(1), ack(2)],
    "blast": [ack(2)],
}


@pytest.mark.parametrize("protocol", ["saw", "sliding", "blast"])
class TestSenderLoop:
    def test_frames_leave_in_next_frame_order(self, clock, protocol):
        endpoint = ScriptedEndpoint(clock, CLEAN_REPLIES[protocol])
        machine = sender(protocol)
        assert endpoint._drive_sender(machine, DST) == 0
        assert machine.done
        assert [datagram for datagram, _ in endpoint.sent] == [
            encode(frame) for frame in machine.emitted]
        assert [frame.seq for frame in machine.emitted] == [0, 1, 2]
        assert {address for _, address in endpoint.sent} == {DST}

    def test_wait_is_exactly_deadline_minus_now(self, clock, protocol):
        endpoint = ScriptedEndpoint(clock, [None] + CLEAN_REPLIES[protocol])
        machine = sender(protocol)
        endpoint._drive_sender(machine, DST)
        assert endpoint.waits == [
            deadline - now
            for deadline, now in zip(machine.deadlines, machine.polls)
        ]
        assert endpoint.waits[0] == TIMEOUT_S

    def test_timeout_counts_and_repolls(self, clock, protocol):
        endpoint = ScriptedEndpoint(clock, [None] + CLEAN_REPLIES[protocol])
        machine = sender(protocol)
        assert endpoint._drive_sender(machine, DST) == 1
        # The quiet wait moved the clock to the deadline; the re-poll
        # there is what let the machine retransmit.
        assert machine.polls[:2] == [0.0, TIMEOUT_S]
        assert machine.done and machine.retransmits >= 1

    def test_other_streams_never_reach_the_machine(self, clock, protocol):
        strangers = [ack(0, stream_id=9), ack(2, stream_id=9)]
        endpoint = ScriptedEndpoint(
            clock, strangers + CLEAN_REPLIES[protocol])
        machine = sender(protocol)
        endpoint._drive_sender(machine, DST)
        assert machine.done
        assert machine.fed == CLEAN_REPLIES[protocol]

    def test_exhaustion_reports_the_machines_error(self, clock, protocol):
        endpoint = ScriptedEndpoint(clock, [None] * 16)
        outcome = endpoint.send(bytes(3 * 1024), DST, protocol=protocol,
                                timeout_s=TIMEOUT_S, max_rounds=2)
        assert not outcome.ok
        assert outcome.timeouts == 2
        expected = ("gave up after 2 rounds" if protocol == "blast"
                    else "unacknowledged after 2 attempts")
        assert expected in outcome.error


def data(seq, total=2, wants_reply=False, stream_id=1):
    return DataFrame(transfer_id=stream_id, seq=seq, total=total,
                     payload=bytes([seq]) * 4, wants_reply=wants_reply,
                     stream_id=stream_id)


class TestReceiverLoop:
    def test_answers_the_source_then_lingers(self, clock):
        last = data(1, wants_reply=True)
        endpoint = ScriptedEndpoint(clock, [data(0, stream_id=9), last,
                                            last, None])
        machine = receiver_for("blast", 1)
        first = (data(0), PEER)
        assert endpoint._drive_receiver(machine, 2.0, 0.5, first=first)
        assert machine.data == bytes([0]) * 4 + bytes([1]) * 4
        # One ack for the completing frame, one for its duplicate.
        assert endpoint.sent == [(encode(ack(1)), PEER)] * 2
        assert machine.duplicates == 1
        # Idle timeout while incomplete, linger once answered.
        assert endpoint.waits == [2.0, 2.0, 0.5, 0.5]

    def test_idle_timeout_before_completion(self, clock):
        endpoint = ScriptedEndpoint(clock, [data(0), None])
        machine = receiver_for("saw", 1)
        assert not endpoint._drive_receiver(machine, 1.0, 0.5)
        assert not machine.done
        assert endpoint.sent == [(encode(ack(0)), PEER)]

    def test_serve_one_binds_to_the_first_data_frame(self, clock):
        endpoint = ScriptedEndpoint(clock, [
            ack(0), data(0, total=1, stream_id=4), None])
        outcome = endpoint.serve_one(protocol="saw")
        assert outcome.ok and outcome.data == bytes([0]) * 4
        assert outcome.n_packets == 1 and outcome.reply_frames_sent == 1
        assert endpoint.sent == [(encode(ack(0, stream_id=4)), PEER)]

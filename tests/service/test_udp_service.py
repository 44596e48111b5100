"""Loopback UDP service tests, including the 16-client fault-plan run.

Acceptance: the same scheduler core that drives the DES substrate must
pass a 16-client loopback UDP run under the builtin ``dup+reorder``
fault plan, every payload byte-verified client-side.
"""

import json
import socket
import threading

import pytest

from repro.core.frames import AckFrame, ControlFrame, DataFrame, NakFrame
from repro.core.wire import HEADER2_BYTES, decode, encode
from repro.faults.plans import builtin_plan
from repro.service.clientpump import UdpClientPump
from repro.service.engine import ServiceConfig
from repro.service.iobatch import MAX_RUN_BYTES, DatagramBatchIO
from repro.service.loadgen import run_udp_loadgen
from repro.service.machines import service_payload
from repro.service.pullclient import PullMachine
from repro.service.udpservice import UdpTransferService


def run_service(config=None, clients=1, duration_s=20.0, **kwargs):
    """Start a service thread; returns (service, thread)."""
    service = UdpTransferService(config or ServiceConfig(), **kwargs)
    thread = threading.Thread(
        target=service.serve,
        kwargs={"expected_streams": clients, "duration_s": duration_s},
        daemon=True,
    )
    thread.start()
    return service, thread


def pull(address, stream_id, size, **kwargs):
    """One pull through a one-client pump; returns its verdict."""
    pump = UdpClientPump(address, [size], first_stream=stream_id, **kwargs)
    return pump.run()[stream_id]


class TestSingleClient:
    @pytest.mark.parametrize("protocol", ["blast", "sliding"])
    def test_pull_verifies_payload(self, protocol):
        config = ServiceConfig(protocol=protocol)
        service, thread = run_service(config)
        result = pull(service.address, 1, 8192, protocol=protocol)
        thread.join(timeout=25)
        report = json.loads(service.report_json())
        service.sock.close()
        assert result.ok and result.size_bytes == 8192
        assert report["summary"]["ok"] == 1

    def test_rejected_stream_reported(self):
        config = ServiceConfig(max_active=1, max_queue=0)
        service, thread = run_service(config, clients=2)
        # The blocker is a PullMachine stepped by hand on its own
        # socket.  Once it has its verdict it holds the only active slot
        # for as long as this thread leaves the body unread (a blast's
        # last packet is retried until it is answered), so the victim's
        # rejection does not depend on which thread runs when.
        blocker = PullMachine(1, 8192, "blast", "selective",
                              pull_timeout_s=1.0, pull_retries=3,
                              recv_timeout_s=5.0, linger_s=0.1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)

        def step():
            frame = decode(sock.recv(2048))
            if blocker.wants(frame):
                for reply in blocker.on_frame(frame, 0.0):
                    sock.sendto(encode(reply), service.address)

        (request,) = blocker.start(0.0)
        sock.sendto(encode(request), service.address)
        step()  # the verdict: admitted
        assert service.core.active_count == 1
        rejected = pull(service.address, 2, 1024)
        while blocker.result is None:
            step()
        service.stop()
        thread.join(timeout=25)
        service.sock.close()
        sock.close()
        assert rejected.status == "rejected"
        assert blocker.result.ok


class TestConcurrentClients:
    def test_three_clients_loopback(self):
        result = run_udp_loadgen(3, duration_s=20.0)
        assert result.served and result.all_ok
        report = json.loads(result.report_json)
        assert report["summary"]["ok"] == 3

    def test_16_clients_under_dup_reorder(self):
        # The acceptance run: 16 concurrent clients, server socket
        # injecting the builtin dup+reorder plan in both directions.
        config = ServiceConfig(protocol="sliding", policy="rr",
                               max_active=8, max_queue=64)
        result = run_udp_loadgen(
            16, config=config, fault_plan=builtin_plan("dup+reorder"),
            fault_seed=11, duration_s=45.0, recv_timeout_s=8.0,
        )
        assert len(result.pulls) == 16
        assert result.all_ok, {
            s: (p.status, p.error) for s, p in result.pulls.items() if not p.ok
        }
        report = json.loads(result.report_json)
        assert report["summary"]["ok"] == 16
        assert report["summary"]["failed"] == 0


class TestCanonicalDeterminism:
    """The batched readiness loop must be outcome-deterministic."""

    @staticmethod
    def _canonical_run() -> str:
        config = ServiceConfig(protocol="sliding", policy="rr",
                               max_active=8, max_queue=64)
        service = UdpTransferService(
            config, fault_plan=builtin_plan("dup+reorder"), fault_seed=11)
        thread = threading.Thread(
            target=service.serve,
            kwargs={"expected_streams": 16, "duration_s": 45.0},
            daemon=True,
        )
        thread.start()
        pump = UdpClientPump(service.address, [8192] * 16,
                             protocol="sliding", recv_timeout_s=8.0)
        try:
            pulls = pump.run(overall_timeout_s=45.0)
        finally:
            service.stop()
            thread.join(timeout=10.0)
        canonical = service.canonical_report_json()
        service.sock.close()
        assert len(pulls) == 16 and all(p.ok for p in pulls.values()), {
            s: (p.status, p.error) for s, p in pulls.items() if not p.ok
        }
        return canonical

    def test_16_clients_dup_reorder_reports_are_byte_identical(self):
        # Two full 16-client runs under the builtin dup+reorder plan on
        # the batched loop: wall-clock jitter, batching boundaries, and
        # fault timing may all differ, but the canonical outcome
        # projection must not.
        first = self._canonical_run()
        second = self._canonical_run()
        assert first == second
        report = json.loads(first)
        assert report["summary"]["ok"] == 16
        assert report["summary"]["rejected"] == 0
        assert [t["stream"] for t in report["transfers"]] == list(range(1, 17))


class TestServerHostileFrames:
    def test_an_oversized_stream_id_does_not_stop_the_server(self):
        # One CRC-valid pull for a stream id past the wire's 32 bits used
        # to raise struct.error inside serve() and end the serve loop.
        service, thread = run_service(duration_s=20.0)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)
        try:
            hostile = ControlFrame(transfer_id=0, request_id=1, body=json.dumps(
                {"op": "pull", "stream": 1099511627776, "size": 10}).encode())
            sock.sendto(encode(hostile), service.address)
            reply = decode(sock.recv(2048))
        finally:
            sock.close()
        assert json.loads(reply.body.decode()) == {
            "status": "error", "reason": "bad stream id", "stream": 0}
        result = pull(service.address, 1, 8192)
        thread.join(timeout=25)
        report = json.loads(service.report_json())
        service.sock.close()
        assert not thread.is_alive()
        assert result.ok and result.payload_ok
        assert report["summary"]["ok"] == 1
        assert report["summary"]["transfers"] == 1

    def test_a_nak_with_another_total_does_not_stop_the_server(self):
        # One CRC-valid NAK naming packet 6 of 8 against a 4-packet blast
        # used to raise KeyError out of drain_sends and end serve().
        service, thread = run_service(clients=2, duration_s=20.0)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)

        def control(request_id, body):
            sock.sendto(encode(ControlFrame(
                transfer_id=0, request_id=request_id,
                body=json.dumps(body).encode())), service.address)

        try:
            control(1, {"op": "pull", "stream": 1, "size": 4096})
            frames = [decode(sock.recv(2048)) for _ in range(5)]
            assert isinstance(frames[0], ControlFrame)  # the verdict
            assert [frame.seq for frame in frames[1:]] == [0, 1, 2, 3]
            sock.sendto(encode(NakFrame(1, 6, (6,), 8, stream_id=1)),
                        service.address)
            # The answer to a refused pull leaves with the first flush
            # after the NAK, so the loop has granted sends once since.
            control(2, {"op": "pull", "stream": 0, "size": 10})
            assert decode(sock.recv(2048)).request_id == 2
            sock.sendto(encode(AckFrame(1, 3, stream_id=1)), service.address)
        finally:
            sock.close()
        result = pull(service.address, 2, 8192, pull_retries=8)
        thread.join(timeout=25)
        report = json.loads(service.report_json())
        service.sock.close()
        assert not thread.is_alive()
        assert result.ok and result.payload_ok
        assert report["summary"]["ok"] == 2


    def test_an_ack_from_another_address_cannot_finish_a_live_stream(self):
        # A third socket acknowledges the last packet of a credited blast
        # the honest client has only seen 8 packets of.  It used to
        # finish the stream (report: ok, 8 data frames) and the honest
        # pull stalled.
        service, thread = run_service(duration_s=20.0)
        honest = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        hostile = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for sock in (honest, hostile):
            sock.bind(("127.0.0.1", 0))
            sock.settimeout(5.0)
        machine = PullMachine(1, 64 * 1024, "blast", "selective",
                              pull_timeout_s=1.0, pull_retries=3,
                              recv_timeout_s=2.0, linger_s=0.05, credit=8)

        def send(frames):
            for frame in frames:
                honest.sendto(encode(frame), service.address)

        try:
            send(machine.start(0.0))
            while machine.result is None:
                try:
                    frame = decode(honest.recv(2048))
                except socket.timeout:
                    send(machine.on_quiet(0.0))
                    continue
                if not machine.wants(frame):
                    continue
                verdict = isinstance(frame, ControlFrame)
                send(machine.on_frame(frame, 0.0))
                if verdict:
                    hostile.sendto(encode(AckFrame(1, 63, stream_id=1)),
                                   service.address)
                    # Its answer leaves after the ACK was taken in.
                    hostile.sendto(encode(ControlFrame(
                        transfer_id=0, request_id=9, body=json.dumps(
                            {"op": "pull", "stream": 0}).encode())),
                        service.address)
                    assert decode(hostile.recv(2048)).request_id == 9
        finally:
            honest.close()
            hostile.close()
        thread.join(timeout=25)
        report = json.loads(service.report_json())
        service.sock.close()
        assert not thread.is_alive()
        assert (machine.result.status, machine.result.payload_ok) == ("ok", True)
        assert report["summary"]["ok"] == 1
        assert service.core.foreign_replies == 1
        assert service.core.finished[1].data_frames_sent == 64


class TestPumpRings:
    """A pump client consumes each ring of reads in one machine call."""

    def test_a_ring_carrying_the_verdict_and_the_first_packets(self):
        # The verdict and the stream's first packets leave in one flush,
        # so one ring reads them together.  What the pump wants changes
        # with the verdict: judged for the whole ring before it, the
        # packets behind it were lost to an RTO (completion 116 -> 600
        # ms with no failure, so only latency showed it).
        packets = 16
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        pump = UdpClientPump(server.getsockname(), [packets * 1024],
                             protocol="sliding", recv_timeout_s=2.0,
                             linger_s=0.0)
        (client,) = pump.clients
        verdict = {"status": "ok", "stream": 1, "size": packets * 1024,
                   "packets": packets, "seed": 7}
        body = service_payload(7, 1, packets * 1024)
        io = DatagramBatchIO(server)
        try:
            io.send_frame(ControlFrame(1, 1, json.dumps(verdict).encode(),
                                       stream_id=1), client.sock.getsockname())
            for seq in range(packets):
                io.send_frame(DataFrame(1, seq, packets,
                                        body[seq * 1024:(seq + 1) * 1024],
                                        True, stream_id=1),
                              client.sock.getsockname())
            io.flush()
            pulls = pump.run(overall_timeout_s=10.0)
            # Loopback: everything the pump sent is queued by now.
            arrived = [decode(view) for view, _sender in io.recv_batch()]
        finally:
            server.close()
        assert (pulls[1].status, pulls[1].payload_ok) == ("ok", True)
        # One ACK each, in order.
        assert [frame.seq for frame in arrived
                if isinstance(frame, AckFrame)] == list(range(packets))

    def test_a_sliding_pull_needs_no_retransmission(self):
        config = ServiceConfig(protocol="sliding", window=32)
        service, thread = run_service(config)
        result = pull(service.address, 1, 64 * 1024, protocol="sliding")
        thread.join(timeout=25)
        report = json.loads(service.report_json())
        service.sock.close()
        assert result.ok
        assert report["summary"]["data_frames"] == 64
        assert report["summary"]["retransmits"] == 0


class TestPumpHostileFrames:
    def test_spoofed_total_leaves_every_pull_ok(self):
        # No server thread: everything a client will read is queued on
        # its socket before the pump starts, so the order is fixed.
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        pump = UdpClientPump(server.getsockname(), [4096] * 3, linger_s=0.0)
        try:
            for client in pump.clients:
                stream = client.stream_id
                reply = {"status": "ok", "stream": stream, "size": 4096,
                         "packets": 4, "seed": 7}
                payload = service_payload(7, stream, 4096)
                frames = [ControlFrame(transfer_id=stream, request_id=stream,
                                       body=json.dumps(reply).encode(),
                                       stream_id=stream)]
                frames += [
                    DataFrame(transfer_id=stream, seq=seq, total=4,
                              payload=payload[seq * 1024:(seq + 1) * 1024],
                              wants_reply=(seq == 3), stream_id=stream)
                    for seq in range(4)
                ]
                if stream == 2:
                    # Same stream, another transfer's total, seq past
                    # the real one: must be dropped, not raise out of
                    # pump.run() and take the other pulls with it.
                    frames.insert(2, DataFrame(transfer_id=stream, seq=7,
                                               total=8, payload=b"x",
                                               stream_id=stream))
                for frame in frames:
                    server.sendto(encode(frame), client.sock.getsockname())
            pulls = pump.run(overall_timeout_s=10.0)
        finally:
            server.close()
        assert {s: (p.status, p.payload_ok) for s, p in pulls.items()} == {
            stream: ("ok", True) for stream in (1, 2, 3)
        }

    @pytest.mark.parametrize("body", [b'{"status": "ok"}', b"[]"])
    def test_malformed_verdict_is_ignored_like_corruption(self, body):
        # Valid JSON that is not a well-formed verdict (no seed; not an
        # object) used to raise KeyError / AttributeError out of
        # pump.run().  Now the request is simply retried to exhaustion.
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        pump = UdpClientPump(server.getsockname(), [4096] * 2,
                             pull_timeout_s=0.02, pull_retries=2)
        try:
            for client in pump.clients:
                stream = client.stream_id
                server.sendto(
                    encode(ControlFrame(transfer_id=stream, request_id=stream,
                                        body=body, stream_id=stream)),
                    client.sock.getsockname())
            pulls = pump.run(overall_timeout_s=10.0)
        finally:
            server.close()
        assert {s: p.status for s, p in pulls.items()} == {
            1: "no-response", 2: "no-response"}


class TestPumpHonoursTunedProtocol:
    def test_pump_builds_the_receiver_the_auto_server_announces(self):
        """Regression: the pump built its receiver from its own
        configured protocol and ignored the ``protocol`` key of the ok
        reply.  Once an auto-tuned server has seen loss it sends
        sliding/reno streams, whose sender waits for per-packet acks a
        blast receiver never gives: the pull stalled and the server
        reported it failed."""
        config = ServiceConfig(congestion="auto")
        service, thread = run_service(config)
        service.core._tuner.observe(data_frames_sent=100, retransmits=5)
        pump = UdpClientPump(service.address, [8192], recv_timeout_s=1.0)
        try:
            pulls = pump.run(overall_timeout_s=15.0)
        finally:
            service.stop()
            thread.join(timeout=25)
            report = json.loads(service.report_json())
            service.sock.close()
        assert [(p.status, p.payload_ok) for p in pulls.values()] == [
            ("ok", True)]
        # The tuner did switch protocols: only its sliding choice runs
        # under Reno.
        (transfer,) = report["transfers"]
        assert transfer["congestion"]["controller"] == "reno"
        assert report["summary"]["ok"] == 1
        assert report["summary"]["failed"] == 0


class ScriptedSocket:
    """A socket whose receive queue the test fills by hand.  ``on_empty``
    runs each time the server finds the queue empty — the moment after
    which a datagram can arrive unseen."""

    def __init__(self, real):
        self._real = real                   # a descriptor for the selector
        self.inbox = []
        self.sent = []
        self.on_empty = lambda: None

    def setblocking(self, flag):
        self._real.setblocking(flag)

    def setsockopt(self, level, option, value):
        self._real.setsockopt(level, option, value)

    def fileno(self):
        return self._real.fileno()

    def recvmsg_into(self, buffers, ancbufsize):
        if not self.inbox:
            self.on_empty()
            raise BlockingIOError
        datagram = self.inbox.pop(0)
        (buffer,) = buffers
        buffer[:len(datagram)] = datagram
        return len(datagram), [], 0, ("127.0.0.1", 40000)

    def sendmsg(self, buffers, ancdata, flags, address):
        self.sent += [bytes(buffer) for buffer in buffers]

    def sendto(self, payload, address):
        self.sent.append(bytes(payload))
        return len(payload)

    def close(self):
        self._real.close()


class TestPacketsThatFitOneDatagram:
    """Regression: a packet size no datagram can carry was accepted, and
    the first grant killed serve(): the codec refused a 70,000-byte
    payload, and sendto a 65,500-byte one behind its 27-byte header."""

    def test_payload_beyond_the_wire_format_rejected(self):
        with pytest.raises(ValueError, match="largest UDP datagram"):
            UdpTransferService(ServiceConfig(packet_bytes=70000))

    def test_header_pushing_past_the_udp_limit_rejected(self):
        with pytest.raises(ValueError, match="largest UDP datagram"):
            UdpTransferService(ServiceConfig(packet_bytes=65500))

    def test_largest_fitting_packet_is_served(self):
        packet = MAX_RUN_BYTES - HEADER2_BYTES
        service, thread = run_service(ServiceConfig(packet_bytes=packet))
        result = pull(service.address, 1, 3 * packet)
        thread.join(timeout=25)
        service.sock.close()
        assert result.ok and result.payload_ok


class TestStopTakesInWhatAlreadyArrived:
    def test_final_ack_delivered_before_stop_is_counted(self):
        """Regression: after ``stop()`` the loop flushed its grants but
        never read the socket again, so an ACK the kernel had already
        delivered was dropped and the report called a pull the client
        had verified unfinished ("447 ok of 448")."""
        service = UdpTransferService(ServiceConfig())
        sock = service.sock = ScriptedSocket(service.sock)
        pull = {"op": "pull", "size": 4096, "stream": 1}
        sock.inbox.append(encode(ControlFrame(
            transfer_id=0, request_id=1, body=json.dumps(pull).encode())))

        def ack_arrives_and_the_server_is_told_to_stop():
            if len(sock.sent) == 5 and not service._stop.is_set():
                # Verdict + four data frames are out; the client's ACK
                # lands just after this look at the queue, and SIGTERM
                # right behind it.
                sock.inbox.append(encode(AckFrame(transfer_id=1, seq=3,
                                                  stream_id=1)))
                service.stop()

        sock.on_empty = ack_arrives_and_the_server_is_told_to_stop
        try:
            assert service.serve(duration_s=5.0) is False
            report = json.loads(service.report_json())
        finally:
            service.close()
        assert not sock.inbox
        assert report["summary"]["ok"] == 1
        assert report["transfers"][0]["ok"] is True

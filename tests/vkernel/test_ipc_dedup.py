"""Explicit tests for the kernel IPC's exactly-once visible semantics."""

import pytest

from repro.sim import Environment
from repro.simnet import (
    NetworkParams,
    SilentCorruption,
    TraceRecorder,
    make_lan,
)
from repro.vkernel import VKernel

from ..faults.replay import drops


def build(error_model=None, send_timeout_s=0.05):
    env = Environment()
    host_a, host_b, medium = make_lan(
        env, NetworkParams.vkernel(), error_model=error_model
    )
    ka = VKernel(env, host_a, kernel_id=1, send_timeout_s=send_timeout_s)
    kb = VKernel(env, host_b, kernel_id=2, send_timeout_s=send_timeout_s)
    return env, ka, kb, medium


class TestDuplicateSuppression:
    def test_lost_reply_replayed_not_reexecuted(self):
        """Drop the first reply: the client's retransmitted request must
        get the *cached* reply; the server body runs exactly once."""
        # Wire order: request (frame 0), reply (frame 1) -> drop the reply.
        env, ka, kb, _ = build(error_model=drops(1))
        client = ka.create_process("client")
        server = kb.create_process("server")
        executions = []

        def server_body():
            while True:
                request = yield from kb.receive(server)
                executions.append(request.msg_id)
                yield from kb.reply(server, request, "result", len(executions))

        def client_body():
            reply = yield from ka.send(client, server.ref, "work")
            return reply

        env.process(server_body())
        proc = env.process(client_body())
        result = env.run(proc)
        assert result == ("result", 1)
        assert executions == [1]  # executed once despite the retry

    def test_duplicate_request_while_in_progress_dropped(self):
        """A duplicate arriving while the original is still being served
        is swallowed (no double delivery to the server mailbox)."""
        env, ka, kb, _ = build(send_timeout_s=0.02)
        client = ka.create_process("client")
        server = kb.create_process("server")
        deliveries = []

        def slow_server():
            request = yield from kb.receive(server)
            deliveries.append(request.msg_id)
            # Serve slowly: several client retries arrive meanwhile.
            yield env.timeout(0.2)
            yield from kb.reply(server, request, "done")

        def client_body():
            reply = yield from ka.send(client, server.ref, "slow")
            return reply

        env.process(slow_server())
        proc = env.process(client_body())
        assert env.run(proc) == ("done",)
        assert deliveries == [1]

    def test_distinct_requests_not_confused(self):
        env, ka, kb, _ = build()
        client = ka.create_process("client")
        server = kb.create_process("server")

        def echo_server():
            while True:
                request = yield from kb.receive(server)
                yield from kb.reply(server, request, *request.payload)

        def client_body():
            first = yield from ka.send(client, server.ref, "one")
            second = yield from ka.send(client, server.ref, "two")
            return first, second

        env.process(echo_server())
        proc = env.process(client_body())
        assert env.run(proc) == (("one",), ("two",))

    def test_message_to_unknown_process_retried_then_answered(self):
        """Messages to a not-yet-created process are dropped; once the
        process exists and receives, the retried request succeeds."""
        env, ka, kb, _ = build(send_timeout_s=0.02)
        client = ka.create_process("client")
        late_ref_holder = {}

        def late_server():
            yield env.timeout(0.1)  # process created late
            server = kb.create_process("late")
            late_ref_holder["ref"] = server.ref
            request = yield from kb.receive(server)
            yield from kb.reply(server, request, "finally")

        def client_body():
            # The pid the server *will* get (first process of kernel 2).
            from repro.vkernel import ProcessRef

            reply = yield from ka.send(client, ProcessRef(2, 1), "hello")
            return reply

        env.process(late_server())
        proc = env.process(client_body())
        assert env.run(proc) == ("finally",)
        assert env.now > 0.1


class TestCorruptedMessages:
    def test_silently_corrupted_message_is_dropped_not_a_crash(self):
        """Regression: silent corruption of an IPC message raised
        ``TypeError`` inside the medium, which XOR-ed the first payload
        byte — and a message's payload is a tuple of values.  With nothing
        to damage undetectably, the frame is dropped like a corrupted
        acknowledgement, and the Send keeps retrying."""
        env = Environment()
        trace = TraceRecorder()
        host_a, host_b, medium = make_lan(
            env, NetworkParams.vkernel(), error_model=SilentCorruption(1.0),
            trace=trace)
        ka = VKernel(env, host_a, kernel_id=1, send_timeout_s=0.05)
        kb = VKernel(env, host_b, kernel_id=2, send_timeout_s=0.05)
        client = ka.create_process("client")
        server = kb.create_process("server")
        proc = env.process(ka.send(client, server.ref, "work"))
        env.run(until=0.12)
        assert not proc.triggered  # every request attempt was lost
        assert medium.frames_transmitted == 3  # at 0, 0.05 and 0.10
        assert medium.frames_dropped == 3
        assert medium.frames_corrupted == 0
        assert [span.note for span in trace.drops()] \
            == ["corrupted control frame"] * 3


class TestMaxPacketFootnote:
    def test_1536_byte_packets_supported(self):
        """Paper footnote: 'The maximum packet size on the 10 megabit
        Ethernet is 1536 bytes' — the stack works at that packet size."""
        from repro.core import run_transfer

        params = NetworkParams.standalone(data_packet_bytes=1536)
        data = bytes(96 * 1024)
        result = run_transfer("blast", data, params=params)
        assert result.data_intact
        assert result.n_packets == 64  # 96 KB / 1.5 KB
        assert params.transmit_data_s == pytest.approx(1536 * 8 / 1e7)


class TestReplyOnTheRetransmitInstant:
    def test_reply_landing_on_the_retransmit_instant_is_kept(self):
        """Regression: a reply put in the mailbox at the very instant the
        Send's retransmit timer expired satisfied the get the Send then
        "cancelled" and vanished; the Send only completed a round trip
        later, on the server's *replayed* reply.  Now the reply stays in
        the mailbox: the timer did fire, so the request goes out once
        more, and the Send returns as soon as that is on the wire."""

        def exchange(send_timeout_s):
            env, ka, kb, medium = build(send_timeout_s=send_timeout_s)
            client = ka.create_process("client")
            server = kb.create_process("server")
            marks = {}
            real_get = client.mailbox.get

            def marking_get(*args, **kwargs):
                marks.setdefault("armed_at", env.now)
                return real_get(*args, **kwargs)

            client.mailbox.get = marking_get

            def server_body():
                while True:
                    request = yield from kb.receive(server)
                    yield from kb.reply(server, request, "done")

            def client_body():
                reply = yield from ka.send(client, server.ref, "work")
                marks["frames_on_wire"] = medium.frames_transmitted
                return reply

            env.process(server_body())
            assert env.run(env.process(client_body())) == ("done",)
            return marks["armed_at"], env.now, marks["frames_on_wire"]

        armed_at, replied_at, frames = exchange(send_timeout_s=1.0)
        assert frames == 2  # request, reply
        on_the_dot = replied_at - armed_at
        assert armed_at + on_the_dot == replied_at  # exact in floating point
        _, returned_at, frames = exchange(send_timeout_s=on_the_dot)
        assert frames == 3  # request, reply, the retransmission — no replay
        assert replied_at < returned_at < replied_at + on_the_dot

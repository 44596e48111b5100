"""Fault injection on the V-kernel IPC path and MoveTo bulk transfers.

Send/Reply messages and MoveTo blasts cross the same simulated wire, so
one :class:`ScriptedErrors` plan on the LAN faults both: a request is
``control``/``send``, a reply ``control``/``recv``, ``seq`` its message id.
"""

from repro.faults.plan import FaultPlan, FaultRule, frame_stream_key
from repro.faults.scripted import ScriptedErrors
from repro.sim import Environment
from repro.simnet import NetworkParams, make_lan
from repro.vkernel import VKernel
from repro.vkernel.messages import MessageFrame, MessageKind, ProcessRef


def _plan(*rules, name="t", seed=0):
    return FaultPlan(name=name, rules=tuple(rules), seed=seed)


def _frame(kind, msg_id=1):
    return MessageFrame(kind, ProcessRef(1, 1), ProcessRef(2, 1), msg_id, ("x",))


class TestIpcFramesOnTheWire:
    def test_requests_are_the_send_stream(self):
        errors = ScriptedErrors(
            _plan(FaultRule(action="drop", kinds=("control",), direction="send"))
        )
        assert errors.drops(_frame(MessageKind.SEND))
        assert not errors.drops(_frame(MessageKind.REPLY))
        assert errors.frames_seen == 2
        assert errors.faults_fired == 1

    def test_replies_are_the_recv_stream(self):
        errors = ScriptedErrors(
            _plan(FaultRule(action="drop", kinds=("control",), direction="recv"))
        )
        assert not errors.drops(_frame(MessageKind.SEND))
        assert errors.drops(_frame(MessageKind.REPLY))

    def test_seq_matches_message_id(self):
        assert frame_stream_key(_frame(MessageKind.REPLY, msg_id=3)) \
            == ("control", "recv", 3)
        errors = ScriptedErrors(
            _plan(FaultRule(action="drop", kinds=("control",), seqs=(3,)))
        )
        assert not errors.drops(_frame(MessageKind.SEND, msg_id=2))
        assert errors.drops(_frame(MessageKind.SEND, msg_id=3))

    def test_detectable_corruption_degrades_to_drop(self):
        errors = ScriptedErrors(
            _plan(FaultRule(action="corrupt", kinds=("control",), indices=(0,)))
        )
        frame = _frame(MessageKind.SEND)
        assert errors.drops(frame)
        assert not errors.corrupts(frame)

    def test_reorder_degrades_to_delay(self):
        errors = ScriptedErrors(
            _plan(
                FaultRule(action="reorder", kinds=("control",), indices=(0,), depth=5),
            ),
        )
        frame = _frame(MessageKind.SEND)
        assert not errors.drops(frame)
        assert errors.delay_s(frame) == 5 * 0.002  # 2 ms per overtaking frame


def _kernels(env, plan=None, send_timeout_s=0.05):
    """Two kernels on one LAN; ``plan`` (if any) replays on its wire."""
    error_model = None if plan is None else ScriptedErrors(plan)
    host_a, host_b, medium = make_lan(env, NetworkParams.vkernel(),
                                      error_model=error_model)
    ka = VKernel(env, host_a, kernel_id=1, send_timeout_s=send_timeout_s)
    kb = VKernel(env, host_b, kernel_id=2, send_timeout_s=send_timeout_s)
    return ka, kb, medium


def _rendezvous(env, ka, kb):
    """Run one Send/Receive/Reply exchange; returns (result, executions)."""
    client = ka.create_process("client")
    server = kb.create_process("server")
    executions = []

    def server_body():
        while True:
            request = yield from kb.receive(server)
            executions.append(request.msg_id)
            yield from kb.reply(server, request, "done", len(executions))

    def client_body():
        reply = yield from ka.send(client, server.ref, "work")
        return reply

    env.process(server_body())
    proc = env.process(client_body())
    return env.run(proc), executions


class TestRendezvousUnderFaults:
    def test_dropped_request_is_retried(self):
        env = Environment()
        ka, kb, medium = _kernels(env, _plan(
            FaultRule(action="drop", kinds=("control",),
                      direction="send", indices=(0,))))
        result, executions = _rendezvous(env, ka, kb)
        assert result == ("done", 1)
        assert executions == [1]  # retry delivered it exactly once
        assert medium.frames_dropped == 1
        assert env.now >= 0.05  # at least one retransmission interval

    def test_dropped_reply_replayed_from_cache(self):
        env = Environment()
        ka, kb, medium = _kernels(env, _plan(
            FaultRule(action="drop", kinds=("control",),
                      direction="recv", indices=(0,))))
        result, executions = _rendezvous(env, ka, kb)
        assert result == ("done", 1)
        # The server body ran once; the lost reply was replayed, not
        # re-executed.
        assert executions == [1]
        assert medium.frames_dropped == 1

    def test_duplicated_request_suppressed(self):
        env = Environment()
        ka, kb, medium = _kernels(env, _plan(
            FaultRule(action="duplicate", kinds=("control",),
                      direction="send", indices=(0,), count=2)))
        result, executions = _rendezvous(env, ka, kb)
        assert result == ("done", 1)
        assert executions == [1]  # duplicates swallowed by the dedup table
        assert medium.frames_duplicated == 2

    def test_delayed_request_still_completes(self):
        env = Environment()
        ka, kb, _ = _kernels(env, _plan(
            FaultRule(action="delay", kinds=("control",),
                      direction="send", indices=(0,), delay_s=0.02)))
        result, executions = _rendezvous(env, ka, kb)
        assert result == ("done", 1)
        assert executions == [1]
        assert env.now >= 0.02

    def test_faultless_hook_changes_nothing(self):
        # An empty plan in the LAN's error-model hooks: same reply at
        # the same simulated instant as a LAN with no error model.
        baseline_env = Environment()
        ka, kb, _ = _kernels(baseline_env)
        baseline, _ = _rendezvous(baseline_env, ka, kb)

        env = Environment()
        ka, kb, medium = _kernels(env, _plan())
        result, _ = _rendezvous(env, ka, kb)
        assert result == baseline
        assert env.now == baseline_env.now
        assert medium.frames_dropped == 0


class TestMoveUnderScriptedLan:
    def test_move_to_survives_scripted_data_loss(self):
        env = Environment()
        plan = _plan(
            FaultRule(action="drop", kinds=("data",), indices=(1,)),
            FaultRule(action="duplicate", kinds=("data",), indices=(3,)),
        )
        host_a, host_b, _ = make_lan(
            env, NetworkParams.vkernel(), error_model=ScriptedErrors(plan)
        )
        ka = VKernel(env, host_a, kernel_id=1)
        kb = VKernel(env, host_b, kernel_id=2)
        mover = ka.create_process("mover")
        sink = kb.create_process("sink")
        payload = bytes(range(256)) * 24  # 6 KB across the blast engine
        sink.allocate("inbox", len(payload))

        def body():
            result = yield from ka.move_to(
                mover, sink.ref, "inbox", payload, strategy="selective"
            )
            return result

        result = env.run(env.process(body()))
        assert result.ok
        assert sink.read_buffer("inbox") == payload
        assert result.stats.data_frames_sent > result.n_packets  # retransmitted

    def test_move_from_survives_scripted_reply_loss(self):
        env = Environment()
        plan = _plan(FaultRule(action="drop", kinds=("reply",), indices=(0,)))
        host_a, host_b, _ = make_lan(
            env, NetworkParams.vkernel(), error_model=ScriptedErrors(plan)
        )
        ka = VKernel(env, host_a, kernel_id=1)
        kb = VKernel(env, host_b, kernel_id=2)
        reader = ka.create_process("reader")
        source = kb.create_process("source")
        payload = bytes(reversed(range(256))) * 20
        source.write_buffer("outbox", payload)

        def body():
            data = yield from ka.move_from(reader, source.ref, "outbox")
            return data

        assert env.run(env.process(body())) == payload

"""Integration-style unit tests for medium/interface/host mechanics."""

from dataclasses import dataclass

import pytest

from repro.sim import Environment
from repro.simnet import (
    Activity,
    BernoulliErrors,
    DmaInterface,
    NetworkParams,
    TraceRecorder,
    make_lan,
)
from repro.simnet.params import CopyCostModel

from ..faults.replay import drops


@dataclass(frozen=True)
class Frame:
    """Minimal frame stub: the substrate only needs ``wire_bytes``."""

    wire_bytes: int
    label: str = ""


@pytest.fixture()
def env():
    return Environment()


def run_transfer(env, sender, receiver, frames, collect):
    """Drive a simple one-way push of ``frames`` and collect arrivals."""

    def tx():
        for frame in frames:
            yield from sender.send(frame)

    def rx():
        for _ in frames:
            frame = yield from receiver.receive()
            collect.append((frame, env.now))

    env.process(tx())
    proc = env.process(rx())
    env.run(proc)


class TestSingleFrameTiming:
    def test_one_frame_elapsed_time(self, env):
        """copy C + transmit T + propagation tau + copy-out C."""
        params = NetworkParams.standalone()
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace)
        got = []
        run_transfer(env, a, b, [Frame(1024)], got)
        expected = (
            params.copy_data_s
            + params.transmit_data_s
            + params.propagation_delay_s
            + params.copy_data_s
        )
        assert got[0][1] == pytest.approx(expected, rel=1e-12)

    def test_trace_records_all_phases(self, env):
        trace = TraceRecorder()
        a, b, _ = make_lan(env, trace=trace)
        run_transfer(env, a, b, [Frame(1024)], [])
        assert len(trace.by_kind(Activity.COPY_IN, "sender")) == 1
        assert len(trace.by_kind(Activity.TRANSMIT, "sender")) == 1
        assert len(trace.by_kind(Activity.COPY_OUT, "receiver")) == 1

    def test_device_latency_charged_per_frame(self, env):
        params = NetworkParams.standalone(observed=True)
        a, b, _ = make_lan(env, params)
        got = []
        run_transfer(env, a, b, [Frame(1024)], got)
        expected = (
            params.copy_data_s
            + params.transmit_data_s
            + params.propagation_delay_s
            + params.device_latency_s
            + params.copy_data_s
        )
        assert got[0][1] == pytest.approx(expected, rel=1e-12)


class TestBuffering:
    def test_single_buffer_serialises_copy_and_transmit(self, env):
        """3-Com model: per-packet sender cycle is exactly C+T."""
        params = NetworkParams.standalone(propagation_delay_s=0.0)
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace)
        run_transfer(env, a, b, [Frame(1024) for _ in range(3)], [])
        copies = trace.by_kind(Activity.COPY_IN, "sender")
        cycle = params.copy_data_s + params.transmit_data_s
        starts = [span.start for span in copies]
        assert starts == pytest.approx([0.0, cycle, 2 * cycle])

    def test_double_buffer_overlaps_copy_with_transmit(self, env):
        """Figure 3.d: with C > T the sender's copies run back-to-back."""
        params = NetworkParams.standalone(
            propagation_delay_s=0.0
        ).with_double_buffering()
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace)
        run_transfer(env, a, b, [Frame(1024) for _ in range(3)], [])
        copies = trace.by_kind(Activity.COPY_IN, "sender")
        C = params.copy_data_s
        assert [span.start for span in copies] == pytest.approx([0.0, C, 2 * C])

    def test_triple_buffer_no_better_than_double(self, env):
        """The paper: a third buffer adds nothing when C and T are constant."""
        results = {}
        for n_buf in (2, 3):
            env_n = Environment()
            params = NetworkParams.standalone(tx_buffers=n_buf, busy_wait=False)
            a, b, _ = make_lan(env_n, params)
            got = []
            run_transfer(env_n, a, b, [Frame(1024) for _ in range(8)], got)
            results[n_buf] = got[-1][1]
        assert results[3] == pytest.approx(results[2], rel=1e-12)

    def test_rx_overrun_drops_frame(self, env):
        """A burst into a 1-buffer receiver that never drains overruns."""
        params = NetworkParams.standalone(rx_buffers=1)
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace)

        def tx():
            for _ in range(3):
                yield from a.send(Frame(1024))

        env.process(tx())
        env.run()  # receiver never drains its rx store
        assert b.interface.rx_overruns == 2
        overruns = [s for s in trace.drops() if s.note == "rx overrun"]
        assert len(overruns) == 2


class TestErrorsOnTheWire:
    def test_deterministic_drop_loses_scripted_frame(self, env):
        a, b, medium = make_lan(
            env, NetworkParams.standalone(), error_model=drops(1)
        )
        frames = [Frame(1024, label=f"f{i}") for i in range(3)]

        def tx():
            for frame in frames:
                yield from a.send(frame)

        got = []

        def rx():
            for _ in range(2):  # only two will arrive
                frame = yield from b.receive()
                got.append(frame.label)

        env.process(tx())
        proc = env.process(rx())
        env.run(proc)
        assert got == ["f0", "f2"]
        assert (medium.frames_dropped, medium.frames_transmitted) == (1, 3)

    def test_bernoulli_loss_rate_observed(self, env):
        a, b, medium = make_lan(
            env,
            NetworkParams.standalone(),
            error_model=BernoulliErrors(0.2, seed=3),
        )

        def tx():
            for _ in range(2000):
                yield from a.send(Frame(64))

        env.process(tx())
        env.run()
        assert medium.frames_dropped / medium.frames_transmitted == pytest.approx(
            0.2, abs=0.03)

    def test_receive_timeout_returns_none(self, env):
        a, b, _ = make_lan(env, NetworkParams.standalone())

        def rx():
            frame = yield from b.receive(timeout_s=0.01)
            return frame

        proc = env.process(rx())
        assert env.run(proc) is None
        assert env.now == pytest.approx(0.01)

    def test_receive_timeout_cancel_does_not_steal_later_frame(self, env):
        a, b, _ = make_lan(env, NetworkParams.standalone())
        outcome = {}

        def rx():
            first = yield from b.receive(timeout_s=0.001)
            outcome["first"] = first
            second = yield from b.receive(timeout_s=1.0)
            outcome["second"] = second

        def tx():
            yield env.timeout(0.01)
            yield from a.send(Frame(1024, label="late"))

        env.process(tx())
        proc = env.process(rx())
        env.run(proc)
        assert outcome["first"] is None
        assert outcome["second"].label == "late"

    def test_frame_arriving_at_the_deadline_is_delivered(self, env):
        """Regression: a frame delivered at the very instant a receive
        expired satisfied the get the receive then "cancelled", so it was
        neither returned, nor left buffered, nor counted as a drop, and
        the next receive timed out.  "Arrives at the deadline" means
        delivered: here the deadline is processed first, so the frame
        stays buffered and the next receive returns it at once."""
        params = NetworkParams.standalone()
        a, b, _ = make_lan(env, params)
        arrival = ((params.copy_model.copy_time(1024)
                    + params.transmission_time(1024))
                   + params.propagation_delay_s)
        outcome = {}

        def tx():
            yield from a.send(Frame(1024, label="on the dot"))

        def rx():
            outcome["first"] = yield from b.receive(timeout_s=arrival)
            outcome["expired_at"] = env.now
            outcome["buffered"] = len(b.interface.rx_store)
            outcome["second"] = yield from b.receive(timeout_s=1.0)

        env.process(tx())
        env.run(env.process(rx()))
        assert outcome["expired_at"] == arrival
        assert b.interface.frames_received == 1
        assert (outcome["first"], outcome["buffered"]) == (None, 1)
        assert outcome["second"].label == "on the dot"
        assert env.now == arrival + params.copy_model.copy_time(1024)


class TestWireSharing:
    def test_wire_serialises_simultaneous_transmissions(self, env):
        """Two hosts transmitting together: second defers (carrier sense)."""
        params = NetworkParams.standalone(propagation_delay_s=0.0)
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace)

        def tx(host, frame):
            yield from host.send(frame)

        env.process(tx(a, Frame(1024)))
        env.process(tx(b, Frame(1024)))
        env.run()
        transmissions = sorted(
            trace.by_kind(Activity.TRANSMIT), key=lambda s: s.start
        )
        assert len(transmissions) == 2
        # No overlap on the shared wire.
        assert transmissions[1].start >= transmissions[0].end


class TestDmaInterface:
    def test_dma_frees_host_cpu(self, env):
        """With DMA, host CPU copy time is zero; elapsed time unchanged."""
        params = NetworkParams.standalone()
        trace = TraceRecorder()
        a, b, _ = make_lan(env, params, trace=trace, interface_cls=DmaInterface)
        got = []
        run_transfer(env, a, b, [Frame(1024)], got)
        # Copies still happen (trace shows them) but on the DMA processor;
        # host CPUs were never requested.
        assert trace.total_time(Activity.COPY_IN, "sender") > 0
        assert a.cpu.count == 0 and a.cpu.queued == 0
        expected = (
            params.copy_data_s
            + params.transmit_data_s
            + params.propagation_delay_s
            + params.copy_data_s
        )
        assert got[0][1] == pytest.approx(expected)

    def test_slow_dma_processor_hurts_elapsed_time(self, env):
        """The paper's Excelan observation: a slow 8088 copy is worse."""
        slow_copy = CopyCostModel(setup_s=0.2e-3, bytes_per_second=400_000)
        params = NetworkParams.standalone()
        a, b, _ = make_lan(
            env,
            params,
            interface_cls=DmaInterface,
            dma_copy_model=slow_copy,
        )
        got = []
        run_transfer(env, a, b, [Frame(1024)], got)
        fast_time = 2 * params.copy_data_s + params.transmit_data_s
        assert got[0][1] > fast_time

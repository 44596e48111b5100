"""Trace-level validation of the copy-overlap mechanism (paper Figure 3)
and the Table 2 component breakdown."""

import pytest

from repro.core import run_transfer
from repro.simnet import Activity, NetworkParams, TraceRecorder

N = 8
DATA = bytes(N * 1024)
PARAMS = NetworkParams.standalone(propagation_delay_s=0.0)


def traced_run(protocol, params=PARAMS, data=DATA, **kwargs):
    trace = TraceRecorder()
    result = run_transfer(protocol, data, params=params, trace=trace, **kwargs)
    return result, trace


class TestCopyOverlap:
    """The quantitative heart of the paper: blast and sliding window run
    the two processors' copies in parallel; stop-and-wait never does."""

    def test_stop_and_wait_has_zero_overlap(self):
        _, trace = traced_run("stop_and_wait")
        assert trace.copy_overlap("sender", "receiver") == pytest.approx(0.0)

    def test_blast_overlap_is_n_minus_one_copies(self):
        """Each of the receiver's first N-1 copy-outs fully overlaps the
        sender's next copy-in (copy-out starts when copy-in does, both
        last C)."""
        _, trace = traced_run("blast")
        expected = (N - 1) * PARAMS.copy_data_s
        assert trace.copy_overlap("sender", "receiver") == pytest.approx(
            expected, rel=0.05
        )

    def test_sliding_window_overlap_substantial(self):
        _, trace = traced_run("sliding_window")
        overlap = trace.copy_overlap("sender", "receiver")
        assert overlap > (N - 2) * PARAMS.copy_data_s

    def test_blast_busy_times_balanced(self):
        """Sender and receiver do symmetric work in a blast: N data copies
        plus one ack copy each."""
        _, trace = traced_run("blast")
        expected = N * PARAMS.copy_data_s + PARAMS.copy_ack_s
        assert trace.busy_time("sender") == pytest.approx(expected, rel=1e-9)
        assert trace.busy_time("receiver") == pytest.approx(expected, rel=1e-9)

    def test_ascii_timeline_renders(self):
        _, trace = traced_run("blast", data=bytes(3 * 1024))
        art = trace.render_ascii(width=60)
        assert "sender copy_in" in art
        assert "receiver copy_out" in art


class TestTable2Breakdown:
    """Regenerate the paper's Table 2: the cost components of a 1-packet
    exchange, measured from the simulation trace."""

    def test_components(self):
        _, trace = traced_run("stop_and_wait", data=bytes(1024))
        sender_copy_in = trace.total_time(Activity.COPY_IN, "sender")
        receiver_copy_out = trace.total_time(Activity.COPY_OUT, "receiver")
        receiver_copy_in = trace.total_time(Activity.COPY_IN, "receiver")
        sender_copy_out = trace.total_time(Activity.COPY_OUT, "sender")
        transmits = trace.by_kind(Activity.TRANSMIT)
        data_tx = [s for s in transmits if s.actor == "sender"]
        ack_tx = [s for s in transmits if s.actor == "receiver"]
        # Paper Table 2 rows (ms): 1.35, 0.82, 1.35, 0.17, 0.05, 0.17.
        assert sender_copy_in == pytest.approx(1.35e-3, abs=1e-5)
        assert data_tx[0].duration == pytest.approx(0.82e-3, abs=1e-5)
        assert receiver_copy_out == pytest.approx(1.35e-3, abs=1e-5)
        assert receiver_copy_in == pytest.approx(0.17e-3, abs=1e-5)
        assert ack_tx[0].duration == pytest.approx(0.05e-3, abs=1e-5)
        assert sender_copy_out == pytest.approx(0.17e-3, abs=1e-5)

    def test_total_matches_sum_of_components(self):
        result, trace = traced_run("stop_and_wait", data=bytes(1024))
        total = sum(trace.breakdown().values())
        assert result.elapsed_s == pytest.approx(total, rel=1e-9)

    def test_copying_is_three_quarters_of_elapsed_time(self):
        """Paper: 'only 21 percent is network transmission time, while 75
        percent is copying overhead'."""
        result, trace = traced_run("stop_and_wait", data=bytes(1024))
        copying = trace.busy_time("sender") + trace.busy_time("receiver")
        transmitting = trace.total_time(Activity.TRANSMIT)
        assert copying / result.elapsed_s == pytest.approx(0.78, abs=0.03)
        assert transmitting / result.elapsed_s == pytest.approx(0.22, abs=0.03)


class TestDropTracing:
    def test_channel_loss_recorded(self):
        from ..faults import replay

        trace = TraceRecorder()
        result = run_transfer(
            "blast", DATA, params=PARAMS, trace=trace,
            error_model=replay.drops(2), strategy="gobackn",
        )
        assert result.data_intact
        drops = trace.drops()
        assert len(drops) == 1
        assert drops[0].note == "channel loss"
        assert drops[0].actor == "receiver"

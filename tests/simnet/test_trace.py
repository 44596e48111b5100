"""Unit tests for trace recording and interval algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Activity, Span, TraceRecorder, total_overlap


class TestSpan:
    def test_duration(self):
        assert Span(Activity.COPY_IN, "a", 1.0, 3.5).duration == 2.5

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            Span(Activity.COPY_IN, "a", 2.0, 1.0)

    def test_zero_length_allowed(self):
        assert Span(Activity.DROP, "a", 1.0, 1.0).duration == 0.0


class TestTotalOverlap:
    def test_disjoint(self):
        assert total_overlap([(0, 1)], [(2, 3)]) == 0.0

    def test_nested(self):
        assert total_overlap([(0, 10)], [(2, 4)]) == 2.0

    def test_partial(self):
        assert total_overlap([(0, 5)], [(3, 8)]) == 2.0

    def test_multiple_intervals(self):
        assert total_overlap([(0, 2), (4, 6)], [(1, 5)]) == pytest.approx(2.0)

    def test_self_overlapping_input_merged(self):
        # (0,3) and (2,5) merge to (0,5): overlap with (0,5) is 5, not more.
        assert total_overlap([(0, 3), (2, 5)], [(0, 5)]) == pytest.approx(5.0)

    def test_empty_inputs(self):
        assert total_overlap([], [(0, 1)]) == 0.0
        assert total_overlap([], []) == 0.0

    @given(
        a=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda t: (min(t), max(t))
            ),
            max_size=8,
        ),
        b=st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda t: (min(t), max(t))
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100)
    def test_symmetry_and_bounds(self, a, b):
        forward = total_overlap(a, b)
        backward = total_overlap(b, a)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert forward >= 0.0
        assert forward <= sum(hi - lo for lo, hi in a) + 1e-9
        assert forward <= sum(hi - lo for lo, hi in b) + 1e-9


class TestTraceRecorder:
    def test_record_and_query(self):
        trace = TraceRecorder()
        trace.record(Activity.COPY_IN, "sender", 0.0, 1.0)
        trace.record(Activity.TRANSMIT, "sender", 1.0, 2.0)
        trace.record(Activity.COPY_OUT, "receiver", 2.0, 3.0)
        assert trace.total_time(Activity.COPY_IN) == 1.0
        assert trace.total_time(Activity.COPY_IN, "receiver") == 0.0
        assert trace.actors() == ["sender", "receiver"]
        assert trace.end_time == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record("teleport", "a", 0, 1)

    def test_breakdown(self):
        trace = TraceRecorder()
        trace.record(Activity.COPY_IN, "s", 0.0, 1.35)
        trace.record(Activity.TRANSMIT, "s", 1.35, 2.17)
        trace.record(Activity.COPY_OUT, "r", 2.17, 3.52)
        breakdown = trace.breakdown()
        assert breakdown[Activity.COPY_IN] == pytest.approx(1.35)
        assert breakdown[Activity.TRANSMIT] == pytest.approx(0.82)
        assert breakdown[Activity.COPY_OUT] == pytest.approx(1.35)

    def test_copy_overlap(self):
        trace = TraceRecorder()
        trace.record(Activity.COPY_IN, "sender", 0.0, 2.0)
        trace.record(Activity.COPY_OUT, "receiver", 1.0, 3.0)
        assert trace.copy_overlap("sender", "receiver") == pytest.approx(1.0)

    def test_busy_time_sums_copies_only(self):
        trace = TraceRecorder()
        trace.record(Activity.COPY_IN, "s", 0.0, 1.0)
        trace.record(Activity.COPY_OUT, "s", 2.0, 2.5)
        trace.record(Activity.TRANSMIT, "s", 1.0, 2.0)  # wire, not CPU
        assert trace.busy_time("s") == pytest.approx(1.5)

    def test_drops_query(self):
        trace = TraceRecorder()
        trace.record(Activity.DROP, "r", 1.0, 1.0, note="channel loss")
        trace.record(Activity.COPY_IN, "s", 0.0, 1.0)
        assert len(trace.drops()) == 1
        assert trace.drops()[0].note == "channel loss"

    def test_render_ascii_empty(self):
        assert TraceRecorder().render_ascii() == "(empty trace)"

    def test_render_ascii_contains_rows(self):
        trace = TraceRecorder()
        trace.record(Activity.COPY_IN, "sender", 0.0, 1.0)
        trace.record(Activity.TRANSMIT, "sender", 1.0, 2.0)
        art = trace.render_ascii(width=40)
        assert "sender copy_in" in art
        assert "#" in art
        assert "=" in art

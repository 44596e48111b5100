"""Unit and property tests for the receiver tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReceiverTracker


class TestTrackerBasics:
    def test_starts_empty(self):
        tracker = ReceiverTracker(4)
        assert tracker.received == set()
        assert not tracker.is_complete
        assert tracker.report().first_missing == 0
        assert tracker.missing() == (0, 1, 2, 3)

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            ReceiverTracker(0)

    def test_add_returns_new_flag(self):
        tracker = ReceiverTracker(4)
        assert tracker.add(2) is True
        assert tracker.add(2) is False
        assert tracker.duplicates == 1

    def test_add_out_of_range(self):
        tracker = ReceiverTracker(4)
        with pytest.raises(ValueError):
            tracker.add(4)
        with pytest.raises(ValueError):
            tracker.add(-1)

    def test_completion(self):
        tracker = ReceiverTracker(3)
        for seq in (2, 0, 1):
            tracker.add(seq)
        assert tracker.is_complete
        assert tracker.report().first_missing is None
        assert tracker.missing() == ()

    def test_first_missing_moves_forward(self):
        tracker = ReceiverTracker(5)
        tracker.add(0)
        tracker.add(1)
        tracker.add(3)
        assert tracker.report().first_missing == 2
        tracker.add(2)
        assert tracker.report().first_missing == 4

    def test_received_is_the_set_of_arrivals(self):
        tracker = ReceiverTracker(4)
        tracker.add(1)
        tracker.add(1)
        assert tracker.received == {1}


class TestReports:
    def test_incomplete_report(self):
        tracker = ReceiverTracker(4)
        tracker.add(0)
        tracker.add(3)
        report = tracker.report()
        assert not report.complete
        assert report.first_missing == 1
        assert report.missing == (1, 2)
        assert report.total == 4

    def test_complete_report(self):
        tracker = ReceiverTracker(2)
        tracker.add(0)
        tracker.add(1)
        report = tracker.report()
        assert report.complete
        assert report.first_missing is None
        assert report.missing == ()

    @given(total=st.integers(1, 200), data=st.data())
    @settings(max_examples=100)
    def test_invariants(self, total, data):
        arrivals = data.draw(
            st.lists(st.integers(0, total - 1), max_size=3 * total)
        )
        tracker = ReceiverTracker(total)
        new_count = sum(tracker.add(seq) for seq in arrivals)
        # received + missing partition the sequence space.
        assert len(tracker.received) + len(tracker.missing()) == total
        assert new_count == len(tracker.received) == len(set(arrivals))
        assert tracker.duplicates == len(arrivals) - len(set(arrivals))
        assert tracker.is_complete == (set(arrivals) == set(range(total)))
        missing = tracker.missing()
        assert list(missing) == sorted(missing)
        if missing:
            assert tracker.report().first_missing == missing[0]

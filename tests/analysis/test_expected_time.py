"""Tests for expected-time-under-loss formulas (paper §3.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    expected_time_blast,
    expected_time_saw,
    mean_retries,
    p_fail_blast,
    p_fail_saw_exchange,
)

# Figure 5 parameters from the paper (V-kernel level).
D = 64
T0_1 = 5.9e-3
T0_D = 173e-3


class TestFailureProbabilities:
    def test_saw_exchange_failure(self):
        assert p_fail_saw_exchange(0.0) == 0.0
        assert p_fail_saw_exchange(1.0) == 1.0
        assert p_fail_saw_exchange(0.1) == pytest.approx(1 - 0.81)

    def test_blast_failure(self):
        assert p_fail_blast(0.0, 64) == 0.0
        assert p_fail_blast(1.0, 64) == 1.0
        assert p_fail_blast(0.01, 9) == pytest.approx(1 - 0.99**10)

    def test_blast_failure_grows_with_d(self):
        probs = [p_fail_blast(1e-4, d) for d in (1, 8, 64, 512)]
        assert probs == sorted(probs)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_fail_saw_exchange(-0.1)
        with pytest.raises(ValueError):
            p_fail_blast(0.5, 0)

    @given(pn=st.floats(0.0, 1.0), d=st.integers(1, 200))
    @settings(max_examples=80)
    def test_blast_failure_at_least_single_frame(self, pn, d):
        assert p_fail_blast(pn, d) >= pn - 1e-12


class TestRetries:
    def test_no_errors_no_retries(self):
        assert mean_retries(0.0) == 0.0

    def test_certain_failure_infinite(self):
        assert mean_retries(1.0) == math.inf

    def test_half_failure_one_retry(self):
        assert mean_retries(0.5) == pytest.approx(1.0)


class TestExpectedTimes:
    def test_zero_loss_is_error_free_time(self):
        assert expected_time_saw(D, T0_1, 10 * T0_1, 0.0) == pytest.approx(D * T0_1)
        assert expected_time_blast(D, T0_D, T0_D, 0.0) == pytest.approx(T0_D)

    def test_blast_beats_saw_at_lan_error_rates(self):
        """Figure 5: over p_n in [1e-5, 1e-4], blast wins decisively."""
        for pn in (1e-6, 1e-5, 1e-4):
            saw = expected_time_saw(D, T0_1, 10 * T0_1, pn)
            blast = expected_time_blast(D, T0_D, T0_D, pn)
            assert blast < saw
            # At these rates SAW is dominated by D x T0(1) ~= 378 ms vs 173.
            assert saw / blast > 1.8

    def test_blast_flat_region_at_network_error_rate(self):
        """At p_n = 1e-5, blast's expected time is ~ its error-free time."""
        blast = expected_time_blast(D, T0_D, T0_D, 1e-5)
        assert blast == pytest.approx(T0_D, rel=0.01)

    def test_blast_knee_at_interface_error_rate(self):
        """At p_n = 1e-4 (interface errors) the knee begins: a small but
        visible penalty, yet expected time still clearly better than SAW."""
        blast = expected_time_blast(D, T0_D, T0_D, 1e-4)
        assert 1.005 < blast / T0_D < 1.05

    def test_saw_retry_interval_matters_more_at_high_pn(self):
        slow = expected_time_saw(D, T0_1, 100 * T0_1, 1e-3)
        fast = expected_time_saw(D, T0_1, 10 * T0_1, 1e-3)
        assert slow > fast
        # And at negligible pn they coincide.
        assert expected_time_saw(D, T0_1, 100 * T0_1, 1e-9) == pytest.approx(
            expected_time_saw(D, T0_1, 10 * T0_1, 1e-9), rel=1e-6
        )

    def test_monotone_in_pn(self):
        pns = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        blast = [expected_time_blast(D, T0_D, T0_D, pn) for pn in pns]
        saw = [expected_time_saw(D, T0_1, 10 * T0_1, pn) for pn in pns]
        assert blast == sorted(blast)
        assert saw == sorted(saw)

    def test_d_one_blast_equals_saw_with_same_inputs(self):
        """For a single packet the two formulas coincide structurally."""
        t_saw = expected_time_saw(1, T0_1, 5 * T0_1, 1e-3)
        t_blast = expected_time_blast(1, T0_1, 5 * T0_1, 1e-3)
        assert t_saw == pytest.approx(t_blast)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            expected_time_saw(0, T0_1, T0_1, 0.1)
        with pytest.raises(ValueError):
            expected_time_blast(0, T0_D, T0_D, 0.1)

    @given(
        pn=st.floats(0.0, 0.5),
        d=st.integers(1, 128),
        tr_factor=st.floats(0.1, 100.0),
    )
    @settings(max_examples=80)
    def test_expected_time_at_least_error_free(self, pn, d, tr_factor):
        t0 = 173e-3
        assert expected_time_blast(d, t0, tr_factor * t0, pn) >= t0 - 1e-12

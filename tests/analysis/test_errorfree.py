"""Tests for the closed-form error-free transfer times (paper §2.1.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    network_utilization,
    t_blast,
    t_double_buffered,
    t_single_exchange,
    t_sliding_window,
    t_stop_and_wait,
)
from repro.simnet import NetworkParams
from repro.simnet.params import CopyCostModel


@pytest.fixture()
def zero_latency():
    """Paper formulas ignore tau; this parameter set makes them literal."""
    return NetworkParams.standalone(propagation_delay_s=0.0)


class TestPaperAnchors:
    def test_single_exchange_accounted_total(self, zero_latency):
        """Table 2: the accounted 1-packet exchange is 3.91 ms."""
        assert t_single_exchange(zero_latency) == pytest.approx(3.91e-3, abs=1e-5)

    def test_single_exchange_observed_total(self):
        """Table 2: observed elapsed time is 4.08 ms (device latency)."""
        params = NetworkParams.standalone(observed=True, propagation_delay_s=0.0)
        assert t_single_exchange(params) == pytest.approx(4.08e-3, abs=1e-5)

    def test_vkernel_single_exchange(self):
        """Figure 5 parameters: T0(1) = 5.9 ms at the kernel level."""
        params = NetworkParams.vkernel()
        assert t_single_exchange(params) == pytest.approx(5.9e-3, abs=0.05e-3)

    def test_vkernel_blast_64(self):
        """Figure 5 parameters: T0(D=64) = 173 ms at the kernel level."""
        params = NetworkParams.vkernel()
        assert t_blast(64, params) == pytest.approx(173e-3, abs=1e-3)

    def test_utilization_38_percent_for_64k(self, zero_latency):
        """Paper: 'the network utilization is only 38 percent' at N=64."""
        assert network_utilization(64, zero_latency) == pytest.approx(0.38, abs=0.01)

    def test_intro_wire_only_estimates(self):
        """§2.1's naive wire-time arithmetic: T=820 us, Ta=51 us, tau<10 us."""
        p = NetworkParams.standalone()
        assert p.transmit_data_s * 1e6 == pytest.approx(820, abs=1)
        assert p.transmit_ack_s * 1e6 == pytest.approx(51, abs=1)
        assert p.propagation_delay_s <= 10e-6


class TestOrderings:
    @pytest.mark.parametrize("n", [3, 4, 16, 64, 256])
    def test_blast_fastest_then_sw_then_saw(self, n, zero_latency):
        blast = t_blast(n, zero_latency)
        sw = t_sliding_window(n, zero_latency)
        saw = t_stop_and_wait(n, zero_latency)
        assert blast < sw < saw

    def test_small_n_crossover_between_blast_and_sw(self, zero_latency):
        """T_SW - T_B = (N-2) x Ca: sliding window is marginally ahead for
        a single packet (one fewer ack copy), they tie at N=2, and blast
        wins beyond — the large-transfer regime the paper is about."""
        ca = zero_latency.copy_ack_s
        for n in (1, 2, 3, 8):
            gap = t_sliding_window(n, zero_latency) - t_blast(n, zero_latency)
            assert gap == pytest.approx((n - 2) * ca, abs=1e-12)

    def test_saw_roughly_twice_blast_at_64(self, zero_latency):
        """The headline measurement: SAW takes about twice blast's time."""
        ratio = t_stop_and_wait(64, zero_latency) / t_blast(64, zero_latency)
        assert 1.6 < ratio < 2.0

    def test_sw_within_ten_percent_of_blast(self, zero_latency):
        """'Sliding window protocols are slightly inferior to blast.'"""
        ratio = t_sliding_window(64, zero_latency) / t_blast(64, zero_latency)
        assert 1.0 < ratio < 1.1

    def test_double_buffering_beats_single(self, zero_latency):
        for n in (1, 8, 64):
            assert t_double_buffered(n, zero_latency) < t_blast(n, zero_latency)

    def test_double_buffered_wire_bound_branch(self):
        """With copies faster than the wire, dbuf is wire-limited (N x T)."""
        fast_copy = CopyCostModel(setup_s=10e-6, bytes_per_second=50e6)
        params = NetworkParams.standalone(
            copy_model=fast_copy, propagation_delay_s=0.0
        )
        assert params.copy_data_s < params.transmit_data_s
        n = 100
        expected = (
            n * params.transmit_data_s
            + 2 * params.copy_data_s
            + 2 * params.copy_ack_s
            + params.transmit_ack_s
        )
        assert t_double_buffered(n, params) == pytest.approx(expected)


class TestStructure:
    def test_formulas_linear_in_n(self, zero_latency):
        """All protocol times are affine in N; slopes match the paper."""
        p = zero_latency
        for fn, slope in [
            (t_stop_and_wait, 2 * p.copy_data_s + p.transmit_data_s
             + 2 * p.copy_ack_s + p.transmit_ack_s),
            (t_blast, p.copy_data_s + p.transmit_data_s),
            (t_sliding_window, p.copy_data_s + p.copy_ack_s + p.transmit_data_s),
            (t_double_buffered, p.copy_data_s),
        ]:
            measured = (fn(40, p) - fn(8, p)) / 32
            assert measured == pytest.approx(slope, rel=1e-12)

    def test_invalid_n_rejected(self, zero_latency):
        for fn in (t_stop_and_wait, t_blast, t_sliding_window,
                   t_double_buffered, network_utilization):
            with pytest.raises(ValueError):
                fn(0, zero_latency)

    def test_default_params_used_when_omitted(self):
        assert t_blast(4) == t_blast(4, NetworkParams.standalone())

    @given(n=st.integers(1, 500))
    @settings(max_examples=60)
    def test_utilization_bounded(self, n):
        u = network_utilization(n)
        assert 0.0 < u < 1.0

    @given(n=st.integers(1, 500))
    @settings(max_examples=60)
    def test_dbuf_never_beats_wire_or_copy_bound(self, n):
        """Double buffering cannot beat max(copy, wire) pipelining bounds."""
        p = NetworkParams.standalone(propagation_delay_s=0.0)
        lower = n * max(p.copy_data_s, p.transmit_data_s)
        assert t_double_buffered(n, p) > lower

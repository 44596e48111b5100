"""Stochastic cross-validation: DES engines vs Monte Carlo vs closed forms.

Three independently built models of the same protocols — the mechanistic
discrete-event engines, the paper-style abstract Monte Carlo, and the
closed forms — must agree on means (and qualitatively on spreads).
"""

import pytest

from repro.analysis import (
    expected_time_blast,
    expected_time_saw,
    run_trials,
    t_blast,
    t_single_exchange,
)
from repro.core import run_many
from repro.simnet import NetworkParams

PARAMS = NetworkParams.standalone()
D = 16
DATA = bytes(D * 1024)


class TestBlastFullRetransmission:
    def test_des_mean_matches_closed_form(self):
        """DES blast/full_no_nak vs E[T] = T0 + (T0+Tr) pc/(1-pc).

        The closed form assumes rounds are independent (no cross-round
        accumulation at the receiver); for full retransmission the DES
        receiver does accumulate, which can only make it slightly faster.
        """
        pn = 0.01
        t0 = t_blast(D, PARAMS)
        tr = t0  # engine default timeout equals T0(D)
        des = run_many(
            "blast", DATA, error_p=pn, n_runs=150, seed=11,
            params=PARAMS, strategy="full_no_nak",
        )
        predicted = expected_time_blast(D, t0, tr, pn)
        assert des.all_intact
        assert des.mean_s == pytest.approx(predicted, rel=0.15)
        assert des.mean_s <= predicted * 1.05  # accumulation helps, not hurts

    def test_des_matches_montecarlo_gobackn(self):
        pn = 0.01
        des = run_many(
            "blast", DATA, error_p=pn, n_runs=150, seed=12,
            params=PARAMS, strategy="gobackn",
        )
        mc = run_trials(
            "gobackn", D, pn, n_trials=20_000,
            t_retry=t_blast(D, PARAMS), params=PARAMS, seed=12,
            t_retry_last=t_single_exchange(PARAMS),
        )
        assert des.mean_s == pytest.approx(mc.mean_s, rel=0.05)

    def test_des_matches_montecarlo_selective(self):
        pn = 0.01
        des = run_many(
            "blast", DATA, error_p=pn, n_runs=150, seed=13,
            params=PARAMS, strategy="selective",
        )
        mc = run_trials(
            "selective", D, pn, n_trials=20_000,
            t_retry=t_blast(D, PARAMS), params=PARAMS, seed=13,
            t_retry_last=t_single_exchange(PARAMS),
        )
        assert des.mean_s == pytest.approx(mc.mean_s, rel=0.05)


class TestStopAndWaitUnderLoss:
    def test_des_mean_matches_closed_form(self):
        pn = 0.01
        t0 = t_single_exchange(PARAMS)
        des = run_many(
            "stop_and_wait", DATA, error_p=pn, n_runs=150, seed=14, params=PARAMS,
        )
        predicted = expected_time_saw(D, t0, t0, pn)  # engine default Tr = T0(1)
        assert des.all_intact
        assert des.mean_s == pytest.approx(predicted, rel=0.1)

    def test_montecarlo_mean_matches_closed_form(self):
        """The per-frame stop-and-wait loop under loss against Figure 5's
        closed form, at the figure's two timer settings."""
        t0 = t_single_exchange(PARAMS)
        for pn, tr in ((0.01, 10 * t0), (0.05, 100 * t0)):
            mc = run_trials("saw", D, pn, n_trials=20_000, t_retry=tr,
                            params=PARAMS, seed=14)
            assert mc.mean_s == pytest.approx(
                expected_time_saw(D, t0, tr, pn), rel=0.03)


class TestSigmaOrderingEndToEnd:
    def test_figure6_ordering_reproduced_by_des(self):
        """The paper's Figure 6 conclusion, from the mechanistic engines:
        sigma(full_no_nak) > sigma(full_nak) >= sigma(gobackn) >= ~sigma(selective)."""
        pn = 5e-3
        sigmas = {}
        for strategy in ("full_no_nak", "full_nak", "gobackn", "selective"):
            summary = run_many(
                "blast", bytes(32 * 1024), error_p=pn, n_runs=200,
                seed=15, params=PARAMS, strategy=strategy,
            )
            assert summary.all_intact
            sigmas[strategy] = summary.std_s
        assert sigmas["full_no_nak"] > sigmas["full_nak"]
        assert sigmas["full_nak"] > sigmas["gobackn"]
        assert sigmas["selective"] < sigmas["full_no_nak"] / 3

    def test_means_all_near_error_free_at_lan_rates(self):
        """§3 premise at the DES level: at p_n = 1e-4 every strategy's
        expected time is within a few percent of the error-free time."""
        t0 = t_blast(32, PARAMS)
        for strategy in ("full_no_nak", "full_nak", "gobackn", "selective"):
            summary = run_many(
                "blast", bytes(32 * 1024), error_p=1e-4, n_runs=100,
                seed=16, params=PARAMS, strategy=strategy,
            )
            assert summary.mean_s == pytest.approx(t0, rel=0.05)

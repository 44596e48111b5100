"""Unit and property tests for the loss models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.scripted import ScriptedErrors
from repro.simnet import (
    BernoulliErrors,
    GilbertElliott,
    PerfectChannel,
)


class TestPerfectChannel:
    def test_never_drops(self):
        model = PerfectChannel()
        assert not any(model.drops(object()) for _ in range(1000))


class TestBernoulli:
    def test_p_zero_never_drops(self):
        model = BernoulliErrors(0.0, seed=1)
        assert not any(model.drops(None) for _ in range(1000))

    def test_p_one_always_drops(self):
        model = BernoulliErrors(1.0, seed=1)
        assert all(model.drops(None) for _ in range(1000))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliErrors(-0.1)
        with pytest.raises(ValueError):
            BernoulliErrors(1.1)

    def test_seed_reproducibility(self):
        a = [BernoulliErrors(0.3, seed=42).drops(None) for _ in range(200)]
        b = [BernoulliErrors(0.3, seed=42).drops(None) for _ in range(200)]
        assert a == b

    def test_empirical_rate_close_to_p(self):
        model = BernoulliErrors(0.2, seed=123)
        n = 20_000
        rate = sum(model.drops(None) for _ in range(n)) / n
        assert rate == pytest.approx(0.2, abs=0.01)

    @given(p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 2**20))
    @settings(max_examples=50)
    def test_drops_returns_bool(self, p, seed):
        model = BernoulliErrors(p, seed=seed)
        assert isinstance(model.drops(None), bool)


class TestGilbertElliott:
    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=1.5, p_bad_to_good=0.5)

    def test_all_good_never_drops(self):
        model = GilbertElliott(0.0, 1.0, p_good_loss=0.0, p_bad_loss=1.0, seed=1)
        assert not any(model.drops(None) for _ in range(500))
        assert model.state == GilbertElliott.GOOD

    def test_burstiness(self):
        """Losses cluster: consecutive-loss runs are longer than Bernoulli's."""
        model = GilbertElliott(0.01, 0.2, p_bad_loss=1.0, seed=5)
        outcomes = [model.drops(None) for _ in range(50_000)]

        def mean_run(outcomes):
            runs, current = [], 0
            for o in outcomes:
                if o:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return sum(runs) / len(runs) if runs else 0.0

        rate = sum(outcomes) / len(outcomes)
        bernoulli = BernoulliErrors(rate, seed=5)
        b_outcomes = [bernoulli.drops(None) for _ in range(50_000)]
        assert mean_run(outcomes) > 2 * mean_run(b_outcomes)

    def test_stationary_loss_rate_matches_empirical(self):
        model = GilbertElliott(0.05, 0.25, p_good_loss=0.01, p_bad_loss=0.9, seed=11)
        n = 100_000
        rate = sum(model.drops(None) for _ in range(n)) / n
        assert rate == pytest.approx(model.stationary_loss_rate, rel=0.1)

    def test_stationary_rate_degenerate_chain(self):
        model = GilbertElliott(0.0, 0.0, p_good_loss=0.02, seed=1)
        assert model.stationary_loss_rate == pytest.approx(0.02)


class TestComposite:
    """Loss sources compose as the rules of one fault plan, each with
    its own counter and seeded stream, on the wire as ``ScriptedErrors``."""

    @staticmethod
    def _model(*rules, seed=0):
        return ScriptedErrors(FaultPlan(name="composite", rules=rules),
                              seed=seed)

    def test_any_component_dropping_drops(self):
        model = self._model(FaultRule("drop", indices=(0,)),
                            FaultRule("drop", indices=(2,)))
        assert [model.drops(None) for _ in range(4)] == [True, False, True, False]

    def test_empty_composite_never_drops(self):
        model = self._model()
        assert not any(model.drops(None) for _ in range(100))

    def test_combined_rate_approximates_union(self):
        """Wire (1e-2) + interface (5e-2) losses compose to ~1-(1-p)(1-q)."""
        model = self._model(FaultRule("drop", probability=0.01),
                            FaultRule("drop", probability=0.05), seed=1)
        n = 100_000
        rate = sum(model.drops(None) for _ in range(n)) / n
        expected = 1 - (1 - 0.01) * (1 - 0.05)
        assert rate == pytest.approx(expected, rel=0.1)

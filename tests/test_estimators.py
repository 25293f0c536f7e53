"""Point-estimator identities, hand-checked values, equivariance properties,
and the one-analysis-per-dataset invariant."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    DesignDescriptor,
    DesignKind,
    EstimatorKind,
    ModelSpec,
    NuisanceFit,
    ObservedData,
    ValidationError,
    hajek_mean,
    ht_mean,
    generate_population,
    point_estimate,
)
from surveyblend.cli import build_estimate_report, load_config
from surveyblend.simulate import _replicate_record
from conftest import SCENARIO_BOTH_CORRECT, default_fit, make_observed

K = EstimatorKind


def zero_outcome_fit(fit: NuisanceFit) -> NuisanceFit:
    """Same selection fit, outcome model forced to the zero function."""
    return NuisanceFit(alpha=fit.alpha, beta=np.zeros_like(fit.beta), spec=fit.spec,
                       iterations=fit.iterations, max_abs_score=fit.max_abs_score)


class TestDefinitions:
    def test_ht_and_hajek_delegate_to_designs(self):
        observed = make_observed(seed=30)
        assert point_estimate(K.HT, observed) == ht_mean(observed.y_a, observed.pi_a,
                                                         observed.n_population)
        assert point_estimate(K.HAJEK, observed) == hajek_mean(observed.y_a, observed.pi_a)

    def test_dr1_hand_checked_toy(self):
        # Three units, sample A = {unit 1} with pi = 1/3, sample B a census
        # with fitted selection probability pinned at 1 (logit 40 rounds to
        # exactly 1.0 in float64). Outcome model predicts 1 everywhere.
        observed = ObservedData(
            n_population=3,
            design=DesignDescriptor(DesignKind.POISSON),
            x_a=np.array([[1.0]]),
            pi_a=np.array([1 / 3]),
            x_b=np.ones((3, 1)),
            y_b=np.array([0.0, 2.0, 4.0]),
        )
        fit = NuisanceFit(alpha=np.array([40.0]), beta=np.array([1.0]), spec=ModelSpec(),
                          iterations=0, max_abs_score=0.0)
        assert fit.pi_b(observed.x_b)[0] == 1.0
        assert point_estimate(K.DR1, observed, fit) == pytest.approx(2.0, rel=1e-12)

    def test_dr_with_zero_outcome_model_is_ipw(self):
        observed = make_observed(seed=31)
        fit = default_fit(observed)
        zero = zero_outcome_fit(fit)
        assert point_estimate(K.DR1, observed, zero) == pytest.approx(
            point_estimate(K.IPW1, observed, fit), rel=1e-14)
        assert point_estimate(K.DR2, observed, zero) == pytest.approx(
            point_estimate(K.IPW2, observed, fit), rel=1e-14)

    def test_dr1_rearrangement_identity(self):
        observed = make_observed(seed=32)
        fit = default_fit(observed)
        m_a = fit.m(observed.x_a)
        m_b = fit.m(observed.x_b)
        pi_b = fit.pi_b(observed.x_b)
        expected = (point_estimate(K.IPW1, observed, fit)
                    + ht_mean(m_a, observed.pi_a, observed.n_population)
                    - float(np.sum(m_b / pi_b)) / observed.n_population)
        assert point_estimate(K.DR1, observed, fit) == pytest.approx(expected, rel=1e-12)


class TestErrors:
    def test_ht_requires_outcome_on_sample_a(self):
        observed = make_observed(seed=33, y_on_a=False)
        with pytest.raises(ValidationError, match="outcome on sample A"):
            point_estimate(K.HT, observed)

    def test_ipw_requires_fit(self):
        observed = make_observed(seed=34)
        with pytest.raises(ValidationError, match="nuisance fit"):
            point_estimate(K.IPW1, observed, None)


class TestLocationEquivariance:
    """Adding a constant to every outcome shifts the ratio estimators exactly."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5_000), st.floats(-20, 20))
    def test_shift(self, seed, c):
        observed = make_observed(seed=seed)
        shifted = ObservedData(
            n_population=observed.n_population, design=observed.design,
            x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a + c,
            x_b=observed.x_b, y_b=observed.y_b + c)
        fit = default_fit(observed)
        fit_shifted = default_fit(shifted)
        for kind in (K.HAJEK, K.IPW2, K.DR2):
            base = point_estimate(kind, observed, fit)
            moved = point_estimate(kind, shifted, fit_shifted)
            assert moved - base == pytest.approx(c, rel=1e-9, abs=1e-9)


@pytest.fixture
def prediction_calls(monkeypatch):
    """Counts of NuisanceFit.m and NuisanceFit.pi_b evaluations."""
    calls = Counter()
    for name in ("m", "pi_b"):
        def counted(self, x, _name=name, _method=getattr(NuisanceFit, name)):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(NuisanceFit, name, counted)
    return calls


class TestOneAnalysisPerDataset:
    """Each sample's predictions are evaluated once; fit_nuisance's two floor checks add two pi_b calls."""

    def test_default_replicate(self, prediction_calls):
        population = generate_population(SCENARIO_BOTH_CORRECT)
        assert isinstance(_replicate_record(SCENARIO_BOTH_CORRECT, population, 0), dict)
        assert prediction_calls["m"] == 2
        assert prediction_calls["pi_b"] <= 4

    def test_example_estimate_report(self, prediction_calls):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "estimate_example.yaml", "estimate")
        report = build_estimate_report(config, make_observed(seed=35))
        assert len(report["pooled"]) == 1
        assert prediction_calls["m"] == 2
        assert prediction_calls["pi_b"] <= 4


def test_dr2_unbiased_when_both_models_correct(mc_both_correct):
    row = mc_both_correct.row("DR2/both_correct")
    assert abs(row.mc_bias) < 3.0 * row.mc_bias_se

"""Variance machinery: centering terms, adjustment coefficients, closed forms.

The reduction identities (inverse-probability-weighting formulas equal the
doubly robust ones with a zero outcome model) must hold to machine
precision; the population-formula oracle for the adjustment coefficient
and the residual-variance model are checked by repeated sampling.
"""

import warnings

import numpy as np
import pytest

from surveyblend import (
    Analysis,
    Covariate,
    DesignDescriptor,
    DesignKind,
    EstimatorKind,
    FitMethod,
    NuisanceFit,
    ObservedData,
    Regime,
    ResidualVarianceModel,
    ScenarioConfig,
    ValidationError,
    centering_terms,
    cov_estimate,
    draw_samples,
    fit_nuisance,
    generate_population,
    regression_adjustment,
    residual_variance,
    var_prob_estimate,
    variance,
)
from surveyblend.simulate import redraw_outcomes
from conftest import default_fit, make_observed

K = EstimatorKind
R = Regime


def zero_outcome_fit(fit):
    return NuisanceFit(alpha=fit.alpha, beta=np.zeros_like(fit.beta), spec=fit.spec,
                       iterations=fit.iterations, max_abs_score=fit.max_abs_score)


class TestRegressionAdjustment:
    def test_zero_residuals_give_zero_coefficient(self):
        observed = make_observed(seed=40, noise_sd=0.0)
        fit = default_fit(observed)
        adj = regression_adjustment(K.DR1, Analysis(observed, fit))
        assert np.max(np.abs(adj)) < 1e-10

    def test_constant_outcome_gives_zero_centered_coefficient(self):
        observed = make_observed(seed=41)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                                x_b=observed.x_b, y_b=np.full(observed.n_b, 2.5))
        fit = default_fit(observed)
        adj = regression_adjustment(K.IPW2, Analysis(observed, fit))
        assert np.max(np.abs(adj)) < 1e-10

    def test_population_oracle_recovers_target(self):
        # Outcomes held fixed; the estimated coefficient must converge on
        # the population value computed from the true selection
        # probabilities and the selection-weighted least-squares limit.
        config = ScenarioConfig(
            n_population=10_000,
            covariates=(Covariate("normal"),),
            beta_true=(1.0, 1.0),
            alpha_true=(-1.8, 0.6),
            noise_sd=1.0,
            sample_a_size=2000,
            replicates=2,
            seed=555,
        )
        pop = generate_population(config)
        x, y, pi_b, n = pop.x, pop.y, pop.pi_b_true, pop.size
        beta_w = np.linalg.solve((x * pi_b[:, None]).T @ x, (x * pi_b[:, None]).T @ y)
        gram = (x * (pi_b * (1 - pi_b))[:, None]).T @ x / n
        rhs = x.T @ ((1 - pi_b) * (y - x @ beta_w)) / n
        target = np.linalg.solve(gram, rhs)

        spec = config.model_spec
        draws = []
        for r in range(300):
            observed, _ = draw_samples(pop, 9_000 + r)
            fit = fit_nuisance(observed, spec)
            draws.append(regression_adjustment(K.DR1, Analysis(observed, fit)))
        draws = np.asarray(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - target) < 3.0 * se)


class TestCenteringTerms:
    def test_dr1_both_correct_centers_predictions_at_zero(self):
        observed = make_observed(seed=42)
        fit = default_fit(observed)
        terms = centering_terms(K.DR1, R.BOTH_CORRECT, Analysis(observed, fit))
        assert np.all(terms.u == fit.m(observed.x_a))
        np.testing.assert_allclose(terms.outcome_center, fit.m(observed.x_b))

    def test_dr2_both_correct_centers_predictions_at_ht_mean(self):
        observed = make_observed(seed=43)
        fit = default_fit(observed)
        terms = centering_terms(K.DR2, R.BOTH_CORRECT, Analysis(observed, fit))
        m_bar = fit.m(observed.x_a) @ (1.0 / observed.pi_a) / observed.n_population
        assert np.all(terms.u == fit.m(observed.x_a) - m_bar)

    def test_ipw1_with_zero_coefficient_has_zero_centers(self):
        observed = make_observed(seed=44)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                                x_b=observed.x_b, y_b=np.zeros(observed.n_b))
        fit = default_fit(observed)
        terms = centering_terms(K.IPW1, R.SELECTION_CORRECT, Analysis(observed, fit))
        assert np.max(np.abs(terms.u)) < 1e-12
        assert np.max(np.abs(terms.outcome_center)) < 1e-12

    def test_unsupported_pairs_error(self):
        observed = make_observed(seed=45)
        fit = default_fit(observed)
        with pytest.raises(ValidationError):
            centering_terms(K.IPW1, R.BOTH_CORRECT, Analysis(observed, fit))
        with pytest.raises(ValidationError):
            centering_terms(K.HT, R.BOTH_CORRECT, Analysis(observed, fit))
        with pytest.raises(ValidationError):
            centering_terms(K.DR2, R.KH_DOUBLY_ROBUST, Analysis(observed, fit))

    def test_non_finite_outcome_model_is_rejected(self):
        observed = make_observed(seed=45)
        fit = default_fit(observed)
        broken = NuisanceFit(alpha=fit.alpha, beta=np.full_like(fit.beta, np.nan), spec=fit.spec,
                             iterations=fit.iterations, max_abs_score=fit.max_abs_score)
        with pytest.raises(ValidationError, match="non-finite centering term"):
            centering_terms(K.DR1, R.BOTH_CORRECT, Analysis(observed, broken))

    def test_kh_regime_requires_kh_fit(self):
        observed = make_observed(seed=46)
        fit = default_fit(observed)  # pseudo-ML
        with pytest.raises(ValidationError, match="Kim-Haziza"):
            centering_terms(K.DR1, R.KH_DOUBLY_ROBUST, Analysis(observed, fit))


class TestVarEstimate:
    def test_zero_outcome_residuals_leave_only_design_term(self):
        observed = make_observed(seed=47, noise_sd=0.0)
        fit = default_fit(observed)
        analysis = Analysis(observed, fit)
        var = variance(K.DR1, R.BOTH_CORRECT, analysis)
        m_a, pi_a = fit.m(observed.x_a), observed.pi_a  # sample A is a Poisson sample
        term1 = np.sum((1.0 - pi_a) * m_a**2 / pi_a**2) / observed.n_population**2
        assert var == pytest.approx(term1, rel=1e-12)

    def test_kh_correction_vanishes_for_linear_model_with_intercept(self):
        observed = make_observed(seed=48)
        fit = default_fit(observed, method=FitMethod.KIM_HAZIZA)
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
        pi_b = fit.pi_b(observed.x_b)
        n = observed.n_population
        correction = (np.sum(s2_a / observed.pi_a) - np.sum(s2_b / pi_b)) / n**2
        assert abs(correction) <= 1e-10
        # with C = 0 the doubly robust variance equals the both-correct form
        v_kh = variance(K.DR1, R.KH_DOUBLY_ROBUST, Analysis(observed, fit))
        v_bc = variance(K.DR1, R.BOTH_CORRECT, Analysis(observed, fit))
        assert v_kh == pytest.approx(v_bc, rel=1e-9)

    def test_negative_srswor_first_term_is_reported_and_floored(self):
        # With equal first-order probabilities the SRSWOR ratio form is
        # provably nonnegative, so the negative branch needs stated
        # probabilities that disagree with the fixed-size design (allowed:
        # they are analyst-provided). Constant predictions and zero outcome
        # residuals then leave a negative design term that gets floored.
        n_a, n_pop = 5, 30
        observed = ObservedData(
            n_population=n_pop,
            design=DesignDescriptor(DesignKind.SRSWOR, n=n_a),
            x_a=np.ones((n_a, 1)), pi_a=np.full(n_a, 0.9),
            x_b=np.ones((4, 1)), y_b=np.full(4, 3.0))
        fit = default_fit(observed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            var = variance(K.DR1, R.BOTH_CORRECT, Analysis(observed, fit))
        assert var == 0.0
        assert any("negative first variance term" in str(w.message) for w in caught)

    def test_scaling_outcomes_scales_variance_quadratically(self):
        observed = make_observed(seed=49)
        c = -2.5
        scaled = ObservedData(n_population=observed.n_population, design=observed.design,
                              x_a=observed.x_a, pi_a=observed.pi_a,
                              y_a=observed.y_a * c, x_b=observed.x_b, y_b=observed.y_b * c)
        for kind, regime in ((K.DR1, R.BOTH_CORRECT), (K.DR2, R.BOTH_CORRECT),
                             (K.DR1, R.SELECTION_CORRECT), (K.DR2, R.SELECTION_CORRECT),
                             (K.IPW1, R.SELECTION_CORRECT), (K.IPW2, R.SELECTION_CORRECT)):
            base = variance(kind, regime, Analysis(observed, default_fit(observed)))
            moved = variance(kind, regime, Analysis(scaled, default_fit(scaled)))
            assert moved == pytest.approx(c * c * base, rel=1e-9)

    def test_kh_scaling_with_constant_sigma_model(self):
        observed = make_observed(seed=50)
        c = 3.0
        scaled = ObservedData(n_population=observed.n_population, design=observed.design,
                              x_a=observed.x_a, pi_a=observed.pi_a,
                              y_a=None, x_b=observed.x_b, y_b=observed.y_b * c)
        base_fit = default_fit(observed, method=FitMethod.KIM_HAZIZA)
        scaled_fit = default_fit(scaled, method=FitMethod.KIM_HAZIZA)
        base = variance(K.DR1, R.KH_DOUBLY_ROBUST, Analysis(observed, base_fit))
        moved = variance(K.DR1, R.KH_DOUBLY_ROBUST, Analysis(scaled, scaled_fit))
        assert moved == pytest.approx(c * c * base, rel=1e-6)


class TestVarProbEstimate:
    def test_constant_outcome_hajek_variance_is_zero(self):
        observed = make_observed(seed=51)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a,
                                y_a=np.full(observed.n_a, 4.2),
                                x_b=observed.x_b, y_b=observed.y_b)
        assert var_prob_estimate(K.HAJEK, Analysis(observed)) == pytest.approx(0.0, abs=1e-25)

    def test_constant_outcome_ht_variance_is_positive(self):
        observed = make_observed(seed=52)
        c = 4.2
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a,
                                y_a=np.full(observed.n_a, c),
                                x_b=observed.x_b, y_b=observed.y_b)
        pi = observed.pi_a
        expected = c * c * float(np.sum((1 - pi) / pi**2)) / observed.n_population**2
        got = var_prob_estimate(K.HT, Analysis(observed))
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_requires_outcome_on_sample_a(self):
        observed = make_observed(seed=53, y_on_a=False)
        with pytest.raises(ValidationError):
            var_prob_estimate(K.HT, Analysis(observed))


class TestCovEstimate:
    def test_zero_predictions_give_zero_covariance(self):
        observed = make_observed(seed=54)
        fit = zero_outcome_fit(default_fit(observed))
        cov = cov_estimate(K.DR1, R.BOTH_CORRECT, K.HT, Analysis(observed, fit))
        assert cov == pytest.approx(0.0, abs=1e-20)

    def test_zero_adjustment_gives_zero_ipw_covariance(self):
        observed = make_observed(seed=55)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                                x_b=observed.x_b, y_b=np.zeros(observed.n_b))
        fit = default_fit(observed)
        cov = cov_estimate(K.IPW1, R.SELECTION_CORRECT, K.HT, Analysis(observed, fit))
        assert cov == pytest.approx(0.0, abs=1e-18)

    def test_hajek_covariance_centers_outcomes(self):
        observed = make_observed(seed=56)
        analysis = Analysis(observed, default_fit(observed))
        u, y_a, pi_a = analysis.fit.m(observed.x_a), observed.y_a, observed.pi_a  # sample A is a Poisson sample
        gamma = np.sum(y_a / pi_a) / np.sum(1.0 / pi_a)
        expected = np.sum((1.0 - pi_a) * u * (y_a - gamma) / pi_a**2) / observed.n_population**2
        got = cov_estimate(K.DR1, R.BOTH_CORRECT, K.HAJEK, analysis)
        assert got == pytest.approx(expected, rel=1e-12)


class TestResidualVariance:
    def test_zero_residuals(self):
        observed = make_observed(seed=57, noise_sd=0.0)
        fit = default_fit(observed)
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
        assert np.max(s2_a) < 1e-20 and np.max(s2_b) < 1e-20

    def test_constant_model_is_mean_square(self):
        # two intercept-only rows with residuals (+1, -1)
        observed = ObservedData(
            n_population=20,
            design=DesignDescriptor(DesignKind.POISSON),
            x_a=np.ones((3, 1)), pi_a=np.full(3, 0.5),
            x_b=np.ones((2, 1)), y_b=np.array([3.0, 1.0]))
        fit = default_fit(observed)  # intercept-only OLS: prediction 2, residuals +/-1
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
        assert s2_a[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(s2_a == s2_a[0]) and np.all(s2_b == s2_a[0])

    def test_linear_model_truncates_at_zero(self):
        observed = make_observed(seed=58)
        fit = default_fit(observed)
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.LINEAR_IN_X)
        assert np.min(s2_a) >= 0.0 and np.min(s2_b) >= 0.0

    def test_constant_model_recovers_noise_variance(self):
        config = ScenarioConfig(
            n_population=4_000,
            covariates=(Covariate("normal"),),
            beta_true=(1.0, 1.0),
            alpha_true=(-1.5, 0.3),
            noise_sd=1.0,
            sample_a_size=400,
            replicates=2,
            seed=66,
        )
        pop = generate_population(config)
        spec = config.model_spec
        values = []
        for r in range(200):
            observed, _ = draw_samples(pop, 30_000 + r, redraw_outcomes(pop, config, 40_000 + r))
            fit = fit_nuisance(observed, spec)
            values.append(residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)[1][0])
        values = np.asarray(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - 1.0) < 3.0 * se


class TestReductionIdentities:
    """IPW formulas are the DR formulas with the outcome model set to zero."""

    @pytest.mark.parametrize("seed", range(5))
    def test_var_and_cov_reduce(self, seed):
        observed = make_observed(seed=1000 + seed)
        fit = default_fit(observed)
        zero = zero_outcome_fit(fit)
        assert variance(K.IPW1, R.SELECTION_CORRECT, Analysis(observed, fit)) == pytest.approx(
            variance(K.DR1, R.SELECTION_CORRECT, Analysis(observed, zero)), rel=1e-12)
        assert variance(K.IPW2, R.SELECTION_CORRECT, Analysis(observed, fit)) == pytest.approx(
            variance(K.DR2, R.SELECTION_CORRECT, Analysis(observed, zero)), rel=1e-12)
        assert cov_estimate(K.IPW1, R.SELECTION_CORRECT, K.HT, Analysis(observed, fit)) == pytest.approx(
            cov_estimate(K.DR1, R.SELECTION_CORRECT, K.HT, Analysis(observed, zero)), rel=1e-12)

    def test_adjustment_coefficients_reduce(self):
        observed = make_observed(seed=59)
        fit = default_fit(observed)
        zero = zero_outcome_fit(fit)
        for ipw_kind, dr_kind in ((K.IPW1, K.DR1), (K.IPW2, K.DR2)):
            raw = regression_adjustment(ipw_kind, Analysis(observed, fit))
            reduced = regression_adjustment(dr_kind, Analysis(observed, zero))
            np.testing.assert_allclose(raw, reduced, rtol=1e-13)


class TestAnalysis:
    def test_fields_cohere(self):
        observed = make_observed(seed=60)
        fit = default_fit(observed)
        analysis = Analysis(observed, fit)
        assert analysis.point(K.DR2) == Analysis(observed, fit).point(K.DR2)
        assert variance(K.DR2, R.BOTH_CORRECT, analysis) == variance(K.DR2, R.BOTH_CORRECT, Analysis(observed, fit))
        terms = centering_terms(K.DR2, R.SELECTION_CORRECT, analysis)
        assert terms is centering_terms(K.DR2, R.SELECTION_CORRECT, analysis)
        assert not terms.u.flags.writeable and not terms.outcome_center.flags.writeable

    def test_prob_kind_has_no_regime(self):
        observed = make_observed(seed=61)
        analysis = Analysis(observed, default_fit(observed))
        assert var_prob_estimate(K.HAJEK, analysis) >= 0.0
        with pytest.raises(ValidationError, match="no variance regime"):
            variance(K.HAJEK, R.BOTH_CORRECT, analysis)

    @pytest.mark.parametrize("call", [lambda a: var_prob_estimate(K.IPW1, a),
                                      lambda a: cov_estimate(K.DR1, R.BOTH_CORRECT, K.IPW1, a)],
                             ids=["var_prob_estimate", "cov_estimate"])
    def test_prob_kind_must_be_a_probability_sample_estimator(self, call):
        observed = make_observed(seed=62)
        with pytest.raises(ValidationError, match="IPW1 is not a probability-sample estimator"):
            call(Analysis(observed, default_fit(observed)))

    @pytest.mark.parametrize("call", [
        lambda a: variance(K.DR1, R.BOTH_CORRECT, a),
        lambda a: cov_estimate(K.DR2, R.BOTH_CORRECT, K.HAJEK, a),
        lambda a: centering_terms(K.IPW1, R.SELECTION_CORRECT, a),
        lambda a: regression_adjustment(K.IPW1, a),
        lambda a: residual_variance(a, ResidualVarianceModel.LINEAR_IN_X),
        lambda a: a.m_a,
        lambda a: a.m_b,
    ], ids=["variance", "cov_estimate", "centering_terms", "regression_adjustment", "residual_variance", "m_a", "m_b"])
    def test_without_a_fit_raises_a_validation_error(self, call):
        analysis = Analysis(make_observed(seed=70))
        with pytest.raises(ValidationError, match="needs a nuisance fit"):
            call(analysis)
        assert var_prob_estimate(K.HAJEK, analysis) > 0.0

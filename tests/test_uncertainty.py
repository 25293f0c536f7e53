"""Variance machinery: centering terms, adjustment coefficients, closed forms.

The reduction identities (inverse-probability-weighting formulas equal the
doubly robust ones with a zero outcome model) must hold to machine
precision; the population-formula oracle for the adjustment coefficient
and the residual-variance model are checked by repeated sampling.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from surveyblend import (
    Analysis,
    Covariate,
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
    pool,
    regression_adjustment,
    residual_variance,
    variance,
)
from surveyblend.nuisance import KH_TOL, score_and_jacobian_calibration
from surveyblend.simulate import redraw_outcomes
from surveyblend.uncertainty import SUPPORTED, _covariance, check_supported
from conftest import (SCENARIO_BOTH_CORRECT, SCENARIO_KH, SCENARIO_OUTCOME_WRONG, default_fit, make_observed,
                      summary_row)

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
        with pytest.raises(ValidationError, match="non-finite outcome model on sample A"):
            centering_terms(K.DR1, R.BOTH_CORRECT, Analysis(observed, broken))

    def test_kh_regime_requires_kh_fit(self):
        observed = make_observed(seed=46)
        fit = default_fit(observed)  # pseudo-ML
        with pytest.raises(ValidationError, match="DR1/kh_doubly_robust has no variance formula under a pseudo_ml"):
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

    @pytest.mark.parametrize("seed", range(48, 53))
    @pytest.mark.parametrize("design_kind", [DesignKind.POISSON, DesignKind.SRSWOR], ids=lambda k: k.value)
    def test_kh_correction_vanishes_for_linear_model_with_intercept(self, design_kind, seed):
        # The Kim-Haziza fit's intercept equation is (1/N) (sum_A 1/pi_a - sum_B 1/pi_b) = 0, so a constant s2
        # gives C = s2 times that score over N: C vanishes to the fit's own residual (the solve stops at KH_TOL
        # and is not landed), and the doubly robust variance is the both-correct form. Over these datasets |C|
        # reached 3.6e-10 of the variance, on the ones whose solve stopped nearest KH_TOL.
        observed = make_observed(seed=seed, design_kind=design_kind)
        fit = default_fit(observed, method=FitMethod.KIM_HAZIZA)
        analysis = Analysis(observed, fit)
        s2_a, s2_b = residual_variance(analysis, ResidualVarianceModel.CONSTANT)
        n = observed.n_population
        correction = (np.sum(s2_a / observed.pi_a) - np.sum(s2_b / fit.pi_b(observed.x_b))) / n**2
        assert abs(correction) <= s2_b[0] * (fit.max_abs_score + 1e-14) / n
        assert variance(K.DR1, R.KH_DOUBLY_ROBUST, analysis) == pytest.approx(
            variance(K.DR1, R.BOTH_CORRECT, analysis), rel=1e-9)

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
        assert variance(K.HAJEK, None, Analysis(observed)) == pytest.approx(0.0, abs=1e-25)

    def test_constant_outcome_ht_variance_is_positive(self):
        observed = make_observed(seed=52)
        c = 4.2
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a,
                                y_a=np.full(observed.n_a, c),
                                x_b=observed.x_b, y_b=observed.y_b)
        pi = observed.pi_a
        expected = c * c * float(np.sum((1 - pi) / pi**2)) / observed.n_population**2
        got = variance(K.HT, None, Analysis(observed))
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_outcome_srswor_ht_variance_is_floored_and_pools(self):
        # The SRSWOR form centers the constant outcome, so its HT variance is 0 exactly, with no
        # floor and no warning; an uncentered form cancels to about -1.7e-17, which pooling rejects.
        base = make_observed(seed=55, n_population=200, design_kind=DesignKind.SRSWOR, srswor_n=37)
        observed = ObservedData(n_population=200, design=base.design, x_a=base.x_a, pi_a=base.pi_a,
                                y_a=np.ones(base.n_a), x_b=base.x_b, y_b=base.y_b)
        analysis = Analysis(observed, default_fit(observed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analysis.weights_a.cov(observed.y_a, observed.y_a) == 0.0
            assert variance(K.HT, None, analysis) == 0.0
            report = pool(analysis, K.DR1, R.BOTH_CORRECT, K.HT)
        assert report.var_prob == 0.0
        assert report.w == pytest.approx(0.0, abs=1e-12)
        assert report.pooled_estimate == pytest.approx(1.0, rel=1e-12)

    def test_requires_outcome_on_sample_a(self):
        observed = make_observed(seed=53, y_on_a=False)
        with pytest.raises(ValidationError):
            variance(K.HT, None, Analysis(observed))


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
            design=DesignKind.POISSON,
            x_a=np.ones((3, 1)), pi_a=np.full(3, 0.5),
            x_b=np.ones((2, 1)), y_b=np.array([3.0, 1.0]))
        fit = default_fit(observed)  # intercept-only OLS: prediction 2, residuals +/-1
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
        assert s2_a[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(s2_a == s2_a[0]) and np.all(s2_b == s2_a[0])

    @pytest.mark.parametrize("cols", [None, (0, 1)], ids=["all-columns", "masked"])
    @pytest.mark.parametrize("method", list(FitMethod), ids=lambda method: method.value)
    def test_constant_model_is_the_mean_squared_residual_of_the_fit(self, method, cols):
        # the fit's own sample-B residuals, computed here from beta; and an SVD least-squares oracle: the
        # separable fits' beta is the least-squares fit, and the Kim-Haziza beta, solved with alpha, is no closer
        observed = make_observed(seed=59)
        fit = default_fit(observed, method, outcome_cols=cols, selection_cols=cols)
        mask = slice(None) if cols is None else list(cols)
        s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
        assert np.all(s2_a == s2_b[0]) and np.all(s2_b == s2_b[0])
        assert s2_b[0] == pytest.approx(np.mean((observed.y_b - observed.x_b[:, mask] @ fit.beta) ** 2), rel=1e-12)
        coef, *_ = scipy.linalg.lstsq(observed.x_b[:, mask], observed.y_b)
        least = np.mean((observed.y_b - observed.x_b[:, mask] @ coef) ** 2)
        if method is FitMethod.KIM_HAZIZA:
            assert s2_b[0] >= least * (1.0 - 1e-12)
        else:
            assert s2_b[0] == pytest.approx(least, rel=1e-12)

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

    @pytest.mark.parametrize("scenario", [SCENARIO_BOTH_CORRECT, SCENARIO_OUTCOME_WRONG],
                             ids=["both-correct", "outcome-wrong"])
    def test_calibration_dr1_and_ipw1_variances_agree(self, scenario):
        # A calibration fit makes sum_B x/pi_b = sum_A x/pi_a, so with a linear outcome model in the
        # selection columns DR1 is IPW1 as a point; their selection_correct variances must agree too.
        config = dataclasses.replace(scenario, fit_method=FitMethod.CALIBRATION)
        observed, _ = draw_samples(generate_population(config), 7)
        analysis = Analysis(observed, fit_nuisance(observed, config.model_spec))
        assert analysis.point(K.DR1) == pytest.approx(analysis.point(K.IPW1), rel=1e-12)
        assert variance(K.DR1, R.SELECTION_CORRECT, analysis) == pytest.approx(
            variance(K.IPW1, R.SELECTION_CORRECT, analysis), rel=1e-12)


class TestLinearizationIdentities:
    """Each selection-fit method's linearization against an identity that holds whatever the data."""

    @pytest.mark.parametrize("scenario", [SCENARIO_BOTH_CORRECT, SCENARIO_OUTCOME_WRONG],
                             ids=["both-correct", "outcome-wrong"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_calibration_adjustment_is_the_jacobian_solve_of_the_ipw1_gradient(self, scenario, seed):
        # The selection_correct term of IPW1 is the delta-method term J^-T dtheta/dalpha of the solved equation,
        # with J the calibration score's jacobian at alpha-hat and theta(alpha) = (1/N) sum_B y / pi(alpha).
        # dtheta/dalpha is taken by complex step, which is exact to rounding.
        config = dataclasses.replace(scenario, fit_method=FitMethod.CALIBRATION)
        observed, _ = draw_samples(generate_population(config), seed)
        fit = fit_nuisance(observed, config.model_spec)
        cols = config.model_spec.columns("selection", observed.n_covariates)
        x, h = observed.x_b[:, cols], 1e-30
        dtheta = np.array([(observed.y_b @ (1.0 + np.exp(-x @ (fit.alpha + 1j * h * e)))).imag / h
                           for e in np.eye(fit.alpha.size)]) / observed.n_population
        _, jac = score_and_jacobian_calibration(observed, cols)(fit.alpha)
        expected = np.linalg.solve(jac.T, dtheta)
        got = regression_adjustment(K.IPW1, Analysis(observed, fit))
        # Both sides solve a 3x3 system of the same sums over sample B, summed in different orders: rounding leaves
        # about 1e-15 of the largest coefficient (1.3e-15 measured). The pseudo-ML linearization missed by 5.6-6.5.
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_kim_haziza_dr1_selection_correct_is_both_correct_to_the_solver_tolerance(self):
        # The right-hand side of DR1's adjustment, (1/N) sum_B (1 - pi)/pi x (y - m), is the first Kim-Haziza
        # equation, which the joint solve leaves below KH_TOL in max-abs. So the coefficient b is at most
        # ||G^-1||_inf KH_TOL in max-abs, G = (1/N) sum_B (1 - pi) x x' being the pseudo-ML row's gram. b moves the
        # centers by d = (pi_a x_a'b, pi_b x_b'b). The variance is a positive semidefinite form Q in the centered
        # terms, so |Q(u + d) - Q(u)| <= 2 sqrt(Q(u)) sqrt(Q(d)) + Q(d), and sqrt(Q(d)) <= s =
        # ||G^-1||_inf KH_TOL sum_j sqrt(Q(pi x_j)). Over these 20 draws the bound is 3.5e-10 to 4.3e-10 and the
        # largest difference 1.1e-11.
        population = generate_population(SCENARIO_KH)
        for seed in range(20):
            observed, _ = draw_samples(population, seed)
            analysis = Analysis(observed, fit_nuisance(observed, SCENARIO_KH.model_spec))
            cols = analysis.spec.columns("selection", observed.n_covariates)
            x_a, x_b, pi_a, pi_b = observed.x_a[:, cols], observed.x_b[:, cols], analysis.pi_b_a, analysis.pi_b_b
            gram = (x_b * (1.0 - pi_b)[:, None]).T @ x_b / observed.n_population
            q = sum(np.sqrt(analysis.weights_a.cov(pi_a * x_a[:, j], pi_a * x_a[:, j])
                            + analysis.weights_b.cov(pi_b * x_b[:, j], pi_b * x_b[:, j])) for j in range(len(gram)))
            s = np.abs(np.linalg.inv(gram)).sum(axis=1).max() * KH_TOL * q
            both = variance(K.DR1, R.BOTH_CORRECT, analysis)
            assert abs(variance(K.DR1, R.SELECTION_CORRECT, analysis) - both) <= 2.0 * np.sqrt(both) * s + s * s

    @pytest.mark.parametrize("method", [None, *FitMethod], ids=["no-fit", *(m.value for m in FitMethod)])
    @pytest.mark.parametrize("data", ["poisson", "srswor", "census"])
    def test_every_variance_and_covariance_is_the_form_of_two_cells(self, data, method):
        # Each cell SUPPORTED holds under the fit (a reweighted cell needs one): its variance is its form with
        # itself, bit for bit, plus the Kim-Haziza correction in that regime; its covariance with HT or Hajek is
        # their form; and the form is symmetric in its two cells, since sum c u v and sum c v u round alike.
        observed = census_observed() if data == "census" else make_observed(
            seed=64, design_kind=DesignKind.SRSWOR if data == "srswor" else DesignKind.POISSON)
        analysis = Analysis(observed, None if method is None else default_fit(observed, method=method))
        weights_a, weights_b = analysis.weights_a, analysis.weights_b
        terms = {(kind, regime): centering_terms(kind, regime, analysis) for (kind, regime), fits in SUPPORTED.items()
                 if method in fits and (regime is None or method is not None)}
        assert len(terms) == {None: 2, FitMethod.KIM_HAZIZA: 7}.get(method, 8)
        for (kind, regime), cell in terms.items():
            form = _covariance(cell, cell, analysis)
            if regime is R.KH_DOUBLY_ROBUST:
                s2_a, s2_b = residual_variance(analysis, ResidualVarianceModel.CONSTANT)
                c = (weights_a.ht_mean(s2_a) - weights_b.ht_mean(s2_b)) / observed.n_population
                assert variance(kind, regime, analysis) == max(form + c, 0.0)
            else:
                assert variance(kind, regime, analysis) == form
            for prob in (K.HT, K.HAJEK) if regime is not None else ():
                assert cov_estimate(kind, regime, prob, analysis) == _covariance(cell, terms[prob, None], analysis)
        for cell, other in itertools.product(terms.values(), repeat=2):
            form = _covariance(cell, other, analysis)
            assert form == _covariance(other, cell, analysis)
            if data == "census":  # every pi_a = 1: each c of sample A's weights is 0, so its term is 0 exactly
                assert weights_a.cov(cell.u, other.u) == 0.0
                assert form == (0.0 if cell.outcome_center is None or other.outcome_center is None else
                                weights_b.cov(observed.y_b - cell.outcome_center, observed.y_b - other.outcome_center))


def census_observed():
    """A sample A that is the whole population (every pi_a = 1) beside a Poisson opt-in sample B."""
    rng = np.random.default_rng(61)
    x = np.column_stack([np.ones(400), rng.normal(size=(400, 2))])
    y = x @ np.array([1.0, 0.8, 0.8]) + 0.5 * rng.normal(size=400)
    b = rng.random(400) < 1.0 / (1.0 + np.exp(0.6 - x[:, 1:] @ np.array([0.4, 0.4])))
    return ObservedData(n_population=400, design=DesignKind.POISSON, x_a=x, pi_a=np.ones(400), y_a=y,
                        x_b=x[b], y_b=y[b])


def test_calibration_ipw_variances_track_the_monte_carlo_variance(mc_ipw_calibration):
    # SCENARIO_IPW under a calibration fit, held to acceptance criterion 3's band. With the pseudo-ML
    # linearization these rows read +0.189 and +0.234.
    for name in ("IPW1/selection_correct", "IPW2/selection_correct"):
        row = summary_row(mc_ipw_calibration, name)
        assert abs(row.rel_var_bias) <= 0.10, (name, row.rel_var_bias)
        assert 0.93 <= row.coverage <= 0.97, (name, row.coverage)


def branch_rules(kind, regime, fit_method):
    """The nested rules that decided support before the table, copied as they stood, with their pair list."""
    centering = ((K.DR1, R.BOTH_CORRECT), (K.DR1, R.KH_DOUBLY_ROBUST), (K.DR1, R.SELECTION_CORRECT),
                 (K.DR2, R.BOTH_CORRECT), (K.DR2, R.SELECTION_CORRECT), (K.IPW1, R.SELECTION_CORRECT),
                 (K.IPW2, R.SELECTION_CORRECT))
    if regime is None:
        if kind not in (K.HT, K.HAJEK):
            raise ValidationError(f"{kind.value} is not a probability-sample estimator")
        return
    if (kind, regime) not in centering:
        if kind in (K.HT, K.HAJEK):
            raise ValidationError(f"no variance regime is defined for {kind.value}")
        raise ValidationError(f"unsupported regime {regime.value} for {kind.value}")
    if regime is R.KH_DOUBLY_ROBUST and fit_method is not FitMethod.KIM_HAZIZA:
        raise ValidationError("the doubly robust variance regime requires a Kim-Haziza fit")


# Kim-Haziza fits borrow pseudo-ML's selection_correct linearization, which is off for the IPW kinds.
KH_IPW_CELLS = {(kind, R.SELECTION_CORRECT, FitMethod.KIM_HAZIZA) for kind in (K.IPW1, K.IPW2)}


class TestSupportTable:
    @staticmethod
    def accepts(check, cell):
        try:
            check(*cell)
        except ValidationError:
            return False
        return True

    def test_the_table_holds_what_the_branch_rules_held_but_the_kim_haziza_ipw_cells(self):
        cells = list(itertools.product(K, (None, *R), (None, *FitMethod)))
        assert all(self.accepts(branch_rules, cell) for cell in KH_IPW_CELLS)
        for cell in cells:
            assert self.accepts(check_supported, cell) == (self.accepts(branch_rules, cell)
                                                           and cell not in KH_IPW_CELLS), cell
        assert sum(self.accepts(check_supported, cell) for cell in cells) == len(
            [fit for fits in SUPPORTED.values() for fit in fits])

    @pytest.mark.parametrize("cell, message", [
        ((K.IPW2, R.SELECTION_CORRECT, FitMethod.KIM_HAZIZA),
         "IPW2/selection_correct has no variance formula under a kim_haziza fit; IPW2 has none there"),
        ((K.DR2, R.KH_DOUBLY_ROBUST, FitMethod.CALIBRATION), "DR2/kh_doubly_robust has no variance formula under "
         "a calibration fit; DR2 has one under both_correct or selection_correct there"),
        ((K.DR1, None, FitMethod.KIM_HAZIZA), "DR1 has no variance formula under a kim_haziza fit; DR1 has one "
         "under both_correct or kh_doubly_robust or selection_correct there"),
        ((K.HT, R.BOTH_CORRECT, None),
         "HT/both_correct has no variance formula without a fit; HT has one under the regime None there"),
    ], ids=["ipw2-kim-haziza", "dr2-kh-regime", "dr1-no-regime", "ht-regime"])
    def test_a_rejected_cell_is_named_with_the_regimes_its_estimator_has_under_the_fit(self, cell, message):
        with pytest.raises(ValidationError) as raised:
            check_supported(*cell)
        assert str(raised.value) == message

    def test_a_kim_haziza_fit_keeps_the_ipw_points_and_the_dr_selection_correct_variances(self):
        observed = make_observed(seed=63)
        analysis = Analysis(observed, default_fit(observed, method=FitMethod.KIM_HAZIZA))
        for kind in (K.IPW1, K.IPW2):
            assert np.isfinite(analysis.point(kind))
            for call in (lambda: variance(kind, R.SELECTION_CORRECT, analysis),
                         lambda: cov_estimate(kind, R.SELECTION_CORRECT, K.HAJEK, analysis)):
                with pytest.raises(ValidationError, match=f"{kind.value}/selection_correct has no variance formula"):
                    call()
        for kind in (K.DR1, K.DR2):
            assert variance(kind, R.SELECTION_CORRECT, analysis) > 0.0
            assert np.isfinite(cov_estimate(kind, R.SELECTION_CORRECT, K.HAJEK, analysis))


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
        assert variance(K.HAJEK, None, analysis) >= 0.0
        with pytest.raises(ValidationError, match="Hajek/both_correct has no variance formula under a pseudo_ml fit; "
                                                  "Hajek has one under the regime None there"):
            variance(K.HAJEK, R.BOTH_CORRECT, analysis)

    @pytest.mark.parametrize("call", [lambda a: variance(K.IPW1, None, a),
                                      lambda a: cov_estimate(K.DR1, R.BOTH_CORRECT, K.IPW1, a)],
                             ids=["var_prob_estimate", "cov_estimate"])
    def test_prob_kind_must_be_a_probability_sample_estimator(self, call):
        observed = make_observed(seed=62)
        with pytest.raises(ValidationError, match="IPW1 has no variance formula under a pseudo_ml fit; "
                                                  "IPW1 has one under selection_correct there"):
            call(Analysis(observed, default_fit(observed)))

    @pytest.mark.parametrize("call", [
        lambda a: variance(K.DR1, R.BOTH_CORRECT, a),
        lambda a: cov_estimate(K.DR2, R.BOTH_CORRECT, K.HAJEK, a),
        lambda a: centering_terms(K.IPW1, R.SELECTION_CORRECT, a),
        lambda a: regression_adjustment(K.IPW1, a),
        lambda a: residual_variance(a, ResidualVarianceModel.CONSTANT),
        lambda a: a.m_a,
        lambda a: a.m_b,
    ], ids=["variance", "cov_estimate", "centering_terms", "regression_adjustment", "residual_variance", "m_a", "m_b"])
    def test_without_a_fit_raises_a_validation_error(self, call):
        analysis = Analysis(make_observed(seed=70))
        with pytest.raises(ValidationError, match="needs a nuisance fit"):
            call(analysis)
        assert variance(K.HAJEK, None, analysis) > 0.0

"""Solver contracts for the nuisance-model fits.

Closed-form cases pin the estimating equations down exactly; the analytic
Newton jacobians are checked against central finite differences; and a
small repeated-sampling loop checks consistency of the selection fits
under a correctly specified model.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from surveyblend import (
    Covariate,
    DesignDescriptor,
    DesignKind,
    FitMethod,
    ModelSpec,
    NuisanceFit,
    ObservedData,
    OutcomeFamily,
    ScenarioConfig,
    SolverError,
    draw_samples,
    fit_nuisance,
    generate_population,
)
from surveyblend.nuisance import (
    KH_TOL,
    OUTCOME_TOL,
    SELECTION_TOL,
    _newton,
    expit,
    score_and_jacobian_calibration,
    score_and_jacobian_kh,
    score_and_jacobian_outcome_logistic,
    score_and_jacobian_pml,
    solve_spd,
    weighted_gram,
)
from surveyblend import Analysis, nuisance, regression_adjustment
from surveyblend.simulate import redraw_outcomes
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit as scipy_expit
from scipy.special import logit

from conftest import SCENARIO_BOTH_CORRECT, make_observed, default_fit, summary_row


def intercept_only_data(n_pop=50, n_b=20, *, census_a=True, seed=0):
    rng = default_rng(seed)
    n_a = n_pop if census_a else n_pop // 2
    pi_a = np.ones(n_a) if census_a else rng.uniform(0.3, 0.9, n_a)
    return ObservedData(
        n_population=n_pop,
        design=DesignDescriptor(DesignKind.POISSON),
        x_a=np.ones((n_a, 1)),
        pi_a=pi_a,
        y_a=rng.normal(size=n_a),
        x_b=np.ones((n_b, 1)),
        y_b=rng.normal(size=n_b),
    )


def fit_selection_pml(observed):
    return fit_nuisance(observed, ModelSpec(fit_method=FitMethod.PSEUDO_ML)).alpha


def fit_selection_calibration(observed):
    return fit_nuisance(observed, ModelSpec(fit_method=FitMethod.CALIBRATION)).alpha


def fit_outcome_ml(observed, family):
    return fit_nuisance(observed, ModelSpec(outcome_family=family)).beta


def fit_kim_haziza(observed, spec):
    fit = fit_nuisance(observed, spec)
    return fit.alpha, fit.beta


def fd_jacobian(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    k = x.size
    f0 = func(x)
    jac = np.zeros((f0.size, k))
    for j in range(k):
        step = h * (1.0 + abs(x[j]))
        e = np.zeros(k)
        e[j] = step
        jac[:, j] = (func(x + e) - func(x - e)) / (2.0 * step)
    return jac


class TestSelectionPml:
    def test_intercept_only_census_closed_form(self):
        observed = intercept_only_data(n_pop=50, n_b=20)
        alpha = fit_selection_pml(observed)
        assert alpha[0] == pytest.approx(logit(20 / 50), abs=1e-9)

    def test_score_residual_below_tolerance(self):
        observed = make_observed(seed=11)
        alpha = fit_selection_pml(observed)
        score, _ = score_and_jacobian_pml(observed, np.arange(observed.n_covariates))(alpha)
        assert np.max(np.abs(score)) <= SELECTION_TOL

    def test_jacobian_matches_finite_differences(self):
        observed = make_observed(seed=12)
        cols = np.arange(observed.n_covariates)
        rng = default_rng(5)
        for _ in range(5):
            alpha = rng.normal(scale=0.5, size=cols.size)
            score, jac = score_and_jacobian_pml(observed, cols)(alpha)
            fd = fd_jacobian(lambda a: score_and_jacobian_pml(observed, cols)(a)[0], alpha)
            assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


class TestSelectionCalibration:
    def test_intercept_only_closed_form(self):
        observed = intercept_only_data(n_pop=60, n_b=18, census_a=False, seed=3)
        alpha = fit_selection_calibration(observed)
        n_hat_a = float(np.sum(1.0 / observed.pi_a))
        assert alpha[0] == pytest.approx(logit(18 / n_hat_a), abs=1e-9)

    def test_residual_below_tolerance_per_component(self):
        observed = make_observed(seed=13)
        alpha = fit_selection_calibration(observed)
        score, _ = score_and_jacobian_calibration(observed, np.arange(observed.n_covariates))(alpha)
        assert np.max(np.abs(score)) <= SELECTION_TOL

    def test_jacobian_matches_finite_differences(self):
        observed = make_observed(seed=14)
        cols = np.arange(observed.n_covariates)
        rng = default_rng(6)
        for _ in range(5):
            alpha = rng.normal(scale=0.5, size=cols.size)
            _, jac = score_and_jacobian_calibration(observed, cols)(alpha)
            fd = fd_jacobian(lambda a: score_and_jacobian_calibration(observed, cols)(a)[0], alpha)
            assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


class TestOutcomeMl:
    def test_exact_interpolation(self):
        observed = make_observed(seed=15, noise_sd=0.0, beta=[1.0, 2.0, -0.5])
        beta = fit_outcome_ml(observed, OutcomeFamily.LINEAR_GAUSSIAN)
        assert beta == pytest.approx([1.0, 2.0, -0.5], abs=1e-10)

    def test_intercept_only_is_sample_mean(self):
        observed = intercept_only_data(n_pop=40, n_b=15, seed=4)
        beta = fit_outcome_ml(observed, OutcomeFamily.LINEAR_GAUSSIAN)
        assert beta[0] == pytest.approx(float(np.mean(observed.y_b)), rel=1e-12)

    def test_logistic_separation_raises(self):
        x1 = np.linspace(-2, 2, 30)
        x_b = np.column_stack([np.ones(30), x1])
        y_b = (x1 > 0).astype(float)  # perfectly separated
        observed = ObservedData(
            n_population=200, design=DesignDescriptor(DesignKind.POISSON),
            x_a=x_b, pi_a=np.full(30, 0.4), x_b=x_b, y_b=y_b)
        with pytest.raises(SolverError):
            fit_outcome_ml(observed, OutcomeFamily.LOGISTIC_BINARY)

    def test_logistic_fit_maximises_the_likelihood(self):
        rng = default_rng(18)
        observed = make_observed(seed=18)
        x_b = observed.x_b
        y_b = (rng.random(observed.n_b) < scipy_expit(x_b @ [-0.3, 0.8, -0.5])).astype(float)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, x_b=x_b, y_b=y_b)

        def neg_log_likelihood(beta):
            eta = x_b @ beta
            return np.sum(np.logaddexp(0.0, eta) - y_b * eta)

        oracle = minimize(neg_log_likelihood, np.zeros(3), method="BFGS", options={"gtol": 1e-9},
                          jac=lambda beta: x_b.T @ (scipy_expit(x_b @ beta) - y_b))
        assert oracle.success
        np.testing.assert_allclose(fit_outcome_ml(observed, OutcomeFamily.LOGISTIC_BINARY), oracle.x,
                                   rtol=0, atol=1e-6)

    def test_logistic_score_jacobian_matches_fd(self):
        rng = default_rng(8)
        observed = make_observed(seed=16)
        y_b = (rng.random(observed.n_b) < 0.5).astype(float)
        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a,
                                x_b=observed.x_b, y_b=y_b)
        cols = np.arange(observed.n_covariates)
        beta = rng.normal(scale=0.4, size=cols.size)
        _, jac = score_and_jacobian_outcome_logistic(observed, cols)(beta)
        fd = fd_jacobian(lambda b: score_and_jacobian_outcome_logistic(observed, cols)(b)[0], beta)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


class TestKimHaziza:
    def spec(self):
        return ModelSpec(fit_method=FitMethod.KIM_HAZIZA)

    def test_stacked_residual_below_tolerance(self):
        observed = make_observed(seed=17)
        alpha, beta = fit_kim_haziza(observed, self.spec())
        score, _ = score_and_jacobian_kh(observed, self.spec())(np.concatenate([alpha, beta]))
        assert np.max(np.abs(score)) <= KH_TOL

    def test_linear_intercept_forces_equal_weight_sums(self):
        observed = make_observed(seed=18)
        fit = fit_nuisance(observed, self.spec())
        n_hat_a = float(np.sum(1.0 / observed.pi_a))
        n_hat_b = float(np.sum(1.0 / fit.pi_b(observed.x_b)))
        assert abs(n_hat_a - n_hat_b) <= observed.n_population * KH_TOL * 10

    def test_agrees_with_separable_fits_on_exact_fit_data(self):
        # Intercept-only with a census sample A and constant outcome: the
        # pseudo-ML and calibration equations share their root and the
        # outcome residuals vanish, so the joint solve lands exactly on
        # (pml alpha, ml beta).
        observed = intercept_only_data(n_pop=30, n_b=12, seed=5)
        observed = ObservedData(n_population=30, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                                x_b=observed.x_b, y_b=np.full(12, 2.5))
        alpha, beta = fit_kim_haziza(observed, self.spec())
        assert alpha[0] == pytest.approx(fit_selection_pml(observed)[0], abs=1e-10)
        assert beta[0] == pytest.approx(2.5, abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        observed = make_observed(seed=19)
        spec = self.spec()
        rng = default_rng(9)
        k = observed.n_covariates
        for _ in range(5):
            theta = rng.normal(scale=0.4, size=2 * k)
            _, jac = score_and_jacobian_kh(observed, spec)(theta)
            fd = fd_jacobian(lambda t: score_and_jacobian_kh(observed, spec)(t)[0], theta)
            assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))

    def test_logistic_outcome_jacobian_matches_fd(self):
        rng = default_rng(10)
        base = make_observed(seed=20)
        y_b = (rng.random(base.n_b) < 0.4).astype(float)
        observed = ObservedData(n_population=base.n_population, design=base.design,
                                x_a=base.x_a, pi_a=base.pi_a, x_b=base.x_b, y_b=y_b)
        spec = ModelSpec(outcome_family=OutcomeFamily.LOGISTIC_BINARY, fit_method=FitMethod.KIM_HAZIZA)
        theta = rng.normal(scale=0.3, size=2 * observed.n_covariates)
        _, jac = score_and_jacobian_kh(observed, spec)(theta)
        fd = fd_jacobian(lambda t: score_and_jacobian_kh(observed, spec)(t)[0], theta)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


def kh_score_by_the_sums(observed, family, theta):
    """The module docstring's two Kim-Haziza sums over all covariate columns, written out unit by unit."""
    k = observed.n_covariates
    alpha, beta = theta[:k], theta[k:]

    def mean_and_gradient(x):
        eta = float(x @ beta)
        if family is OutcomeFamily.LINEAR_GAUSSIAN:
            return eta, x
        m = 1.0 / (1.0 + np.exp(-eta))
        return m, m * (1.0 - m) * x

    f1, f2 = np.zeros(k), np.zeros(k)
    for x, y in zip(observed.x_b, observed.y_b):
        pi = 1.0 / (1.0 + np.exp(-float(x @ alpha)))
        m, dm = mean_and_gradient(x)
        f1 += x * (1.0 - pi) / pi * (y - m)
        f2 -= dm / pi
    for x, pi_a in zip(observed.x_a, observed.pi_a):
        f2 += mean_and_gradient(x)[1] / pi_a
    return np.concatenate([f1, f2]) / observed.n_population


@pytest.mark.parametrize("family", list(OutcomeFamily))
def test_kh_score_matches_its_two_sums(family):
    # The finite-difference tests check the jacobian against the score; this checks the score itself.
    base = make_observed(seed=21)
    rng = default_rng(11)
    y_b = (rng.random(base.n_b) < 0.4).astype(float) if family is OutcomeFamily.LOGISTIC_BINARY else base.y_b
    observed = ObservedData(n_population=base.n_population, design=base.design,
                            x_a=base.x_a, pi_a=base.pi_a, x_b=base.x_b, y_b=y_b)
    system = score_and_jacobian_kh(observed, ModelSpec(outcome_family=family, fit_method=FitMethod.KIM_HAZIZA))
    for _ in range(20):
        theta = rng.normal(scale=0.5, size=2 * observed.n_covariates)
        want = kh_score_by_the_sums(observed, family, theta)
        assert np.max(np.abs(system(theta)[0] - want)) <= 1e-12 * np.max(np.abs(want))


class TestNewton:
    """The three failure exits of the damped Newton loop and its residual comparison, on tiny synthetic systems."""

    def test_zero_jacobian_is_singular(self):
        with pytest.raises(SolverError, match="toy: singular jacobian"):
            _newton(lambda x: (x + 1.0, np.zeros((2, 2))), np.zeros(2), 1e-10, "toy")

    def test_constant_residual_has_no_descent_direction(self):
        with pytest.raises(SolverError, match=r"toy: no descent direction \(residual 1.000e\+00\)"):
            _newton(lambda x: (np.ones(2), np.eye(2)), np.zeros(2), 1e-10, "toy")

    def test_nan_residual_off_the_start_has_no_descent_direction(self):
        # NaN < residual is False, so every halved candidate is refused and the loop ends as for no descent.
        def system(x):
            return (np.ones(2) if not x.any() else np.full(2, np.nan)), np.eye(2)
        with pytest.raises(SolverError, match=r"toy: no descent direction \(residual 1.000e\+00\)"):
            _newton(system, np.zeros(2), 1e-10, "toy")

    def test_infinite_start_takes_a_finite_candidate(self):
        # Any finite residual is below an infinite one, so the first candidate is taken and then passes.
        def system(x):
            return (np.full(2, np.inf) if np.all(x == 0.0) else np.full(2, 1e-12)), np.eye(2)
        assert _newton(system, np.zeros(2), 1e-10, "toy", land=False)[1:] == (1, 1e-12)

    def test_halving_steps_never_reach_a_zero_tolerance(self):
        # f = x with jacobian 2I halves the residual at every step, so it never reaches 0.
        with pytest.raises(SolverError, match="toy: no convergence after 100 iterations"):
            _newton(lambda x: (x, 2.0 * np.eye(2)), np.ones(2), 0.0, "toy")


def fit_with(alpha, beta):
    """A fit with the given coefficients over every column and the linear outcome family."""
    return NuisanceFit(alpha=alpha, beta=beta, spec=ModelSpec(), iterations=0, max_abs_score=0.0)


class TestPredict:
    def test_zero_coefficients_give_half(self):
        assert fit_with(np.zeros(2), np.zeros(2)).pi_b(np.array([[1.0, 3.0]]))[0] == 0.5

    def test_linear_prediction_is_dot_product(self):
        out = fit_with(np.zeros(2), np.array([1.0, 2.0])).m(np.array([[1.0, 3.0]]))
        assert out[0] == pytest.approx(7.0)

    def test_selection_probability_in_open_interval(self):
        rng = default_rng(11)
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        p = fit_with(rng.normal(size=3), np.zeros(3)).pi_b(x)
        assert np.all((p > 0) & (p < 1))

    @pytest.mark.parametrize("prediction", ["pi_b", "m"])
    def test_prediction_without_a_mask_does_not_copy_the_covariates(self, prediction):
        # with eight columns one copy of x outweighs the three vectors of n values that pi_b needs at once
        x = make_observed(seed=24, n_x=7, n_population=20_000).x_b
        fit = fit_with(np.full(8, 0.1), np.ones(8))
        tracemalloc.start()
        try:
            getattr(fit, prediction)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2


class TestScipyOracle:
    """The numpy logistic and Cholesky solve agree with the scipy functions they replace."""

    def test_logistic_matches_expit(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 3_000_001), [-np.inf, np.inf]])
        got, want = expit(x), scipy_expit(x)
        normal = want >= np.finfo(float).tiny
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 2e-15
        exact = (want == 0.0) | (want == 1.0)
        np.testing.assert_array_equal(got[exact], want[exact])
        np.testing.assert_array_equal(got == 0.0, want == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_solve_spd_matches_cho_solve(self, k):
        rng = default_rng(100 + k)
        for _ in range(20):
            m = rng.normal(size=(k, k))
            gram = m @ m.T + 0.1 * np.eye(k)
            for rhs in (rng.normal(size=k), rng.normal(size=(k, 3))):
                want = cho_solve(cho_factor(gram), rhs)
                np.testing.assert_allclose(solve_spd(gram, rhs, "test"), want,
                                           rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("gram", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                      [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["singular", "indefinite", "nan", "inf"])
    def test_solve_spd_rejects(self, gram):
        with pytest.raises(SolverError, match="singular gram matrix"):
            solve_spd(np.array(gram), np.ones(2), "test")


class TestWeightedGram:
    @pytest.mark.parametrize("block", [1, 7, 100, 8192])
    def test_its_blocks_sum_to_the_gram(self, monkeypatch, block):
        rng = default_rng(12)
        x, w = rng.normal(size=(100, 4)), rng.uniform(-1.0, 1.0, 100)
        monkeypatch.setattr(nuisance, "GRAM_BLOCK", block)
        want = np.einsum("i,ij,ik->jk", w, x, x)
        np.testing.assert_allclose(weighted_gram(x, w), want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_one_block_is_the_unblocked_product_bit_for_bit(self):
        # so fits on samples within one block do not move
        rng = default_rng(13)
        x, w = rng.normal(size=(500, 3)), rng.uniform(-1.0, 1.0, 500)
        assert np.array_equal(weighted_gram(x, w), (x * w[:, None]).T @ x)
        xt = np.ascontiguousarray(x.T)  # the layout the Newton systems hold
        assert np.array_equal(weighted_gram(xt.T, w), (xt * w) @ xt.T)

    @pytest.mark.parametrize("method", list(FitMethod), ids=lambda m: m.value)
    def test_fits_and_adjustments_over_many_blocks_agree(self, monkeypatch, method):
        # only the summation order differs; measured at most 2.5e-14 apart
        observed = make_observed(seed=14, n_population=2000)
        one = Analysis(observed, default_fit(observed, method=method))
        monkeypatch.setattr(nuisance, "GRAM_BLOCK", 16)
        many = Analysis(observed, default_fit(observed, method=method))
        np.testing.assert_allclose(np.concatenate([many.fit.alpha, many.fit.beta]),
                                   np.concatenate([one.fit.alpha, one.fit.beta]), rtol=1e-12)
        np.testing.assert_allclose(regression_adjustment(many, on_residuals=True, centered=True),
                                   regression_adjustment(one, on_residuals=True, centered=True), rtol=1e-12)


class TestFitNuisance:
    def test_diagnostics_recorded(self):
        observed = make_observed(seed=21)
        fit = default_fit(observed)
        assert fit.max_abs_score <= SELECTION_TOL
        assert np.all(np.isfinite(fit.alpha)) and np.all(np.isfinite(fit.beta))

    def test_masks_are_applied(self):
        observed = make_observed(seed=22)
        fit = default_fit(observed, outcome_cols=(0, 1), selection_cols=(0, 2))
        assert fit.alpha.size == 2 and fit.beta.size == 2
        # predictions must route through the masks without shape errors
        assert fit.m(observed.x_a).shape == (observed.n_a,)
        assert fit.pi_b(observed.x_b).shape == (observed.n_b,)

    @pytest.mark.parametrize("n_b", [200, 199])
    @pytest.mark.parametrize("method", list(FitMethod))
    def test_census_sample_b_fits(self, method, n_b):
        # n_B = N is valid input, and a start at logit(n_B / (N - n_B)) would divide by zero there.
        # Sample A takes every other unit at pi_a = 0.4, so its HT size estimate (250) exceeds N and
        # the selection equations have a root with every fitted pi_b below 1.
        rng = default_rng(2)
        x = np.column_stack([np.ones(200), rng.normal(size=200)])
        y = x @ [1.0, 0.8] + 0.5 * rng.normal(size=200)
        observed = ObservedData(n_population=200, design=DesignDescriptor(DesignKind.POISSON),
                                x_a=x[::2], pi_a=np.full(100, 0.4), y_a=y[::2], x_b=x[:n_b], y_b=y[:n_b])
        fit = fit_nuisance(observed, ModelSpec(fit_method=method))
        assert fit.max_abs_score <= (KH_TOL if method is FitMethod.KIM_HAZIZA else SELECTION_TOL)
        assert np.all(np.isfinite(fit.alpha)) and np.all(fit.pi_b(observed.x_b) < 1.0)

    def test_calibration_method_dispatch(self):
        observed = make_observed(seed=23)
        fit = default_fit(observed, method=FitMethod.CALIBRATION)
        alpha = fit_selection_calibration(observed)
        assert fit.alpha == pytest.approx(alpha, rel=1e-10)


@pytest.fixture(scope="module")
def population():
    # Half-population probability sample: at this size the order-1/n
    # solver bias sits well inside the Monte Carlo resolution.
    config = ScenarioConfig(
        n_population=10_000,
        covariates=(Covariate("normal"),),
        beta_true=(1.0, 1.0),
        alpha_true=(-2.0, 1.0),
        sample_a_size=5000,
        replicates=2,
        seed=404,
    )
    return config, generate_population(config)


# study-kh's frame: SCENARIO_KH's covariates with SRSWOR sample A and a logistic-binary outcome.
SCENARIO_KH_LOGISTIC = ScenarioConfig(
    n_population=10_000,
    covariates=(Covariate("normal"), Covariate("square_of", (1,))),
    beta_true=(-0.5, 1.0, 0.7),
    alpha_true=(-2.2, 0.5, 0.0),
    outcome_family=OutcomeFamily.LOGISTIC_BINARY,
    design_kind=DesignKind.SRSWOR,
    fit_method=FitMethod.KIM_HAZIZA,
    outcome_cols_override=(0, 1),
    selection_cols_override=(0, 1),
    seed=1,
)


@functools.cache
def replicate_data(config):
    """The observed data of 64 replicates of ``config``, each with its own outcome and sample draws."""
    population = generate_population(config)
    draws = []
    for rep in range(64):
        y_ss, sample_ss = SeedSequence([config.seed, rep]).spawn(2)
        draws.append(draw_samples(population, sample_ss, redraw_outcomes(population, config, y_ss))[0])
    return draws


def test_separable_fits_land_on_one_root_from_either_start():
    # The landing step makes the separable solves start-independent to rounding (1.2e-15 here).
    # Without it the solutions of the two starts differ by up to 5.8e-10 of their largest entry.
    worst = 0.0
    for observed in replicate_data(SCENARIO_KH_LOGISTIC):
        cols = np.arange(observed.n_covariates)
        intercept = np.log((observed.n_b + 0.5) / (observed.n_population - observed.n_b + 0.5))
        start = np.where(cols == 0, intercept, 0.0)
        for system, tol in ((score_and_jacobian_pml(observed, cols), SELECTION_TOL),
                            (score_and_jacobian_calibration(observed, cols), SELECTION_TOL),
                            (score_and_jacobian_outcome_logistic(observed, cols), OUTCOME_TOL)):
            from_zero = _newton(system, np.zeros(cols.size), tol, "zero start")[0]
            from_start = _newton(system, start, tol, "intercept start")[0]
            worst = max(worst, float(np.max(np.abs(from_start - from_zero)) / np.max(np.abs(from_zero))))
    assert worst <= 1e-13


@pytest.mark.parametrize("config, bound", [(SCENARIO_BOTH_CORRECT, 4.796875), (SCENARIO_KH_LOGISTIC, 13.03125)],
                         ids=["both_correct", "kh_logistic"])
def test_mean_newton_iterations_stay_at_their_measured_count(config, bound):
    # Exact counts, so unlike a timing no host noise moves them: a slower solve fails here.
    # Before the empirical-logit start and the warm-start landing they were 6.0 and 15.03125.
    iterations = [fit_nuisance(observed, config.model_spec).iterations for observed in replicate_data(config)]
    assert np.mean(iterations) <= bound


class TestMonteCarloConsistency:
    """Mean of the selection fit over repeated samples approaches the truth."""

    def _alpha_means(self, population, fitter, n_rep=500):
        config, pop = population
        draws = []
        for r in range(n_rep):
            observed, _ = draw_samples(pop, 50_000 + r)
            draws.append(fitter(observed))
        draws = np.asarray(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_rep)
        return mean, se, np.asarray(config.alpha_true)

    def test_pml_recovers_true_alpha(self, population):
        mean, se, truth = self._alpha_means(population, fit_selection_pml)
        assert np.all(np.abs(mean - truth) < 3.0 * se)

    def test_calibration_recovers_true_alpha(self, population):
        mean, se, truth = self._alpha_means(population, fit_selection_calibration, n_rep=150)
        assert np.all(np.abs(mean - truth) < 3.0 * se)


def test_kh_doubly_robust_point_estimate(mc_kim_haziza):
    # Wrong outcome model, correct selection model, joint fitting: the DR1
    # point estimate stays unbiased within Monte Carlo resolution.
    row = summary_row(mc_kim_haziza, "DR1/kh_doubly_robust")
    assert abs(row.mc_bias) < 3.0 * row.mc_bias_se

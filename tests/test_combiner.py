"""Pooling weight arithmetic, fallback behavior, and the full pool pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from surveyblend import (
    Analysis,
    EstimatorKind,
    Regime,
    ValidationError,
    cov_estimate,
    pool,
    pooled_variance,
    variance,
    z_score,
)
from surveyblend.combiner import combine
from conftest import default_fit, make_observed, summary_row

K = EstimatorKind


def optimal_weight(var_p, var_dr, cov):
    """The pooling weight combine() chooses for these inputs."""
    return combine(0.0, var_p, 0.0, var_dr, cov).w


class TestOptimalWeight:
    def test_symmetric_inputs_split_evenly(self):
        assert optimal_weight(1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_direct_arithmetic(self):
        assert optimal_weight(2.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)

    def test_dr_dominates_when_cov_equals_its_variance(self):
        assert optimal_weight(3.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_huge_dr_variance_pushes_weight_to_zero(self):
        assert optimal_weight(1.0, 1e12, 0.0) == pytest.approx(0.0, abs=1e-11)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            optimal_weight(-0.1, 1.0, 0.0)

    def test_degenerate_denominator_falls_back(self):
        report = combine(1.0, 2.0, 1.5, 2.0, 2.0)
        assert report.fallback_used
        assert report.w in (0.0, 1.0)
        # equal variances: the probability-sample side wins the tie
        assert report.w == 0.0


class TestPooledVariance:
    def test_endpoints(self):
        assert pooled_variance(0.0, 3.0, 7.0, 1.0) == 3.0
        assert pooled_variance(1.0, 3.0, 7.0, 1.0) == 7.0

    def test_halfway_independent(self):
        assert pooled_variance(0.5, 1.0, 1.0, 0.0) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(-1, 1), st.floats(-2, 3))
    def test_quadratic_minimized_at_closed_form_weight(self, var_p, var_dr, rho, w):
        cov = rho * np.sqrt(var_p * var_dr)
        denom = var_p + var_dr - 2 * cov
        if denom <= 1e-10 * (var_p + var_dr):
            return
        w_star = optimal_weight(var_p, var_dr, cov)
        assert pooled_variance(w_star, var_p, var_dr, cov) <= (
            pooled_variance(w, var_p, var_dr, cov) + 1e-12 * (var_p + var_dr))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(-0.99, 0.99))
    def test_optimum_never_exceeds_either_input_variance(self, var_p, var_dr, rho):
        cov = rho * np.sqrt(var_p * var_dr)
        w_star = optimal_weight(var_p, var_dr, cov)
        best = pooled_variance(w_star, var_p, var_dr, cov)
        assert best <= min(var_p, var_dr) + 1e-12 * (var_p + var_dr)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 10), st.floats(0.01, 10), st.floats(-1, 1), st.floats(-2, 3))
    def test_role_swap_symmetry(self, var_p, var_dr, rho, w):
        cov = rho * np.sqrt(var_p * var_dr)
        denom = var_p + var_dr - 2 * cov
        if denom <= 1e-10 * (var_p + var_dr):
            return
        assert optimal_weight(var_p, var_dr, cov) == pytest.approx(
            1.0 - optimal_weight(var_dr, var_p, cov), rel=1e-9, abs=1e-12)
        assert pooled_variance(w, var_p, var_dr, cov) == pytest.approx(
            pooled_variance(1.0 - w, var_dr, var_p, cov), rel=1e-9, abs=1e-12)


class TestCombine:
    def test_equal_point_estimates_stay_put(self):
        report = combine(2.5, 1.0, 2.5, 3.0, 0.5)
        assert report.pooled_estimate == pytest.approx(2.5)
        assert report.ci_low <= report.pooled_estimate <= report.ci_high

    def test_report_records_inputs(self):
        report = combine(1.0, 2.0, 3.0, 4.0, 0.25, level=0.9)
        assert (report.est_prob, report.var_prob) == (1.0, 2.0)
        assert (report.est_dr, report.var_dr) == (3.0, 4.0)
        assert report.cov == 0.25 and report.level == 0.9

    def test_level_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            combine(0.0, 1.0, 0.0, 1.0, 0.0, level=1.2)


class TestZScore:
    def test_known_quantiles(self):
        assert z_score(0.95) == pytest.approx(1.959963984540054, rel=1e-15)
        assert z_score(0.9) == pytest.approx(1.6448536269514722, rel=1e-15)

    def test_matches_scipy_ndtri(self):
        levels = np.linspace(0.001, 0.999999, 20_001)
        got = np.array([z_score(level) for level in levels])
        want = ndtri(0.5 * (1.0 + levels))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14


class TestPoolPipeline:
    def test_pool_matches_component_calls(self):
        observed = make_observed(seed=70)
        fit = default_fit(observed)
        report = pool(Analysis(observed, fit), K.DR2, Regime.BOTH_CORRECT, K.HAJEK)
        assert report.est_prob == Analysis(observed).point(K.HAJEK)
        assert report.var_prob == variance(K.HAJEK, None, Analysis(observed))
        assert report.est_dr == Analysis(observed, fit).point(K.DR2)
        assert report.var_dr == variance(K.DR2, Regime.BOTH_CORRECT, Analysis(observed, fit))
        assert report.cov == cov_estimate(K.DR2, Regime.BOTH_CORRECT, K.HAJEK, Analysis(observed, fit))
        expected = (1 - report.w) * report.est_prob + report.w * report.est_dr
        assert report.pooled_estimate == pytest.approx(expected, rel=1e-14)
        assert report.pooled_variance == pytest.approx(
            pooled_variance(report.w, report.var_prob, report.var_dr, report.cov), rel=1e-14)

    def test_pool_needs_outcome_on_sample_a(self):
        observed = make_observed(seed=71, y_on_a=False)
        fit = default_fit(observed)
        with pytest.raises(ValidationError):
            pool(Analysis(observed, fit), K.DR1, Regime.BOTH_CORRECT, K.HT)

    def test_pooled_mc_variance_beats_components(self, mc_both_correct):
        pooled = summary_row(mc_both_correct, "pooled(DR2/both_correct,Hajek)")
        dr = summary_row(mc_both_correct, "DR2/both_correct")
        prob = summary_row(mc_both_correct, "Hajek")
        margin = 2.0 * (pooled.emp_variance_se / pooled.emp_variance
                        + min(dr.emp_variance_se / dr.emp_variance,
                              prob.emp_variance_se / prob.emp_variance))
        assert pooled.emp_variance <= min(dr.emp_variance, prob.emp_variance) * (1.0 + margin)

"""Horvitz-Thompson machinery against hand values and an exact enumeration oracle.

The enumeration oracle lists every SRSWOR sample of a small population,
computes the exact design variance/covariance of the HT mean, and checks
that the estimator is exactly design-unbiased (all pairwise probabilities
are positive, so this must hold to machine precision).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    DesignDescriptor,
    DesignKind,
    ValidationError,
    hajek_mean,
    ht_cov_estimate,
    ht_mean,
    ht_var_estimate,
)


def poisson_provider(pi, n_population):
    """The ``(design, pi, N)`` arguments of the HT variance functions for a Poisson sample."""
    return DesignDescriptor(DesignKind.POISSON), np.asarray(pi, float), n_population


def srswor_provider(n, n_population, n_sampled=None):
    """The ``(design, pi, N)`` arguments of the HT variance functions for an SRSWOR sample."""
    size = n if n_sampled is None else n_sampled
    return DesignDescriptor(DesignKind.SRSWOR, n=n), np.full(size, n / n_population), n_population


def joint_prob(provider, i, j):
    """Reference P(both unit i and unit j are sampled), by definition; pi_i when i == j."""
    design, pi, big_n = provider
    if i == j:
        return float(pi[i])
    if design.kind is DesignKind.POISSON:
        return float(pi[i] * pi[j])
    n = design.n
    return n * (n - 1) / (big_n * (big_n - 1))


class TestJointProb:
    def test_poisson_off_diagonal_is_product(self):
        p = poisson_provider([0.2, 0.5], 10)
        assert joint_prob(p, 0, 1) == pytest.approx(0.10, abs=0)

    def test_srswor_off_diagonal(self):
        p = srswor_provider(4, 10)
        assert joint_prob(p, 0, 1) == pytest.approx(4 * 3 / (10 * 9), abs=0)

    def test_diagonal_is_first_order(self):
        p = poisson_provider([0.3, 0.6], 10)
        assert joint_prob(p, 0, 0) == 0.3
        q = srswor_provider(3, 10)
        assert joint_prob(q, 1, 1) == pytest.approx(0.3)

    def test_symmetry(self):
        p = poisson_provider([0.2, 0.5, 0.7], 10)
        assert joint_prob(p, 0, 2) == joint_prob(p, 2, 0)


class TestHtMean:
    def test_direct_evaluation(self):
        assert ht_mean([1.0, 3.0], [0.5, 0.5], 4) == pytest.approx(2.0)

    def test_census_identity(self):
        y = np.array([0.5, 1.5, -2.0, 4.0])
        assert ht_mean(y, np.ones(4), 4) == pytest.approx(float(np.mean(y)))

    def test_single_unit(self):
        assert ht_mean([5.0], [0.25], 2) == pytest.approx(10.0)


class TestHajekMean:
    def test_reproduces_constants(self):
        assert hajek_mean([3.3, 3.3, 3.3], [0.9, 0.2, 0.5]) == pytest.approx(3.3)

    def test_equal_weights_reduce_to_sample_mean(self):
        assert hajek_mean([1.0, 3.0], [0.5, 0.5]) == pytest.approx(2.0)

    def test_direct_evaluation(self):
        assert hajek_mean([0.0, 4.0], [0.8, 0.2]) == pytest.approx(3.2)

    def test_empty_sample_errors(self):
        with pytest.raises(ValidationError, match="empty"):
            hajek_mean([], [])


POISSON = DesignDescriptor(DesignKind.POISSON)


# Each estimate on two units' values, at the inclusion probabilities it is given.
ON_TWO_UNITS = pytest.mark.parametrize(
    "estimate", [lambda pi: ht_mean([1.0, 2.0], pi, 10),
                 lambda pi: hajek_mean([1.0, 2.0], pi),
                 lambda pi: ht_var_estimate([1.0, 2.0], POISSON, pi, 10),
                 lambda pi: ht_cov_estimate([1.0, 2.0], [0.5, -1.0], POISSON, pi, 10)],
    ids=["ht_mean", "hajek_mean", "ht_var_estimate", "ht_cov_estimate"])


@pytest.mark.parametrize("pi, message", [([0.0, 0.5], "nonpositive inclusion probability"),
                                         ([-0.2, 0.5], "nonpositive inclusion probability"),
                                         ([np.nan, 0.5], "nonpositive inclusion probability"),
                                         ([1.5, 0.5], "inclusion probability above 1")],
                         ids=["zero", "negative", "nan", "above_one"])
@ON_TWO_UNITS
def test_inclusion_probability_outside_0_1_is_rejected(estimate, pi, message):
    with pytest.raises(ValidationError, match=message):
        estimate(np.array(pi))


@ON_TWO_UNITS
def test_probabilities_of_another_length_are_rejected(estimate):
    with pytest.raises(ValidationError, match="different lengths|must align with the sampled units"):
        estimate(np.full(3, 0.5))


class TestHtVarEstimate:
    def test_zero_residuals(self):
        p = poisson_provider([0.4, 0.6, 0.8], 20)
        assert ht_var_estimate(np.zeros(3), *p) == 0.0

    def test_single_unit_poisson(self):
        p = poisson_provider([0.5], 10)
        assert ht_var_estimate(np.array([2.0]), *p) == pytest.approx(0.08)

    def test_poisson_closed_form_matches_dense_double_sum(self):
        rng = np.random.default_rng(42)
        pi = rng.uniform(0.2, 0.9, 12)
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        p = poisson_provider(pi, 50)
        dense = 0.0
        for i in range(12):
            for j in range(12):
                pij = joint_prob(p, i, j)
                dense += (pij - pi[i] * pi[j]) / pij * (u[i] / pi[i]) * (v[j] / pi[j])
        dense /= 50**2
        assert ht_cov_estimate(u, v, *p) == pytest.approx(dense, rel=1e-12)

    def test_srswor_closed_form_matches_dense_double_sum(self):
        rng = np.random.default_rng(7)
        n, big_n = 5, 30
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        p = srswor_provider(n, big_n)
        pi = np.full(n, n / big_n)
        dense = 0.0
        for i in range(n):
            for j in range(n):
                pij = joint_prob(p, i, j)
                dense += (pij - pi[i] * pi[j]) / pij * (u[i] / pi[i]) * (v[j] / pi[j])
        dense /= big_n**2
        assert ht_cov_estimate(u, v, *p) == pytest.approx(dense, rel=1e-12)


class TestEnumerationOracle:
    """Exhaustive SRSWOR enumeration; estimator must be exactly unbiased."""

    def enumerate_unbiasedness(self, z, w, big_n, n):
        samples = list(itertools.combinations(range(big_n), n))
        pi = n / big_n
        ht_z = [sum(z[i] for i in s) / pi / big_n for s in samples]
        ht_w = [sum(w[i] for i in s) / pi / big_n for s in samples]
        exact_cov = float(np.mean([(a - np.mean(ht_z)) * (b - np.mean(ht_w))
                                   for a, b in zip(ht_z, ht_w)]))
        est = []
        for s in samples:
            provider = srswor_provider(n, big_n)
            est.append(ht_cov_estimate(z[list(s)], w[list(s)], *provider))
        return float(np.mean(est)), exact_cov

    def test_variance_unbiased_n6_choose_3(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=6)
        mean_est, exact = self.enumerate_unbiasedness(z, z, 6, 3)
        assert mean_est == pytest.approx(exact, rel=1e-13, abs=1e-15)

    def test_covariance_unbiased_n6_choose_3(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=6)
        w = rng.normal(size=6)
        mean_est, exact = self.enumerate_unbiasedness(z, w, 6, 3)
        assert mean_est == pytest.approx(exact, rel=1e-13, abs=1e-15)

    def test_variance_unbiased_n8_choose_4(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=8)
        mean_est, exact = self.enumerate_unbiasedness(z, z, 8, 4)
        assert mean_est == pytest.approx(exact, rel=1e-13, abs=1e-15)


class TestProperties:
    def test_cov_of_u_with_u_is_var(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=9)
        p = poisson_provider(rng.uniform(0.2, 0.8, 9), 40)
        assert ht_cov_estimate(u, u, *p) == ht_var_estimate(u, *p)

    def test_cov_with_zero_is_zero(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=9)
        p = poisson_provider(rng.uniform(0.2, 0.8, 9), 40)
        assert ht_cov_estimate(u, np.zeros(9), *p) == 0.0

    def test_poisson_collapses_to_diagonal_sum(self):
        rng = np.random.default_rng(5)
        pi = rng.uniform(0.1, 0.9, 15)
        u = rng.normal(size=15)
        v = rng.normal(size=15)
        p = poisson_provider(pi, 60)
        expected = float(np.sum((1 - pi) * u * v / pi**2) / 60**2)
        assert ht_cov_estimate(u, v, *p) == pytest.approx(expected, rel=0, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-4, 4))
    def test_var_is_quadratic_in_scale(self, seed, c):
        rng = np.random.default_rng(seed)
        n = 8
        u = rng.normal(size=n)
        p = poisson_provider(rng.uniform(0.2, 0.9, n), 30)
        base = ht_var_estimate(u, *p)
        assert ht_var_estimate(c * u, *p) == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cov_symmetric_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        kind = seed % 2
        p = (poisson_provider(rng.uniform(0.2, 0.9, n), 25) if kind == 0
             else srswor_provider(n, 25))
        assert ht_cov_estimate(u, v, *p) == pytest.approx(ht_cov_estimate(v, u, *p), rel=1e-12, abs=1e-15)
        lhs = ht_cov_estimate(u + w, v, *p)
        rhs = ht_cov_estimate(u, v, *p) + ht_cov_estimate(w, v, *p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        n = 10
        u = rng.normal(size=n)
        pi = rng.uniform(0.2, 0.9, n)
        p = poisson_provider(pi, 40)
        perm = rng.permutation(n)
        p_perm = poisson_provider(pi[perm], 40)
        assert ht_var_estimate(u[perm], *p_perm) == pytest.approx(ht_var_estimate(u, *p), rel=1e-12)

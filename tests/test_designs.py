"""Horvitz-Thompson machinery against hand values and an exact enumeration oracle.

The enumeration oracle lists every SRSWOR sample of a small population,
computes the exact design variance/covariance of the HT mean, and checks
that the estimator is exactly design-unbiased (all pairwise probabilities
are positive, so this must hold to machine precision).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import DesignDescriptor, DesignKind, ValidationError
from surveyblend.designs import design_weights

POISSON = DesignDescriptor(DesignKind.POISSON)


def poisson_args(pi, n_population):
    """The ``(design, pi, N)`` arguments of :func:`design_weights` for a Poisson sample."""
    return POISSON, np.asarray(pi, float), n_population


def srswor_args(n, n_population):
    """The ``(design, pi, N)`` arguments of :func:`design_weights` for an SRSWOR sample of size ``n``."""
    return DesignDescriptor(DesignKind.SRSWOR, n=n), np.full(n, n / n_population), n_population


def joint_prob(args, i, j):
    """Reference P(both unit i and unit j are sampled), by definition; pi_i when i == j."""
    design, pi, big_n = args
    if i == j:
        return float(pi[i])
    if design.kind is DesignKind.POISSON:
        return float(pi[i] * pi[j])
    n = design.n
    return n * (n - 1) / (big_n * (big_n - 1))


class TestJointProb:
    def test_poisson_off_diagonal_is_product(self):
        p = poisson_args([0.2, 0.5], 10)
        assert joint_prob(p, 0, 1) == pytest.approx(0.10, abs=0)

    def test_srswor_off_diagonal(self):
        p = srswor_args(4, 10)
        assert joint_prob(p, 0, 1) == pytest.approx(4 * 3 / (10 * 9), abs=0)

    def test_diagonal_is_first_order(self):
        p = poisson_args([0.3, 0.6], 10)
        assert joint_prob(p, 0, 0) == 0.3
        q = srswor_args(3, 10)
        assert joint_prob(q, 1, 1) == pytest.approx(0.3)

    def test_symmetry(self):
        p = poisson_args([0.2, 0.5, 0.7], 10)
        assert joint_prob(p, 0, 2) == joint_prob(p, 2, 0)


class TestHtMean:
    def test_direct_evaluation(self):
        assert design_weights(POISSON, [0.5, 0.5], 4).ht_mean(np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_census_identity(self):
        y = np.array([0.5, 1.5, -2.0, 4.0])
        assert design_weights(POISSON, np.ones(4), 4).ht_mean(y) == pytest.approx(float(np.mean(y)))

    def test_single_unit(self):
        assert design_weights(POISSON, [0.25], 2).ht_mean(np.array([5.0])) == pytest.approx(10.0)


class TestHajekMean:
    def test_reproduces_constants(self):
        weights = design_weights(POISSON, [0.9, 0.2, 0.5], 20)
        assert weights.hajek_mean(np.full(3, 3.3)) == pytest.approx(3.3)

    def test_equal_weights_reduce_to_sample_mean(self):
        assert design_weights(POISSON, [0.5, 0.5], 7).hajek_mean(np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_direct_evaluation(self):
        # (0/0.8 + 4/0.2) / (1/0.8 + 1/0.2) = 20 / 6.25
        assert design_weights(POISSON, [0.8, 0.2], 10).hajek_mean(np.array([0.0, 4.0])) == pytest.approx(3.2)

    def test_empty_sample_errors(self):
        # an empty sample has no weights, so its Hajek mean would divide 0.0 by 0.0
        with pytest.raises(ValidationError, match="empty sample"):
            design_weights(POISSON, [], 10)


@pytest.mark.parametrize("pi, message", [([0.0, 0.5], "nonpositive inclusion probability"),
                                         ([-0.2, 0.5], "nonpositive inclusion probability"),
                                         ([np.nan, 0.5], "nonpositive inclusion probability"),
                                         ([1.5, 0.5], "inclusion probability above 1")],
                         ids=["zero", "negative", "nan", "above_one"])
@pytest.mark.parametrize("estimate", ["ht_mean"])
def test_inclusion_probability_outside_0_1_is_rejected(estimate, pi, message):
    # design_weights rejects pi before any estimate is read from the weights; the HT mean stands for all of them
    with pytest.raises(ValidationError, match=message):
        getattr(design_weights(POISSON, np.array(pi), 10), estimate)(np.array([1.0, 2.0]))


class TestHtVarEstimate:
    def test_zero_residuals(self):
        weights = design_weights(*poisson_args([0.4, 0.6, 0.8], 20))
        assert weights.cov(np.zeros(3), np.zeros(3)) == 0.0

    def test_single_unit_poisson(self):
        # (1 - 0.5) * (2 / 0.5)^2 / 10^2
        weights = design_weights(*poisson_args([0.5], 10))
        assert weights.cov(np.array([2.0]), np.array([2.0])) == pytest.approx(0.08)

    def test_poisson_closed_form_matches_dense_double_sum(self):
        rng = np.random.default_rng(42)
        pi = rng.uniform(0.2, 0.9, 12)
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        p = poisson_args(pi, 50)
        dense = 0.0
        for i in range(12):
            for j in range(12):
                pij = joint_prob(p, i, j)
                dense += (pij - pi[i] * pi[j]) / pij * (u[i] / pi[i]) * (v[j] / pi[j])
        dense /= 50**2
        assert design_weights(*p).cov(u, v) == pytest.approx(dense, rel=1e-12)

    def test_srswor_closed_form_matches_dense_double_sum(self):
        rng = np.random.default_rng(7)
        n, big_n = 5, 30
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        p = srswor_args(n, big_n)
        pi = np.full(n, n / big_n)
        dense = 0.0
        for i in range(n):
            for j in range(n):
                pij = joint_prob(p, i, j)
                dense += (pij - pi[i] * pi[j]) / pij * (u[i] / pi[i]) * (v[j] / pi[j])
        dense /= big_n**2
        assert design_weights(*p).cov(u, v) == pytest.approx(dense, rel=1e-12)


class TestEnumerationOracle:
    """Exhaustive SRSWOR enumeration; estimator must be exactly unbiased."""

    def enumerate_unbiasedness(self, z, w, big_n, n):
        samples = list(itertools.combinations(range(big_n), n))
        pi = n / big_n
        ht_z = [sum(z[i] for i in s) / pi / big_n for s in samples]
        ht_w = [sum(w[i] for i in s) / pi / big_n for s in samples]
        exact_cov = float(np.mean([(a - np.mean(ht_z)) * (b - np.mean(ht_w))
                                   for a, b in zip(ht_z, ht_w)]))
        weights = design_weights(*srswor_args(n, big_n))  # every sample has the same probabilities
        est = [weights.cov(z[list(s)], w[list(s)]) for s in samples]
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


class TestPoissonEnumerationOracle:
    """Every one of the 2^N Poisson samples of a population of N = 10, each with its probability."""

    def test_covariance_is_unbiased_over_every_sample(self):
        rng = np.random.default_rng(7)
        big_n = 10
        pi = rng.uniform(0.2, 0.9, big_n)
        z = rng.normal(size=big_n)
        w = rng.normal(size=big_n)
        probs, ht, est = [], [], []
        for included in itertools.product((False, True), repeat=big_n):
            s = np.array(included)
            probs.append(float(np.prod(np.where(s, pi, 1.0 - pi))))
            ht.append([float(np.sum(v[s] / pi[s])) / big_n for v in (z, w)])
            # design_weights rejects an empty sample; its estimate is the empty sum, 0
            est.append(design_weights(*poisson_args(pi[s], big_n)).cov(z[s], w[s]) if s.any() else 0.0)
        probs, ht = np.array(probs), np.array(ht)
        mean_ht = probs @ ht
        exact_cov = float(probs @ ((ht[:, 0] - mean_ht[0]) * (ht[:, 1] - mean_ht[1])))
        closed_form = float(np.sum((1.0 - pi) / pi * z * w)) / big_n**2
        # The enumerated design covariance of the two HT means is the closed form, and so is the estimate's mean.
        # Each sums 1024 terms of mixed sign; rounding leaves about 1e-15 relative (at most 2.2e-16 measured).
        assert probs.sum() == pytest.approx(1.0, rel=1e-14)
        assert exact_cov == pytest.approx(closed_form, rel=1e-12)
        assert float(probs @ est) == pytest.approx(closed_form, rel=1e-12)

    def test_census_sample_has_zero_coefficients(self):
        # Every unit sampled with pi = 1: the HT mean has no design variance, and the covariance form is 0 exactly.
        weights = design_weights(*poisson_args(np.ones(10), 10))
        assert not weights.centered and np.all(weights.c == 0.0)
        assert weights.cov(np.arange(10.0), np.ones(10)) == 0.0


class TestSrsworExactOracle:
    """SRSWOR covariances against an exact rational evaluation of the textbook form over the same float inputs.

    The oracle is (1 - n/N) sum (u - u_bar)(v - v_bar) / (n (n - 1)) in ``Fraction`` arithmetic, so
    the only error is the package's rounding. The inputs sit 0 to 10^8 standard deviations from 0;
    over 20 draws a case the centered form was off by at most 5.3e-16 relative at every shift, where
    the expanded form cross (u.w)(v.w) + sum c u v was off by 2e-10 at 10^3, 2e-4 at 10^6 and 8.5 at 10^8.
    """

    TOLERANCE = 1e-12  # relative

    @staticmethod
    def exact(u, v, n, big_n):
        u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
        u_bar, v_bar = sum(u) / n, sum(v) / n
        return (1 - Fraction(n, big_n)) * sum((a - u_bar) * (b - v_bar) for a, b in zip(u, v)) / (n * (n - 1))

    @pytest.mark.parametrize("shift_sd", [0.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("n", [50, 500])
    def test_covariance_and_variance_match_the_exact_form(self, n, shift_sd):
        big_n = 10_000
        rng = np.random.default_rng(n)
        sd = 2.5
        u = shift_sd * sd + sd * rng.normal(size=n)
        v = -shift_sd * sd + 0.6 * (u - shift_sd * sd) + sd * rng.normal(size=n)  # correlated, so cov is not ~0
        weights = design_weights(*srswor_args(n, big_n))
        for a, b in ((u, v), (u, u)):
            want = self.exact(a, b, n, big_n)
            assert abs(Fraction(weights.cov(a, b)) - want) <= self.TOLERANCE * abs(want)


class TestProperties:
    def test_cov_of_u_with_u_is_var(self):
        # under SRSWOR the HT mean is the sample mean, with textbook variance estimate (1 - n/N) s^2 / n
        rng = np.random.default_rng(3)
        u = rng.normal(size=9)
        var = design_weights(*srswor_args(9, 40)).cov(u, u)
        assert var == pytest.approx((1 - 9 / 40) * float(np.var(u, ddof=1)) / 9, rel=1e-12)

    def test_cov_with_zero_is_zero(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=9)
        weights = design_weights(*poisson_args(rng.uniform(0.2, 0.8, 9), 40))
        assert weights.cov(u, np.zeros(9)) == 0.0

    def test_poisson_collapses_to_diagonal_sum(self):
        rng = np.random.default_rng(5)
        pi = rng.uniform(0.1, 0.9, 15)
        u = rng.normal(size=15)
        v = rng.normal(size=15)
        weights = design_weights(*poisson_args(pi, 60))
        expected = float(np.sum((1 - pi) * u * v / pi**2) / 60**2)
        assert weights.cov(u, v) == pytest.approx(expected, rel=0, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-4, 4))
    def test_var_is_quadratic_in_scale(self, seed, c):
        rng = np.random.default_rng(seed)
        n = 8
        u = rng.normal(size=n)
        weights = design_weights(*poisson_args(rng.uniform(0.2, 0.9, n), 30))
        base = weights.cov(u, u)
        assert weights.cov(c * u, c * u) == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cov_symmetric_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        kind = seed % 2
        weights = design_weights(*(poisson_args(rng.uniform(0.2, 0.9, n), 25) if kind == 0
                                   else srswor_args(n, 25)))
        assert weights.cov(u, v) == pytest.approx(weights.cov(v, u), rel=1e-12, abs=1e-15)
        lhs = weights.cov(u + w, v)
        rhs = weights.cov(u, v) + weights.cov(w, v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        n = 10
        u = rng.normal(size=n)
        pi = rng.uniform(0.2, 0.9, n)
        perm = rng.permutation(n)
        permuted = design_weights(*poisson_args(pi[perm], 40)).cov(u[perm], u[perm])
        assert permuted == pytest.approx(design_weights(*poisson_args(pi, 40)).cov(u, u), rel=1e-12)

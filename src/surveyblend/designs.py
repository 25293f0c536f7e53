"""Inclusion probabilities and generic Horvitz-Thompson machinery.

Every variance and covariance formula in this package reduces to the
variance (or covariance) of Horvitz-Thompson means over the probability
sample, estimated with the pairwise-probability ratio form

    (1/N^2) sum_{i,j in sample} [(pi_ij - pi_i pi_j) / pi_ij] (u_i/pi_i) (u_j/pi_j),

which is design-unbiased whenever all pi_ij > 0. Both supported designs
admit closed forms: under Poisson sampling the off-diagonal terms vanish,
and under SRSWOR pi_ij is constant over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import DesignDescriptor, DesignKind, ObservedData, ValidationError

__all__ = [
    "JointProbProvider",
    "ht_cov_estimate",
    "ht_mean",
    "hajek_mean",
    "ht_var_estimate",
    "provider_for",
]


@dataclass(frozen=True)
class JointProbProvider:
    """First- and second-order inclusion probabilities for the sampled units.

    ``pi`` holds the first-order probabilities of the sampled units, in
    sample order; indices passed to :meth:`joint_prob` refer to positions
    in that array.
    """

    design: DesignDescriptor
    pi: np.ndarray
    n_population: int

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        if np.any(self.pi <= 0.0) or np.any(self.pi > 1.0):
            raise ValidationError("nonpositive inclusion probability")
        if self.design.kind is DesignKind.SRSWOR:
            if self.design.n >= self.n_population:
                raise ValidationError("SRSWOR sample size must be below the population size")

    def joint_prob(self, i: int, j: int) -> float:
        """P(both unit i and unit j are sampled); equals pi_i when i == j."""
        if i == j:
            return float(self.pi[i])
        if self.design.kind is DesignKind.POISSON:
            return float(self.pi[i] * self.pi[j])
        n, big_n = self.design.n, self.n_population
        return n * (n - 1) / (big_n * (big_n - 1))


def provider_for(observed: ObservedData) -> JointProbProvider:
    """Build the pairwise-probability provider implied by an observed dataset."""
    return JointProbProvider(design=observed.design, pi=observed.pi_a, n_population=observed.n_population)


def ht_mean(values, pi, n_population: int) -> float:
    """Horvitz-Thompson mean (1/N) sum z_i / pi_i over the sampled units."""
    values = np.asarray(values, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if values.shape != pi.shape:
        raise ValidationError("values and probabilities have different lengths")
    if np.any(pi <= 0.0):
        raise ValidationError("nonpositive inclusion probability")
    return float(np.sum(values / pi) / n_population)


def hajek_mean(values, pi) -> float:
    """Self-normalized weighted mean (sum z_i/pi_i) / (sum 1/pi_i); reproduces constants."""
    values = np.asarray(values, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if values.size == 0:
        raise ValidationError("empty sample")
    if values.shape != pi.shape:
        raise ValidationError("values and probabilities have different lengths")
    if np.any(pi <= 0.0):
        raise ValidationError("nonpositive inclusion probability")
    w = 1.0 / pi
    return float(np.sum(values * w) / np.sum(w))


def ht_cov_estimate(residuals_u, residuals_v, provider: JointProbProvider) -> float:
    """Estimate the design covariance of two Horvitz-Thompson means.

    Arguments are per-sampled-unit vectors aligned with ``provider.pi``.
    The estimator is the pairwise ratio form over sampled pairs; it is
    bilinear and symmetric in (u, v), and under Poisson sampling collapses
    to (1/N^2) sum (1 - pi_i) u_i v_i / pi_i^2.
    """
    u = np.asarray(residuals_u, dtype=float)
    v = np.asarray(residuals_v, dtype=float)
    pi = provider.pi
    if u.shape != pi.shape or v.shape != pi.shape:
        raise ValidationError("residual vectors must align with the sampled units")
    big_n = provider.n_population
    if provider.design.kind is DesignKind.POISSON:
        return float(np.sum((1.0 - pi) * u * v / pi**2) / big_n**2)
    # SRSWOR: constant pi = n/N and constant off-diagonal pi_ij.
    n = provider.design.n
    pi_ij = n * (n - 1) / (big_n * (big_n - 1))
    if pi_ij <= 0.0:
        raise ValidationError("zero pairwise probability on a sampled pair")
    uw = u / pi
    vw = v / pi
    cross = np.sum(uw) * np.sum(vw) - np.sum(uw * vw)
    pi_first = n / big_n
    c_off = (pi_ij - pi_first * pi_first) / pi_ij
    diag = np.sum((1.0 - pi) * uw * vw)
    return float((c_off * cross + diag) / big_n**2)


def ht_var_estimate(residuals, provider: JointProbProvider) -> float:
    """Variance estimate for a Horvitz-Thompson mean; see :func:`ht_cov_estimate`."""
    return ht_cov_estimate(residuals, residuals, provider)

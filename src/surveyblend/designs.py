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

from .types import DesignDescriptor, DesignKind, ValidationError, frozen_array

__all__ = [
    "JointProbProvider",
    "ht_cov_estimate",
    "ht_mean",
    "hajek_mean",
    "ht_var_estimate",
]


@dataclass(frozen=True)
class JointProbProvider:
    """The design of the probability sample and its units' inclusion probabilities.

    ``pi`` holds the first-order probabilities of the sampled units, in
    sample order. Both designs fix the pairwise probabilities in closed
    form (see :func:`ht_cov_estimate`).
    """

    design: DesignDescriptor
    pi: np.ndarray
    n_population: int

    def __post_init__(self):
        object.__setattr__(self, "pi", frozen_array(self.pi))
        if np.any(self.pi <= 0.0) or np.any(self.pi > 1.0):
            raise ValidationError("nonpositive inclusion probability")
        if self.design.kind is DesignKind.SRSWOR and self.design.n >= self.n_population:
            raise ValidationError("SRSWOR sample size must be below the population size")


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

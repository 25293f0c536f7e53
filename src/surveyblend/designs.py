"""Inclusion probabilities and generic Horvitz-Thompson machinery.

Every variance and covariance formula in this package reduces to the
variance (or covariance) of Horvitz-Thompson means over the probability
sample, estimated with the pairwise-probability ratio form

    (1/N^2) sum_{i,j in sample} [(pi_ij - pi_i pi_j) / pi_ij] (u_i/pi_i) (u_j/pi_j),

which is design-unbiased whenever all pi_ij > 0. Both supported designs
admit closed forms: under Poisson sampling the off-diagonal terms vanish,
and under SRSWOR pi_ij is constant over pairs. Every function takes
array-likes and checks in one place that they align with ``pi`` and that
``pi`` lies in (0, 1].
"""

from __future__ import annotations

import numpy as np

from .types import DesignDescriptor, DesignKind, ValidationError

__all__ = [
    "ht_cov_estimate",
    "ht_mean",
    "hajek_mean",
    "ht_var_estimate",
]


def _aligned(pi, *vectors) -> list[np.ndarray]:
    """``pi``, then ``vectors``, as float arrays, checked to align and ``pi`` to lie in (0, 1]."""
    pi = np.asarray(pi, dtype=float)
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != pi.shape for v in vectors):
        raise ValidationError("values and probabilities have different lengths")
    if not pi.min(initial=1.0) > 0.0:  # a NaN makes the min and max NaN
        raise ValidationError("nonpositive inclusion probability")
    if not pi.max(initial=0.0) <= 1.0:
        raise ValidationError("inclusion probability above 1")
    return [pi, *vectors]


def ht_mean(values, pi, n_population: int) -> float:
    """Horvitz-Thompson mean (1/N) sum z_i / pi_i over the sampled units."""
    pi, values = _aligned(pi, values)
    return float(np.sum(values / pi) / n_population)


def hajek_mean(values, pi) -> float:
    """Self-normalized weighted mean (sum z_i/pi_i) / (sum 1/pi_i); reproduces constants."""
    pi, values = _aligned(pi, values)
    if values.size == 0:
        raise ValidationError("empty sample")
    w = 1.0 / pi
    return float(np.sum(values * w) / np.sum(w))


def ht_cov_estimate(residuals_u, residuals_v, design: DesignDescriptor, pi, n_population: int) -> float:
    """Estimate the design covariance of two Horvitz-Thompson means.

    Arguments are per-sampled-unit vectors aligned with ``pi``, the
    first-order inclusion probabilities of the sampled units under
    ``design``. The estimator is the pairwise ratio form over sampled
    pairs; it is bilinear and symmetric in (u, v), and under Poisson
    sampling collapses to (1/N^2) sum (1 - pi_i) u_i v_i / pi_i^2.
    """
    pi, u, v = _aligned(pi, residuals_u, residuals_v)
    if design.kind is DesignKind.POISSON:
        return float(np.sum((1.0 - pi) * u * v / pi**2) / n_population**2)
    # SRSWOR: constant pi = n/N and constant off-diagonal pi_ij, positive because n >= 2.
    n = design.n
    pi_ij = n * (n - 1) / (n_population * (n_population - 1))
    uw = u / pi
    vw = v / pi
    cross = np.sum(uw) * np.sum(vw) - np.sum(uw * vw)
    pi_first = n / n_population
    c_off = (pi_ij - pi_first * pi_first) / pi_ij
    diag = np.sum((1.0 - pi) * uw * vw)
    return float((c_off * cross + diag) / n_population**2)


def ht_var_estimate(residuals, design: DesignDescriptor, pi, n_population: int) -> float:
    """Variance estimate for a Horvitz-Thompson mean; see :func:`ht_cov_estimate`."""
    return ht_cov_estimate(residuals, residuals, design, pi, n_population)

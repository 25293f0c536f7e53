"""Inclusion probabilities and generic Horvitz-Thompson machinery.

Every variance and covariance formula in this package reduces to the
variance (or covariance) of Horvitz-Thompson means over the probability
sample, estimated with the pairwise-probability ratio form

    (1/N^2) sum_{i,j in sample} [(pi_ij - pi_i pi_j) / pi_ij] (u_i/pi_i) (u_j/pi_j),

which is design-unbiased whenever all pi_ij > 0. Both supported designs
admit closed forms: under Poisson sampling the off-diagonal terms vanish,
and under SRSWOR pi_ij is constant over pairs. :func:`design_weights`
checks ``pi`` and builds a sample's weights once, per analysis; their methods
are the dot products every estimate reads. Each function below checks its
vectors against ``pi`` in one place, then delegates to them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .types import DesignDescriptor, DesignKind, ValidationError

__all__ = [
    "DesignWeights",
    "design_weights",
    "ht_cov_estimate",
    "ht_mean",
    "hajek_mean",
    "ht_var_estimate",
]

POISSON_SAMPLING = DesignDescriptor(DesignKind.POISSON)  # sample B's opt-in is modelled so too


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


class DesignWeights(NamedTuple):
    """One sample's weights ``w`` = 1/pi, their sum, and the coefficients of its covariance form.

    The ratio-form covariance of two HT means is cross (u.w)(v.w) + sum_i c_i u_i v_i, with
    c = ((1 - pi) - c_off) w^2 / N^2 and cross = c_off / N^2, where c_off = (pi_ij - pi_i pi_j) / pi_ij
    off the diagonal: 0 under Poisson, -(1 - n/N) / (n - 1) under SRSWOR.
    """

    w: np.ndarray
    total: float
    n_population: int
    cross: float
    c: np.ndarray

    def ht_mean(self, values: np.ndarray) -> float:
        """Horvitz-Thompson mean (1/N) sum z_i / pi_i over the sampled units."""
        return float(values @ self.w) / self.n_population

    def hajek_mean(self, values: np.ndarray) -> float:
        """Self-normalized weighted mean (sum z_i/pi_i) / (sum 1/pi_i); reproduces constants."""
        return float(values @ self.w) / self.total

    def cov(self, u: np.ndarray, v: np.ndarray) -> float:
        """The ratio-form estimate of the design covariance of the HT means of ``u`` and ``v``."""
        diag = float((u * v) @ self.c)
        return self.cross * float(u @ self.w) * float(v @ self.w) + diag if self.cross else diag


def design_weights(design: DesignDescriptor, pi, n_population: int) -> DesignWeights:
    """The read-only weights of a sample drawn under ``design`` with inclusion probabilities ``pi``."""
    (pi,) = _aligned(pi)
    c_off = 0.0 if design.kind is DesignKind.POISSON else -(1.0 - design.n / n_population) / (design.n - 1)
    w = 1.0 / pi
    c = (1.0 - pi - c_off) * w * w / n_population**2
    w.setflags(write=False)
    c.setflags(write=False)
    return DesignWeights(w, float(w.sum()), n_population, c_off / n_population**2, c)


def ht_mean(values, pi, n_population: int) -> float:
    """Horvitz-Thompson mean (1/N) sum z_i / pi_i over the sampled units."""
    pi, values = _aligned(pi, values)
    return design_weights(POISSON_SAMPLING, pi, n_population).ht_mean(values)


def hajek_mean(values, pi) -> float:
    """Self-normalized weighted mean (sum z_i/pi_i) / (sum 1/pi_i); reproduces constants."""
    pi, values = _aligned(pi, values)
    if values.size == 0:
        raise ValidationError("empty sample")
    return design_weights(POISSON_SAMPLING, pi, 1).hajek_mean(values)  # depends on neither design nor N


def ht_cov_estimate(residuals_u, residuals_v, design: DesignDescriptor, pi, n_population: int) -> float:
    """Estimate the design covariance of two Horvitz-Thompson means.

    Arguments are per-sampled-unit vectors aligned with ``pi``, the
    first-order inclusion probabilities of the sampled units under
    ``design``. The estimator is the pairwise ratio form over sampled
    pairs; it is bilinear and symmetric in (u, v), and under Poisson
    sampling collapses to (1/N^2) sum (1 - pi_i) u_i v_i / pi_i^2.
    """
    pi, u, v = _aligned(pi, residuals_u, residuals_v)
    return design_weights(design, pi, n_population).cov(u, v)


def ht_var_estimate(residuals, design: DesignDescriptor, pi, n_population: int) -> float:
    """Variance estimate for a Horvitz-Thompson mean; see :func:`ht_cov_estimate`."""
    return ht_cov_estimate(residuals, residuals, design, pi, n_population)

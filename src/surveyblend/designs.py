"""Inclusion probabilities and generic Horvitz-Thompson machinery.

Every variance and covariance formula in this package reduces to the
variance (or covariance) of Horvitz-Thompson means over the probability
sample, estimated with the pairwise-probability ratio form

    (1/N^2) sum_{i,j in sample} [(pi_ij - pi_i pi_j) / pi_ij] (u_i/pi_i) (u_j/pi_j),

which is design-unbiased whenever all pi_ij > 0. Both supported designs
admit closed forms: under Poisson sampling the off-diagonal terms vanish,
and under SRSWOR, where each of the sample's n rows has pi_i = n/N, the
form is (1 - n/N) s_uv / n. :func:`design_weights` builds a sample's
weights once, per analysis, from probabilities already checked: by
:func:`surveyblend.types.validate` for sample A, by
:func:`surveyblend.nuisance.check_selection_floor` for sample B. Their
methods (the HT mean, the Hajek mean and the covariance form) are the dot
products every estimate reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .types import DesignKind

__all__ = ["DesignWeights", "design_weights"]


class DesignWeights(NamedTuple):
    """One sample's weights ``w`` = 1/pi, their sum, and the coefficients of its covariance form.

    The ratio-form covariance of two HT means is sum_i c_i u_i v_i, with c = (1 - pi) w^2 / N^2 under Poisson;
    under SRSWOR (pi = n/N) c = (1 - n/N) / (n (n - 1)) and u, v are ``centered``, so a far mean costs no digits.
    """

    w: np.ndarray
    total: float
    n_population: int
    centered: bool
    c: np.ndarray

    def ht_mean(self, values: np.ndarray) -> float:
        """Horvitz-Thompson mean (1/N) sum z_i / pi_i over the sampled units."""
        return float(values @ self.w) / self.n_population

    def hajek_mean(self, values: np.ndarray) -> float:
        """Self-normalized weighted mean (sum z_i/pi_i) / (sum 1/pi_i); reproduces constants."""
        return float(values @ self.w) / self.total

    def cov(self, u: np.ndarray, v: np.ndarray) -> float:
        """The ratio-form estimate of the design covariance of the HT means of ``u`` and ``v``."""
        if self.centered:
            u, v = u - u.mean(), v - v.mean()
        return float((u * v) @ self.c)


def design_weights(design: DesignKind, pi, n_population: int) -> DesignWeights:
    """The read-only weights of a sample drawn under ``design`` with inclusion probabilities ``pi``.

    Nothing is checked here. ``pi`` must be a nonempty sample's probabilities in (0, 1], under SRSWOR each n/N
    with n = ``pi.size``: :func:`surveyblend.types.validate` holds sample A's ``pi_a`` to that, and
    :func:`surveyblend.nuisance.check_selection_floor` holds sample B's fitted pi_b at or above ``PI_B_FLOOR``
    (NaN fails), which the logistic link keeps at or below 1.
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    w = 1.0 / pi
    c = (np.full(n, (n_population - n) / (n_population * n * (n - 1)))
         if design is DesignKind.SRSWOR else (1.0 - pi) * w * w / n_population**2)
    w.setflags(write=False)
    c.setflags(write=False)
    return DesignWeights(w, float(w.sum()), n_population, design is DesignKind.SRSWOR, c)

"""Inclusion probabilities and generic Horvitz-Thompson machinery.

Every variance and covariance formula in this package reduces to the
variance (or covariance) of Horvitz-Thompson means over the probability
sample, estimated with the pairwise-probability ratio form

    (1/N^2) sum_{i,j in sample} [(pi_ij - pi_i pi_j) / pi_ij] (u_i/pi_i) (u_j/pi_j),

which is design-unbiased whenever all pi_ij > 0. Both supported designs
admit closed forms: under Poisson sampling the off-diagonal terms vanish,
and under SRSWOR pi_ij is constant over pairs. :func:`design_weights`
checks ``pi`` and builds a sample's weights once, per analysis; their methods
(the HT mean, the Hajek mean and the covariance form) are the dot products
every estimate reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .types import DesignDescriptor, DesignKind, ValidationError

__all__ = ["DesignWeights", "design_weights"]

POISSON_SAMPLING = DesignDescriptor(DesignKind.POISSON)  # sample B's opt-in is modelled so too


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
    """The read-only weights of a sample drawn under ``design`` with inclusion probabilities ``pi``.

    ``pi`` must be a nonempty sample's probabilities, each in (0, 1].
    """
    pi = np.asarray(pi, dtype=float)
    if pi.size == 0:
        raise ValidationError("empty sample")
    if not pi.min() > 0.0:  # a NaN makes the min and max NaN
        raise ValidationError("nonpositive inclusion probability")
    if not pi.max() <= 1.0:
        raise ValidationError("inclusion probability above 1")
    c_off = 0.0 if design.kind is DesignKind.POISSON else -(1.0 - design.n / n_population) / (design.n - 1)
    w = 1.0 / pi
    c = (1.0 - pi - c_off) * w * w / n_population**2
    w.setflags(write=False)
    c.setflags(write=False)
    return DesignWeights(w, float(w.sum()), n_population, c_off / n_population**2, c)

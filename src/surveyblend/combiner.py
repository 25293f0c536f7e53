"""Optimal pooling of a reweighted estimate with the probability-sample estimate.

The pooled estimator is (1 - w) * est_prob + w * est_dr over real weights w.
Its variance is quadratic in w,

    (1 - w)^2 var_p + 2 (1 - w) w cov + w^2 var_dr,

minimized at w = (var_p - cov) / (var_p + var_dr - 2 cov). The weight is
deliberately not clipped to [0, 1]; the class ranges over all real w. A
degenerate denominator triggers a fallback to whichever input estimator
has the smaller variance. The pooled variance treats the estimated weight
as known, a first-order approximation: over 2000 replicates at two seeds,
ROADMAP item 8 measured pooled(DR2/both_correct,Hajek) coverage of 0.921
at n_A = 50 and 0.945 at n_A = 500.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .estimators import Analysis, EstimatorKind
from .types import Level, ValidationError, config_value
from .uncertainty import Regime, ResidualVarianceModel, cov_estimate, variance

__all__ = ["PooledReport", "combine", "pool", "pooled_variance", "z_score"]

_DEGENERATE_EPS = 1e-10


@dataclass(frozen=True)
class PooledReport:
    """Weight, pooled point estimate and variance, and the pooled CI."""

    w: float
    pooled_estimate: float
    pooled_variance: float
    ci_low: float
    ci_high: float
    est_prob: float
    var_prob: float
    est_dr: float
    var_dr: float
    cov: float
    level: float
    fallback_used: bool


def _weight(var_p: float, var_dr: float, cov: float) -> tuple[float, bool]:
    if var_p < 0.0 or var_dr < 0.0:
        raise ValidationError("negative input variance")
    denom = var_p + var_dr - 2.0 * cov
    if denom <= _DEGENERATE_EPS * (var_p + var_dr):
        return (1.0 if var_dr < var_p else 0.0), True
    return (var_p - cov) / denom, False


def z_score(level: float) -> float:
    """Standard-normal quantile bounding a two-sided interval at confidence ``level``."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def pooled_variance(w: float, var_p: float, var_dr: float, cov: float) -> float:
    """Variance of the pooled estimator at a fixed weight."""
    return (1.0 - w) ** 2 * var_p + 2.0 * (1.0 - w) * w * cov + w**2 * var_dr


def combine(est_prob: float, var_prob: float, est_dr: float, var_dr: float, cov: float,
            level: float = 0.95) -> PooledReport:
    """Pool two point estimates given their variances and covariance."""
    config_value("level", Level, level)
    w, fallback = _weight(var_prob, var_dr, cov)
    estimate = (1.0 - w) * est_prob + w * est_dr
    variance = max(pooled_variance(w, var_prob, var_dr, cov), 0.0)
    half = z_score(level) * float(np.sqrt(variance))
    return PooledReport(
        w=w, pooled_estimate=estimate, pooled_variance=variance,
        ci_low=estimate - half, ci_high=estimate + half,
        est_prob=est_prob, var_prob=var_prob, est_dr=est_dr, var_dr=var_dr, cov=cov,
        level=level, fallback_used=fallback,
    )


def pool(analysis: Analysis, kind_dr: EstimatorKind, regime: Regime, prob_kind: EstimatorKind,
         level: float = 0.95, *,
         sigma_model: ResidualVarianceModel = ResidualVarianceModel.CONSTANT) -> PooledReport:
    """Pool a reweighted estimate with a probability-sample one, reading the analysis's results."""
    return combine(analysis.point(prob_kind), variance(prob_kind, None, analysis),
                   analysis.point(kind_dr), variance(kind_dr, regime, analysis, sigma_model=sigma_model),
                   cov_estimate(kind_dr, regime, prob_kind, analysis), level)

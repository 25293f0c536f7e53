"""Variance and covariance estimation for every estimator.

Every variance here has the same two-part shape: a design variance of a
Horvitz-Thompson mean over the probability sample, applied to per-unit
terms u, plus, for a reweighted estimator, a selection term over the
nonprobability sample built from centered outcome residuals,

    var = ht_var(u)
        + (1/N^2) sum_B (1 - pi_i) / pi_i^2 (y_i - outcome_center_i)^2
        + C,

where C is a mean-zero correction used only under the Kim-Haziza doubly
robust regime. The centering vectors depend on which estimator is being
assessed and on which nuisance model is assumed correct, over the
supported pairs of :data:`CENTERING`: a self-normalized estimator centers at
its own means, and the selection_correct regime adjusts for selection-model
estimation error with a weighted-least-squares coefficient
(:func:`regression_adjustment`) of the (possibly centered) outcomes or
residuals on the selection covariates. That adjustment linearizes the
selection fit's score; each fit method's linearization lives in its row of
:data:`~surveyblend.nuisance.SELECTION_FITS`. A probability-sample estimator
(HT, Hajek) takes no regime: its u is the sample-A outcomes centered at 0 or
at the Hajek mean, and it has no sample-B term.

The covariance of a reweighted estimator with HT or Hajek is the design
covariance of the two estimators' u over sample A.

Each function reads one :class:`~surveyblend.estimators.Analysis`, evaluates
dot products against the sample weights it built and checked once, and keeps
its result there. Every quantity of a reweighted estimator needs the
analysis's nuisance fit; those of HT and Hajek do not.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimators import DR_KINDS, IPW_KINDS, PROB_KINDS, SELF_NORMALIZED, Analysis, EstimatorKind
from .nuisance import SELECTION_FITS, solve_spd, weighted_gram
from .types import ConfigEnum, FitMethod, ValidationError

__all__ = [
    "CenteringTerms",
    "Regime",
    "ResidualVarianceModel",
    "centering_terms",
    "check_supported",
    "cov_estimate",
    "regression_adjustment",
    "residual_variance",
    "variance",
]


class Regime(ConfigEnum):
    """Assumption set under which a variance formula is valid."""

    BOTH_CORRECT = "both_correct"
    SELECTION_CORRECT = "selection_correct"
    KH_DOUBLY_ROBUST = "kh_doubly_robust"


class ResidualVarianceModel(ConfigEnum):
    CONSTANT = "constant"
    LINEAR_IN_X = "linear_in_x"


# The (estimator, regime) pairs that have a variance formula. A
# self-normalized estimator (IPW2, DR2) centers its predictions at their HT
# mean, and under selection_correct its outcomes at its own estimate; that
# regime adds the regression adjustment for selection-fit error. IPW kinds
# are DR kinds with a zero outcome model.
CENTERING = (
    (EstimatorKind.DR1, Regime.BOTH_CORRECT),
    (EstimatorKind.DR1, Regime.KH_DOUBLY_ROBUST),
    (EstimatorKind.DR1, Regime.SELECTION_CORRECT),
    (EstimatorKind.DR2, Regime.BOTH_CORRECT),
    (EstimatorKind.DR2, Regime.SELECTION_CORRECT),
    (EstimatorKind.IPW1, Regime.SELECTION_CORRECT),
    (EstimatorKind.IPW2, Regime.SELECTION_CORRECT),
)


def check_supported(kind: EstimatorKind, regime: Regime | None, fit_method: FitMethod | None) -> None:
    """Reject an (estimator, regime) pair that has no variance formula under ``fit_method``.

    A probability-sample estimator (HT, Hajek) takes the regime None and needs no fit.
    """
    if regime is None:
        if kind not in PROB_KINDS:
            raise ValidationError(f"{kind.value} is not a probability-sample estimator")
        return
    if (kind, regime) not in CENTERING:
        if kind in PROB_KINDS:
            raise ValidationError(f"no variance regime is defined for {kind.value}")
        raise ValidationError(f"unsupported regime {regime.value} for {kind.value}")
    if regime is Regime.KH_DOUBLY_ROBUST and fit_method is not FitMethod.KIM_HAZIZA:
        raise ValidationError("the doubly robust variance regime requires a Kim-Haziza fit")


class CenteringTerms(NamedTuple):
    """Per-unit vectors feeding the two-part variance form.

    ``u`` is the outcome-model predictions on sample A minus their center,
    or for HT and Hajek the sample-A outcomes minus theirs;
    ``outcome_center`` is subtracted from the observed outcomes on sample B,
    and is None for HT and Hajek, which have no sample-B term.
    """

    u: np.ndarray
    outcome_center: np.ndarray | None


def regression_adjustment(kind: EstimatorKind, analysis: Analysis) -> np.ndarray:
    """Weighted-least-squares coefficient that tracks the selection-fit error of ``kind``.

    Regresses the outcome (the outcome-model residual for a DR kind) on the
    selection-model covariates, with weights (1 - pi)/pi on the target side
    and the gram weights of the fit method's linearization, which lives in its
    row of :data:`~surveyblend.nuisance.SELECTION_FITS`. A self-normalized
    kind's target is first centered at its Hajek mean over sample B.
    """
    def compute():
        observed = analysis.observed
        cols = analysis.spec.columns("selection", observed.n_covariates)
        x = observed.x_b[:, cols]
        pi = analysis.pi_b_b
        target = observed.y_b - analysis.m_b if kind in DR_KINDS else observed.y_b
        if kind in SELF_NORMALIZED:
            target = target - analysis.weights_b.hajek_mean(target)
        gram = weighted_gram(x, SELECTION_FITS[analysis.spec.fit_method].gram_weights(pi)) / observed.n_population
        rhs = x.T @ ((1.0 - pi) / pi * target) / observed.n_population
        return solve_spd(gram, rhs, "regression adjustment")

    return analysis.memo(("regression adjustment", kind), compute)


def centering_terms(kind: EstimatorKind, regime: Regime | None, analysis: Analysis) -> CenteringTerms:
    """Build the centering vectors for a supported (estimator, regime) pair of :data:`CENTERING`."""
    def compute():
        if regime is None:  # HT or Hajek: sample A's outcomes, centered at 0 or at the Hajek mean
            check_supported(kind, None, None)
            est = analysis.point(kind)
            return CenteringTerms(analysis.observed.y_a - (est if kind in SELF_NORMALIZED else 0.0), None)
        check_supported(kind, regime, analysis.spec.fit_method)
        observed = analysis.observed
        if kind in IPW_KINDS:  # a zero outcome model
            m_a = m_b = m_bar = 0.0
        else:
            m_a, m_b = analysis.m_a, analysis.m_b
            m_bar = analysis.memo(("outcome-model mean",), lambda: analysis.weights_a.ht_mean(m_a))
        pred_center, outcome_center = m_bar if kind in SELF_NORMALIZED else 0.0, m_b
        if regime is Regime.SELECTION_CORRECT:  # the fit method's linearization moves both centers
            adj = regression_adjustment(kind, analysis)
            cols = analysis.spec.columns("selection", observed.n_covariates)
            factor = SELECTION_FITS[analysis.spec.fit_method].center_factor
            shift = analysis.point(kind) - m_bar if kind in SELF_NORMALIZED else 0.0
            pred_center = pred_center - factor(analysis.pi_b_a) * (observed.x_a[:, cols] @ adj)
            outcome_center = outcome_center + shift + factor(analysis.pi_b_b) * (observed.x_b[:, cols] @ adj)
        return CenteringTerms(m_a - pred_center, outcome_center)

    return analysis.memo(("centering term", kind, regime), compute)


def residual_variance(analysis: Analysis, model: ResidualVarianceModel) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the residual variance function on both samples.

    Returns per-unit values (on sample A, on sample B). The constant model
    uses the mean squared sample-B residual; the linear model least-squares
    fits squared residuals on the outcome covariates and truncates below
    at zero.
    """
    observed = analysis.observed
    r = observed.y_b - analysis.m_b
    if model is ResidualVarianceModel.CONSTANT:
        s2 = float(np.mean(r**2))
        return np.full(observed.n_a, s2), np.full(observed.n_b, s2)
    cols = analysis.spec.columns("outcome", observed.n_covariates)
    x_b = observed.x_b[:, cols]
    coef, *_ = np.linalg.lstsq(x_b, r**2, rcond=None)
    s2_a = np.clip(observed.x_a[:, cols] @ coef, 0.0, None)
    s2_b = np.clip(x_b @ coef, 0.0, None)
    return s2_a, s2_b


def variance(kind: EstimatorKind, regime: Regime | None, analysis: Analysis, *,
             sigma_model: ResidualVarianceModel = ResidualVarianceModel.CONSTANT) -> float:
    """Closed-form variance estimate for an estimator under a regime (None for HT and Hajek), floored at 0
    for the Kim-Haziza correction, its one term that can be negative; the others are design variances."""
    def compute():
        u, outcome_center = centering_terms(kind, regime, analysis)
        weights_a, weights_b = analysis.weights_a, analysis.weights_b
        term1 = weights_a.cov(u, u)
        term2 = correction = 0.0
        if outcome_center is not None:
            r = analysis.observed.y_b - outcome_center
            term2 = weights_b.cov(r, r)  # sample B's opt-in is Poisson sampling with pi_b
        if regime is Regime.KH_DOUBLY_ROBUST:
            s2_a, s2_b = residual_variance(analysis, sigma_model)
            correction = (weights_a.ht_mean(s2_a) - weights_b.ht_mean(s2_b)) / analysis.observed.n_population
        return max(term1 + term2 + correction, 0.0)

    return analysis.memo(("variance", kind, regime, sigma_model), compute)


def cov_estimate(kind: EstimatorKind, regime: Regime, prob_kind: EstimatorKind, analysis: Analysis) -> float:
    """Covariance estimate between a reweighted estimator and HT or Hajek.

    Both estimators share sample A through the covariates, so their errors
    correlate; the estimate is the design covariance over sample A of the
    two estimators' :func:`centering_terms` ``u``: the centered predictions
    against the outcomes centered at 0 (HT) or at the Hajek mean.
    """
    return analysis.memo(("covariance", kind, regime, prob_kind), lambda: analysis.weights_a.cov(
        centering_terms(kind, regime, analysis).u, centering_terms(prob_kind, None, analysis).u))

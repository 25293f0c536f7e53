"""Variance and covariance estimation for every estimator.

A cell is an (estimator, regime) pair; HT and Hajek take the regime None.
Its linearization, :func:`centering_terms`, is per-unit terms u over the
probability sample and, for a reweighted estimator, an outcome center over
the nonprobability sample. Every variance and covariance is one form, the
design covariance of two cells' linearizations,

    cov(1, 2) = ht_cov(u1, u2)
              + (1/N^2) sum_B (1 - pi_i) / pi_i^2 (y_i - center1_i) (y_i - center2_i),

whose sample-B term is taken only when both cells have one. A variance is
a cell's form with itself, plus a mean-zero correction C under the
Kim-Haziza doubly robust regime alone; a covariance pairs a reweighted
cell with HT or Hajek. One table, :data:`SUPPORTED`, lists each cell that
has a linearization and the fit methods it holds under; every variance,
covariance and plan check asks :func:`check_supported`, which reads it
alone. The centers depend on the estimator and on which nuisance model is
assumed correct: a self-normalized estimator centers at its own means, and
the selection_correct regime moves both centers by the selection fit's
linearization, a weighted-least-squares coefficient
(:func:`regression_adjustment`) from its fit method's row of
:data:`~surveyblend.nuisance.SELECTION_FITS`.

Each function reads one :class:`~surveyblend.estimators.Analysis`, evaluates
dot products against the sample weights it built and checked once, and keeps
its result there. Every quantity of a reweighted estimator needs the
analysis's nuisance fit; those of HT and Hajek do not.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimators import DR_KINDS, IPW_KINDS, SELF_NORMALIZED, Analysis, EstimatorKind
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


# Each (estimator, regime) pair that has a variance formula, with the fit methods it holds under (None: the
# caller names no fit). A Kim-Haziza fit borrows pseudo-ML's selection_correct linearization, which is off for
# the IPW kinds until ROADMAP item 10 lands, so their row lists no Kim-Haziza fit.
_ANY_FIT = (None, *FitMethod)
SUPPORTED = {
    (EstimatorKind.HT, None): _ANY_FIT,
    (EstimatorKind.HAJEK, None): _ANY_FIT,
    (EstimatorKind.DR1, Regime.BOTH_CORRECT): _ANY_FIT,
    (EstimatorKind.DR1, Regime.KH_DOUBLY_ROBUST): (FitMethod.KIM_HAZIZA,),
    (EstimatorKind.DR1, Regime.SELECTION_CORRECT): _ANY_FIT,
    (EstimatorKind.DR2, Regime.BOTH_CORRECT): _ANY_FIT,
    (EstimatorKind.DR2, Regime.SELECTION_CORRECT): _ANY_FIT,
    (EstimatorKind.IPW1, Regime.SELECTION_CORRECT): (None, FitMethod.PSEUDO_ML, FitMethod.CALIBRATION),
    (EstimatorKind.IPW2, Regime.SELECTION_CORRECT): (None, FitMethod.PSEUDO_ML, FitMethod.CALIBRATION),
}


def cell_label(kind: EstimatorKind, regime: Regime | None = None) -> str:
    """The name of a cell in messages and summary rows: ``DR1/both_correct``, or ``HT`` for a regime of None."""
    return kind.value if regime is None else f"{kind.value}/{regime.value}"


def check_supported(kind: EstimatorKind, regime: Regime | None, fit_method: FitMethod | None) -> None:
    """Reject an (estimator, regime) pair that :data:`SUPPORTED` does not hold under ``fit_method``."""
    if fit_method not in SUPPORTED.get((kind, regime), ()):
        fit = f"under a {fit_method.value} fit" if fit_method else "without a fit"
        held = " or ".join(r.value if r else "the regime None"
                           for (k, r), fits in SUPPORTED.items() if k is kind and fit_method in fits)
        raise ValidationError(f"{cell_label(kind, regime)} has no variance formula {fit}; {kind.value} has "
                              + (f"one under {held} there" if held else "none there"))


class CenteringTerms(NamedTuple):
    """A cell's linearization: ``u``, the per-unit terms on sample A (for HT and Hajek, the sample-A outcomes
    minus their center), and ``outcome_center``, subtracted from sample B's outcomes, or None for HT and Hajek."""

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
    """Build the centering vectors for an (estimator, regime) pair that :data:`SUPPORTED` holds under the fit."""
    def compute():
        check_supported(kind, regime, None if regime is None and analysis.fit is None else analysis.spec.fit_method)
        if regime is None:  # HT or Hajek: sample A's outcomes, centered at 0 or at the Hajek mean
            est = analysis.point(kind)
            return CenteringTerms(analysis.observed.y_a - (est if kind in SELF_NORMALIZED else 0.0), None)
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


def _covariance(terms: CenteringTerms, other: CenteringTerms, analysis: Analysis) -> float:
    """The design covariance of two cells' linearizations: over sample A of their ``u``, plus, when both cells
    have a sample-B part, over sample B of their centered outcomes (sample B's opt-in is Poisson sampling with pi_b)."""
    cov = analysis.weights_a.cov(terms.u, other.u)
    if terms.outcome_center is not None and other.outcome_center is not None:
        y_b = analysis.observed.y_b
        r = y_b - terms.outcome_center  # a variance reads one residual vector, not two equal ones
        cov += analysis.weights_b.cov(r, r if other is terms else y_b - other.outcome_center)
    return cov


def variance(kind: EstimatorKind, regime: Regime | None, analysis: Analysis, *,
             sigma_model: ResidualVarianceModel = ResidualVarianceModel.CONSTANT) -> float:
    """Closed-form variance estimate for an estimator under a regime (None for HT and Hajek): the cell's
    covariance with itself, plus, under the Kim-Haziza regime, its correction, the sum floored at 0."""
    def compute():
        terms = centering_terms(kind, regime, analysis)
        var = _covariance(terms, terms, analysis)
        if regime is Regime.KH_DOUBLY_ROBUST:  # its correction C is the one term that can be negative
            s2_a, s2_b = residual_variance(analysis, sigma_model)
            c = (analysis.weights_a.ht_mean(s2_a) - analysis.weights_b.ht_mean(s2_b)) / analysis.observed.n_population
            var = max(var + c, 0.0)
        return var

    return analysis.memo(("variance", kind, regime, sigma_model), compute)


def cov_estimate(kind: EstimatorKind, regime: Regime, prob_kind: EstimatorKind, analysis: Analysis) -> float:
    """Covariance estimate between a reweighted estimator and HT or Hajek, whose errors correlate through sample
    A's covariates: the form of their two cells, over sample A alone, since HT and Hajek have no sample-B term."""
    return analysis.memo(("covariance", kind, regime, prob_kind), lambda: _covariance(
        centering_terms(kind, regime, analysis), centering_terms(prob_kind, None, analysis), analysis))

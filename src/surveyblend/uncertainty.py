"""Variance and covariance estimation for the reweighted estimators.

Every asymptotic variance here has the same two-part shape: a design
variance of a Horvitz-Thompson mean over the probability sample, applied
to centered outcome-model predictions u, plus a selection term over the
nonprobability sample built from centered outcome residuals,

    var = ht_var(u)
        + (1/N^2) sum_B (1 - pi_i) / pi_i^2 (y_i - outcome_center_i)^2
        + C,

where C is a mean-zero correction used only under the Kim-Haziza doubly
robust regime. The centering vectors depend on which estimator is being
assessed and on which nuisance model is assumed correct (the table
:data:`CENTERING`); those that adjust for selection-model estimation error
involve a weighted-least-squares coefficient (:func:`regression_adjustment`)
of the (possibly centered) outcomes or residuals on the selection
covariates.

Covariances with the probability-sample estimators reduce to the design
covariance of two Horvitz-Thompson means over sample A: u against the
outcomes centered at 0 (HT) or at the Hajek mean.

Each function reads one :class:`~surveyblend.estimators.Analysis` and keeps
its result there; all but :func:`var_prob_estimate` need its nuisance fit.
"""

from __future__ import annotations

import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np

from .designs import ht_cov_estimate, ht_mean, ht_var_estimate
from .estimators import DR_KINDS, IPW_KINDS, PROB_KINDS, Analysis, EstimatorKind
from .nuisance import solve_spd
from .types import FitMethod, ValidationError

__all__ = [
    "CenteringTerms",
    "Regime",
    "ResidualVarianceModel",
    "centering_terms",
    "check_supported",
    "cov_estimate",
    "regression_adjustment",
    "residual_variance",
    "var_prob_estimate",
    "variance",
]


class Regime(Enum):
    """Assumption set under which a variance formula is valid."""

    BOTH_CORRECT = "both_correct"
    SELECTION_CORRECT = "selection_correct"
    KH_DOUBLY_ROBUST = "kh_doubly_robust"


class ResidualVarianceModel(Enum):
    CONSTANT = "constant"
    LINEAR_IN_X = "linear_in_x"


# The supported (estimator, regime) pairs -> (self-normalized, adjusted).
# A self-normalized estimator (IPW2, DR2) centers its predictions at their
# HT mean, and under adjustment its outcomes at its own estimate. The
# selection_correct regime adds the regression adjustment for selection-fit
# error. IPW kinds are DR kinds with a zero outcome model.
CENTERING = {
    (EstimatorKind.DR1, Regime.BOTH_CORRECT): (False, False),
    (EstimatorKind.DR1, Regime.KH_DOUBLY_ROBUST): (False, False),
    (EstimatorKind.DR1, Regime.SELECTION_CORRECT): (False, True),
    (EstimatorKind.DR2, Regime.BOTH_CORRECT): (True, False),
    (EstimatorKind.DR2, Regime.SELECTION_CORRECT): (True, True),
    (EstimatorKind.IPW1, Regime.SELECTION_CORRECT): (False, True),
    (EstimatorKind.IPW2, Regime.SELECTION_CORRECT): (True, True),
}


def check_supported(kind: EstimatorKind, regime: Regime, fit_method: FitMethod) -> None:
    """Reject an (estimator, regime) pair that has no variance formula under ``fit_method``."""
    if (kind, regime) not in CENTERING:
        if kind in PROB_KINDS:
            raise ValidationError(f"no variance regime is defined for {kind.value}")
        raise ValidationError(f"unsupported regime {regime.value} for {kind.value}")
    if regime is Regime.KH_DOUBLY_ROBUST and fit_method is not FitMethod.KIM_HAZIZA:
        raise ValidationError("the doubly robust variance regime requires a Kim-Haziza fit")


class CenteringTerms(NamedTuple):
    """Per-unit vectors feeding the two-part variance form.

    ``u`` is the outcome-model predictions on sample A minus their center;
    ``outcome_center`` is subtracted from the observed outcomes on sample B.
    """

    u: np.ndarray
    outcome_center: np.ndarray


def regression_adjustment(analysis: Analysis, *, on_residuals: bool, centered: bool) -> np.ndarray:
    """Weighted-least-squares coefficient that tracks selection-fit error.

    Regresses the outcome (or the outcome-model residual when
    ``on_residuals``) on the selection-model covariates, with weights
    (1 - pi)/pi on the target side and gram weights (1 - pi). When
    ``centered``, the target is first centered at its self-normalized
    inverse-probability mean over sample B.
    """
    def compute():
        observed = analysis.observed
        cols = analysis.spec.columns("selection", observed.n_covariates)
        x = observed.x_b[:, cols]
        pi = analysis.pi_b_b
        target = observed.y_b - analysis.m_b if on_residuals else observed.y_b
        if centered:
            w = 1.0 / pi
            target = target - np.sum(target * w) / np.sum(w)
        n_pop = observed.n_population
        gram = (x * (1.0 - pi)[:, None]).T @ x / n_pop
        rhs = x.T @ ((1.0 - pi) / pi * target) / n_pop
        return solve_spd(gram, rhs, "regression adjustment")

    return analysis.memo(("adjustment", on_residuals, centered), compute)


def centering_terms(kind: EstimatorKind, regime: Regime, analysis: Analysis) -> CenteringTerms:
    """Build the centering vectors for a supported (estimator, regime) pair of :data:`CENTERING`."""
    def compute():
        check_supported(kind, regime, analysis.spec.fit_method)
        self_normalized, adjusted = CENTERING[kind, regime]
        observed = analysis.observed
        if kind in IPW_KINDS:  # a zero outcome model
            m_a, m_b, m_bar = np.zeros(observed.n_a), np.zeros(observed.n_b), 0.0
        else:
            m_a, m_b = analysis.m_a, analysis.m_b
            m_bar = analysis.memo("m_bar", lambda: ht_mean(m_a, observed.pi_a, observed.n_population))
        if not adjusted:
            pred_center = np.full(observed.n_a, m_bar) if self_normalized else np.zeros(observed.n_a)
            outcome_center = m_b
        else:
            adj = regression_adjustment(analysis, on_residuals=kind in DR_KINDS, centered=self_normalized)
            cols = analysis.spec.columns("selection", observed.n_covariates)
            adj_a = analysis.pi_b_a * (observed.x_a[:, cols] @ adj)
            adj_b = analysis.pi_b_b * (observed.x_b[:, cols] @ adj)
            if self_normalized:
                pred_center = m_bar - adj_a
                outcome_center = m_b + (analysis.point(kind) - m_bar) + adj_b
            else:
                pred_center = -adj_a
                outcome_center = m_b + adj_b
        u = m_a - pred_center
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(outcome_center))):
            raise ValidationError("non-finite centering term")
        return CenteringTerms(u, outcome_center)

    return analysis.memo(("centering", kind, regime), compute)


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


def variance(kind: EstimatorKind, regime: Regime, analysis: Analysis, *,
             sigma_model: ResidualVarianceModel = ResidualVarianceModel.CONSTANT) -> float:
    """Closed-form variance estimate for a reweighted estimator under a regime."""
    def compute():
        observed = analysis.observed
        n_pop = observed.n_population
        u, outcome_center = centering_terms(kind, regime, analysis)
        term1 = ht_var_estimate(u, observed.design, observed.pi_a, n_pop)
        if term1 < 0.0:
            # Only the SRSWOR ratio form can; under Poisson it sums (1 - pi) u^2 / pi^2 >= 0.
            warnings.warn("negative first variance term under SRSWOR", stacklevel=2)
        pi_b = analysis.pi_b_b
        term2 = float(np.sum((1.0 - pi_b) / pi_b**2 * (observed.y_b - outcome_center) ** 2) / n_pop**2)
        correction = 0.0
        if regime is Regime.KH_DOUBLY_ROBUST:
            s2_a, s2_b = residual_variance(analysis, sigma_model)
            correction = float((np.sum(s2_a / observed.pi_a) - np.sum(s2_b / pi_b)) / n_pop**2)
        return max(term1 + term2 + correction, 0.0)

    return analysis.memo(("variance", kind, regime, sigma_model), compute)


def _prob_residuals(prob_kind: EstimatorKind, analysis: Analysis) -> np.ndarray:
    """Sample-A outcomes centered at 0 (HT) or at the Hajek mean."""
    def compute():
        if prob_kind not in PROB_KINDS:
            raise ValidationError(f"{prob_kind.value} is not a probability-sample estimator")
        y_a = analysis.observed.y_a
        if y_a is None:
            raise ValidationError(f"{prob_kind.value} needs the outcome on sample A")
        return y_a - (0.0 if prob_kind is EstimatorKind.HT else analysis.point(EstimatorKind.HAJEK))

    return analysis.memo(("prob_residuals", prob_kind), compute)


def var_prob_estimate(kind: EstimatorKind, analysis: Analysis) -> float:
    """Variance estimate for the probability-sample estimators (HT or Hajek)."""
    observed = analysis.observed
    return analysis.memo(("var_prob", kind), lambda: ht_var_estimate(
        _prob_residuals(kind, analysis), observed.design, observed.pi_a, observed.n_population))


def cov_estimate(kind: EstimatorKind, regime: Regime, prob_kind: EstimatorKind, analysis: Analysis) -> float:
    """Covariance estimate between a reweighted estimator and HT or Hajek.

    Both estimators share sample A through the covariates, so their errors
    correlate; the estimate is the design covariance of the centered
    predictions against the (possibly Hajek-centered) outcomes on sample A.
    """
    def compute():
        observed = analysis.observed
        u, v = centering_terms(kind, regime, analysis).u, _prob_residuals(prob_kind, analysis)
        return ht_cov_estimate(u, v, observed.design, observed.pi_a, observed.n_population)

    return analysis.memo(("cov", kind, regime, prob_kind), compute)

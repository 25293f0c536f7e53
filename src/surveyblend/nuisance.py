"""Fitting the selection model pi_B(x; alpha) and the outcome model m(x; beta).

Three fitting routes are supported:

* pseudo maximum likelihood for alpha, solving
  (1/N) [sum_B x_i - sum_A expit(alpha'x_i) x_i / pi_a_i] = 0,
  with beta fitted separately by (unweighted) maximum likelihood on sample B;
* calibration for alpha, solving
  (1/N) [sum_B x_i / expit(alpha'x_i) - sum_A x_i / pi_a_i] = 0,
  again with beta from maximum likelihood;
* the Kim-Haziza route, which solves the joint system
  (1/N) sum_B x_i (1 - pi_i)/pi_i (y_i - m_i) = 0
  (1/N) [sum_A dm_i / pi_a_i - sum_B dm_i / pi_i] = 0
  for (alpha, beta), where dm_i is the gradient of m in beta.

All solvers are damped Newton iterations with step halving; convergence is
declared on the max-abs value of the (1/N-scaled) estimating function. The
logistic function is :func:`expit`, numpy's ``1 / (1 + exp(-x))``, and the
linear outcome model's normal equations are solved by :func:`solve_spd`, a
Cholesky factorization of the gram matrix and two solves. Fitted selection
probabilities below ``PI_B_FLOOR`` raise (:func:`check_selection_floor`,
which :class:`~surveyblend.estimators.Analysis` applies to both samples)
instead of being clamped, since silently clamped weights would bias every
estimator built on top of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import FitMethod, ModelSpec, ObservedData, OutcomeFamily, frozen_array

__all__ = ["NuisanceFit", "SolverError", "fit_nuisance", "predict_outcome", "predict_selection"]

SELECTION_TOL = 1e-10
KH_TOL = 1e-8
OUTCOME_TOL = 1e-10
MAX_ITER = 100
PI_B_FLOOR = 1e-8

# Logistic coefficients beyond this scale pin fitted probabilities at 0/1,
# which is the numerical signature of separation.
_SEPARATION_SCALE = 30.0


class SolverError(RuntimeError):
    """An estimating-equation solve failed (non-convergence or singularity)."""


def expit(x):
    """The logistic function, elementwise; it is exactly 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def predict_selection(alpha, x) -> np.ndarray:
    """expit(alpha'x) rowwise; x must already hold the model's columns."""
    return expit(np.asarray(x, dtype=float) @ np.asarray(alpha, dtype=float))


def predict_outcome(beta, x, family: OutcomeFamily) -> np.ndarray:
    """Model mean rowwise: beta'x for the linear family, expit(beta'x) for the logistic one."""
    eta = np.asarray(x, dtype=float) @ np.asarray(beta, dtype=float)
    if family is OutcomeFamily.LOGISTIC_BINARY:
        return expit(eta)
    return eta


@dataclass(frozen=True)
class NuisanceFit:
    """Fitted nuisance coefficients plus solver diagnostics.

    ``alpha`` is indexed by ``spec.selection_cols`` and ``beta`` by
    ``spec.outcome_cols``; the prediction helpers apply the masks.
    """

    alpha: np.ndarray
    beta: np.ndarray
    spec: ModelSpec
    iterations: int
    max_abs_score: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", frozen_array(self.alpha))
        object.__setattr__(self, "beta", frozen_array(self.beta))

    def pi_b(self, x_full: np.ndarray) -> np.ndarray:
        cols = self.spec.columns("selection", x_full.shape[1])
        return predict_selection(self.alpha, x_full[:, cols])

    def m(self, x_full: np.ndarray) -> np.ndarray:
        cols = self.spec.columns("outcome", x_full.shape[1])
        return predict_outcome(self.beta, x_full[:, cols], self.spec.outcome_family)


# Newton steps beyond this size (logit scale) are truncated; expit saturates
# long before, and uncapped steps destroy the jacobian's curvature signal.
_MAX_STEP = 10.0


def _newton(system, x0, tol: float, context: str):
    """Damped Newton on a square system; returns (solution, iterations, residual)."""
    x = np.array(x0, dtype=float)
    f, jac = system(x)
    norm = float(np.max(np.abs(f)))
    for it in range(MAX_ITER):
        if norm <= tol:
            return x, it, norm
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            raise SolverError(f"{context}: singular jacobian") from None
        largest = float(np.max(np.abs(step)))
        if largest > _MAX_STEP:
            step *= _MAX_STEP / largest
        t = 1.0
        while True:
            cand = x - t * step
            f_c, jac_c = system(cand)
            norm_c = float(np.max(np.abs(f_c)))
            if np.isfinite(norm_c) and norm_c < norm:
                break
            t *= 0.5
            if t < 2.0**-20:
                raise SolverError(f"{context}: no descent direction (residual {norm:.3e})")
        x, f, jac, norm = cand, f_c, jac_c, norm_c
    if norm <= tol:
        return x, MAX_ITER, norm
    raise SolverError(f"{context}: no convergence after {MAX_ITER} iterations (residual {norm:.3e})")


def score_and_jacobian_pml(observed: ObservedData, cols, alpha):
    """Pseudo-ML estimating function for alpha and its jacobian."""
    x_a = observed.x_a[:, cols]
    x_b = observed.x_b[:, cols]
    n_pop = observed.n_population
    w_a = 1.0 / observed.pi_a
    p = expit(x_a @ alpha)
    score = (x_b.sum(axis=0) - x_a.T @ (w_a * p)) / n_pop
    jac = -(x_a * (w_a * p * (1.0 - p))[:, None]).T @ x_a / n_pop
    return score, jac


def score_and_jacobian_calibration(observed: ObservedData, cols, alpha):
    """Calibration estimating function for alpha and its jacobian."""
    x_a = observed.x_a[:, cols]
    x_b = observed.x_b[:, cols]
    n_pop = observed.n_population
    p = expit(x_b @ alpha)
    score = (x_b.T @ (1.0 / p) - x_a.T @ (1.0 / observed.pi_a)) / n_pop
    jac = -(x_b * ((1.0 - p) / p)[:, None]).T @ x_b / n_pop
    return score, jac


def score_and_jacobian_outcome_logistic(observed: ObservedData, cols, beta):
    """Unweighted logistic-ML score on sample B and its jacobian."""
    x_b = observed.x_b[:, cols]
    n_b = observed.n_b
    m = expit(x_b @ beta)
    score = x_b.T @ (observed.y_b - m) / n_b
    jac = -(x_b * (m * (1.0 - m))[:, None]).T @ x_b / n_b
    return score, jac


def _outcome_gradient(x, m, family: OutcomeFamily):
    """Gradient of the outcome mean in beta, rowwise."""
    if family is OutcomeFamily.LOGISTIC_BINARY:
        return x * (m * (1.0 - m))[:, None]
    return x


def score_and_jacobian_kh(observed: ObservedData, spec: ModelSpec, theta):
    """Stacked Kim-Haziza estimating function in theta = (alpha, beta) and its jacobian."""
    cols = spec.columns("selection", observed.n_covariates)
    x_a = observed.x_a[:, cols]
    x_b = observed.x_b[:, cols]
    n_pop = observed.n_population
    k = cols.size
    alpha, beta = theta[:k], theta[k:]
    pi = expit(x_b @ alpha)
    m_b = predict_outcome(beta, x_b, spec.outcome_family)
    m_a = predict_outcome(beta, x_a, spec.outcome_family)
    r = observed.y_b - m_b
    w = (1.0 - pi) / pi
    dm_b = _outcome_gradient(x_b, m_b, spec.outcome_family)
    dm_a = _outcome_gradient(x_a, m_a, spec.outcome_family)
    f1 = x_b.T @ (w * r) / n_pop
    f2 = (dm_a.T @ (1.0 / observed.pi_a) - dm_b.T @ (1.0 / pi)) / n_pop
    j11 = -(x_b * (w * r)[:, None]).T @ x_b / n_pop
    j12 = -(x_b * w[:, None]).T @ dm_b / n_pop
    j21 = (dm_b * w[:, None]).T @ x_b / n_pop
    if spec.outcome_family is OutcomeFamily.LOGISTIC_BINARY:
        h_a = m_a * (1.0 - m_a) * (1.0 - 2.0 * m_a)
        h_b = m_b * (1.0 - m_b) * (1.0 - 2.0 * m_b)
        j22 = ((x_a * (h_a / observed.pi_a)[:, None]).T @ x_a - (x_b * (h_b / pi)[:, None]).T @ x_b) / n_pop
    else:
        j22 = np.zeros((k, k))
    score = np.concatenate([f1, f2])
    jac = np.block([[j11, j12], [j21, j22]])
    return score, jac


def _fit_selection(observed: ObservedData, cols: np.ndarray, method: FitMethod):
    if method is FitMethod.CALIBRATION:
        score, context = score_and_jacobian_calibration, "calibration selection fit"
    else:
        score, context = score_and_jacobian_pml, "pseudo-ML selection fit"
    return _newton(lambda a: score(observed, cols, a), np.zeros(cols.size), SELECTION_TOL, context)


def _fit_outcome(observed: ObservedData, family: OutcomeFamily, cols: np.ndarray):
    """Maximum-likelihood outcome coefficients on sample B (OLS for the linear family)."""
    x_b = observed.x_b[:, cols]
    if family is OutcomeFamily.LINEAR_GAUSSIAN:
        return solve_spd(x_b.T @ x_b, x_b.T @ observed.y_b, "outcome least squares"), 0, 0.0
    beta, iters, resid = _newton(
        lambda b: score_and_jacobian_outcome_logistic(observed, cols, b),
        np.zeros(cols.size), OUTCOME_TOL, "logistic outcome fit")
    if float(np.max(np.abs(beta))) > _SEPARATION_SCALE:
        raise SolverError("logistic outcome fit: separation or non-convergence (diverging coefficients)")
    return beta, iters, resid


def _fit_kim_haziza(observed: ObservedData, spec: ModelSpec):
    """Joint (alpha, beta) solve of the Kim-Haziza estimating equations."""
    cols = spec.columns("selection", observed.n_covariates)
    # Warm start at the separable fits: the joint system is nonconvex and
    # this is its natural basin.
    alpha0, it_a, _ = _fit_selection(observed, cols, FitMethod.PSEUDO_ML)
    beta0, it_b, _ = _fit_outcome(observed, spec.outcome_family, cols)
    theta0 = np.concatenate([alpha0, beta0])
    theta, iters, resid = _newton(lambda t: score_and_jacobian_kh(observed, spec, t),
                                  theta0, KH_TOL, "Kim-Haziza joint fit")
    k = cols.size
    return theta[:k], theta[k:], it_a + it_b + iters, resid


def fit_nuisance(observed: ObservedData, spec: ModelSpec) -> NuisanceFit:
    """Fit both nuisance models by the method named in ``spec``."""
    if spec.fit_method is FitMethod.KIM_HAZIZA:
        alpha, beta, iters, resid = _fit_kim_haziza(observed, spec)
    else:
        sel_cols = spec.columns("selection", observed.n_covariates)
        out_cols = spec.columns("outcome", observed.n_covariates)
        alpha, it_a, r_a = _fit_selection(observed, sel_cols, spec.fit_method)
        beta, it_b, r_b = _fit_outcome(observed, spec.outcome_family, out_cols)
        iters, resid = it_a + it_b, max(r_a, r_b)
    return NuisanceFit(alpha=alpha, beta=beta, spec=spec, iterations=iters, max_abs_score=resid)


def check_selection_floor(pi_b: np.ndarray) -> np.ndarray:
    """Reject fitted selection probabilities small enough to explode the weights; pass the rest on read-only."""
    if not np.all(pi_b >= PI_B_FLOOR):  # NaN too
        raise SolverError(f"fitted selection probability below {PI_B_FLOOR:g}; refusing to clamp")
    pi_b.setflags(write=False)
    return pi_b


def solve_spd(gram: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve ``gram @ b = rhs`` for a symmetric positive definite ``gram`` by its Cholesky factor."""
    try:
        lower = np.linalg.cholesky(np.asarray_chkfinite(gram))
        return np.linalg.solve(lower.T, np.linalg.solve(lower, np.asarray_chkfinite(rhs)))
    except ValueError as exc:  # numpy's LinAlgError included
        raise SolverError(f"{context}: singular gram matrix ({exc})") from None


"""Fitting the selection model pi_B(x; alpha) and the outcome model m(x; beta).

Three fitting routes are supported, one row of :data:`SELECTION_FITS` each:

* pseudo maximum likelihood for alpha, solving
  (1/N) [sum_B x_i - sum_A expit(alpha'x_i) x_i / pi_a_i] = 0,
  with beta fitted separately by (unweighted) maximum likelihood on sample B;
* calibration for alpha, solving
  (1/N) [sum_B x_i / expit(alpha'x_i) - sum_A x_i / pi_a_i] = 0,
  again with beta from maximum likelihood;
* the Kim-Haziza route, which solves the joint system
  (1/N) sum_B x_i (1 - pi_i)/pi_i (y_i - m_i) = 0
  (1/N) [sum_A dm_i / pi_a_i - sum_B dm_i / pi_i] = 0
  for (alpha, beta) from the separable fits, where dm_i is the gradient of m in beta.

All solvers are damped Newton iterations with step halving; convergence is
declared on the max-abs value of the (1/N-scaled) estimating function. Each
``score_and_jacobian_*`` factory does a fit's coefficient-free work once, its
model's columns copied into contiguous rows that every weighted gram reads, and
returns the ``system(theta) -> (score, jacobian)`` that :func:`_newton` solves.
The Kim-Haziza one stacks both samples' columns into one block and writes
(1 - pi)/pi as the odds exp(-alpha'x), free of cancellation as pi -> 1.
Selection fits start at the intercept log((n_B + 1/2) / (N - n_B + 1/2)),
finite for a census sample B. Once the residual passes, the separable fits take
one more, uncounted Newton step, which lands them on the root to rounding from
any start; the Kim-Haziza solve is not landed, since at its looser tolerance
that step moves its coefficients by up to 4e-6 relative. The logistic function
is :func:`expit`, numpy's ``1 / (1 + exp(-x))``, and the linear outcome model's
normal equations are solved by :func:`solve_spd`, a Cholesky factorization of
the gram matrix and two solves. Fitted selection probabilities below
``PI_B_FLOOR`` raise (:func:`check_selection_floor`, which
:class:`~surveyblend.estimators.Analysis` applies to both samples) instead of
being clamped, since silently clamped weights would bias every estimator built
on top of the fit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .types import FitMethod, ModelSpec, ObservedData, OutcomeFamily, typed_fields

__all__ = ["NuisanceFit", "SolverError", "fit_nuisance"]

SELECTION_TOL = 1e-10
KH_TOL = 1e-8
OUTCOME_TOL = 1e-10
MAX_ITER = 100
PI_B_FLOOR = 1e-8
GRAM_BLOCK = 8192

# Logistic coefficients beyond this scale pin fitted probabilities at 0/1,
# which is the numerical signature of separation.
_SEPARATION_SCALE = 30.0


class SolverError(RuntimeError):
    """An estimating-equation solve failed (non-convergence or singularity)."""


def expit(x):
    """The logistic function, elementwise; it is exactly 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class NuisanceFit:
    """Fitted nuisance coefficients plus solver diagnostics.

    ``alpha`` is indexed by ``spec.selection_cols`` and ``beta`` by ``spec.outcome_cols``; the
    predictions ``pi_b`` and ``m`` apply the masks. ``max_abs_score`` is the residual that passed
    the solver's tolerance, so it never exceeds it; a landed fit sits nearer the root than it says.
    """

    alpha: np.ndarray
    beta: np.ndarray
    spec: ModelSpec
    iterations: int
    max_abs_score: float

    def __post_init__(self):
        typed_fields(self)

    def pi_b(self, x_full: np.ndarray) -> np.ndarray:
        cols = self.spec.columns("selection", x_full.shape[1])
        return expit(x_full[:, cols] @ self.alpha)

    def m(self, x_full: np.ndarray) -> np.ndarray:
        cols = self.spec.columns("outcome", x_full.shape[1])
        eta = x_full[:, cols] @ self.beta
        return expit(eta) if self.spec.outcome_family is OutcomeFamily.LOGISTIC_BINARY else eta


# Newton steps beyond this size (logit scale) are truncated; expit saturates
# long before, and uncapped steps destroy the jacobian's curvature signal.
_MAX_STEP = 10.0


def _newton(system, x0, tol: float, context: str, *, land: bool = True):
    """Damped Newton on ``system(x) -> (f, jac)``; returns (solution, iterations, residual).

    The residual is max |f| at the iterate that passed ``tol``. With ``land``,
    that iterate takes one more step, ``x - solve(jac, f)``, which is not counted.
    """
    x = np.array(x0, dtype=float)
    f, jac = system(x)
    norm = float(np.abs(f).max())
    for it in range(MAX_ITER + 1):
        if norm <= tol and not land:
            return x, it, norm
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            raise SolverError(f"{context}: singular jacobian") from None
        if norm <= tol:
            return x - step, it, norm
        if it == MAX_ITER:
            break
        largest = float(np.abs(step).max())
        if largest > _MAX_STEP:
            step *= _MAX_STEP / largest
        t = 1.0
        while True:
            cand = x - t * step
            f_c, jac_c = system(cand)
            norm_c = float(np.abs(f_c).max())
            if norm_c < norm:  # False for NaN, and for inf against inf
                break
            t *= 0.5
            if t < 2.0**-20:
                raise SolverError(f"{context}: no descent direction (residual {norm:.3e})")
        x, f, jac, norm = cand, f_c, jac_c, norm_c
    raise SolverError(f"{context}: no convergence after {MAX_ITER} iterations (residual {norm:.3e})")


def score_and_jacobian_pml(observed: ObservedData, cols):
    """Pseudo-ML estimating function for alpha and its jacobian, as a function of alpha."""
    xt_a = np.ascontiguousarray(observed.x_a.T[cols])
    w_a = 1.0 / observed.pi_a
    total_b = observed.x_b[:, cols].sum(axis=0)
    n_pop = observed.n_population

    def system(alpha):
        p = expit(alpha @ xt_a)
        wp = w_a * p
        return (total_b - xt_a @ wp) / n_pop, weighted_gram(xt_a.T, wp * (p - 1.0)) / n_pop
    return system


def score_and_jacobian_calibration(observed: ObservedData, cols):
    """Calibration estimating function for alpha and its jacobian, as a function of alpha."""
    xt_b = np.ascontiguousarray(observed.x_b.T[cols])
    total_a = np.ascontiguousarray(observed.x_a.T[cols]) @ (1.0 / observed.pi_a)
    n_pop = observed.n_population

    def system(alpha):
        inv_p = 1.0 / expit(alpha @ xt_b)
        return (xt_b @ inv_p - total_a) / n_pop, weighted_gram(xt_b.T, 1.0 - inv_p) / n_pop
    return system


class SelectionFit(NamedTuple):
    """A selection-fit method: its score factory, its solver-error context, and the linearization of its score
    that the selection_correct variance reads, as gram weights on sample B and the factor of x'b in each center."""

    score: Callable
    context: str
    gram_weights: Callable[[np.ndarray], np.ndarray]
    center_factor: Callable[[np.ndarray], np.ndarray | float]


_PSEUDO_ML = SelectionFit(score_and_jacobian_pml, "pseudo-ML selection fit", lambda pi: 1.0 - pi, lambda pi: pi)
# Kim-Haziza borrows pseudo-ML's linearization; uncertainty.SUPPORTED rejects the IPW cells it gets wrong (item 10)
SELECTION_FITS = {FitMethod.PSEUDO_ML: _PSEUDO_ML, FitMethod.KIM_HAZIZA: _PSEUDO_ML,
                  FitMethod.CALIBRATION: SelectionFit(score_and_jacobian_calibration, "calibration selection fit",
                                                      lambda pi: (1.0 - pi) / pi, lambda pi: 1.0)}


def score_and_jacobian_outcome_logistic(observed: ObservedData, cols):
    """Unweighted logistic-ML score on sample B and its jacobian, as a function of beta."""
    xt_b = np.ascontiguousarray(observed.x_b.T[cols])
    y_b, n_b = observed.y_b, observed.n_b

    def system(beta):
        m = expit(beta @ xt_b)
        return xt_b @ (y_b - m) / n_b, weighted_gram(xt_b.T, m * (m - 1.0)) / n_b
    return system


def score_and_jacobian_kh(observed: ObservedData, spec: ModelSpec):
    """Stacked Kim-Haziza estimating function and its jacobian, as a function of theta = (alpha, beta).

    ``xt`` holds the columns of sample A, then of B; on B, (1 - pi)/pi is the odds exp(-alpha'x).
    """
    cols = spec.columns("selection", observed.n_covariates)
    xt = np.concatenate([observed.x_a.T[cols], observed.x_b.T[cols]], axis=1)
    n_a, k = observed.n_a, len(xt)
    xt_b = xt[:, n_a:]
    w_a = 1.0 / observed.pi_a
    total_a = xt[:, :n_a] @ w_a
    y_b, n_pop = observed.y_b, observed.n_population
    logistic = spec.outcome_family is OutcomeFamily.LOGISTIC_BINARY

    def system(theta):
        alpha, beta = theta[:k], theta[k:]
        jac = np.empty((2 * k, 2 * k))
        odds = np.exp(-alpha @ xt_b)
        m = 1.0 / (1.0 + np.exp(-beta @ xt)) if logistic else None
        if logistic:
            v = m * (1.0 - m)
            s = v * np.concatenate([w_a, -1.0 - odds])  # dm/pi_a on A, -dm/pi on B, per unit of x
            f2 = xt @ s
            jac[k:, k:] = weighted_gram(xt.T, s * (1.0 - 2.0 * m))
            m_b, v_b = m[n_a:], v[n_a:]
        else:
            m_b, v_b = beta @ xt_b, 1.0
            f2 = total_a - xt_b @ (1.0 + odds)
            jac[k:, k:] = 0.0
        ow = np.empty((2, odds.size))  # odds r and odds v on B
        np.multiply(odds, y_b - m_b, out=ow[0])
        np.multiply(odds, v_b, out=ow[1])
        g = (xt_b * ow[:, None]) @ xt_b.T  # sum_B odds r x x' and sum_B odds v x x'
        jac[:k, :k] = -g[0]
        jac[k:, :k] = g[1]
        jac[:k, k:] = -g[1]  # -sum_B odds v x x' is symmetric, so it needs no transpose
        jac /= n_pop
        return np.concatenate([xt_b @ ow[0], f2]) / n_pop, jac
    return system


def _fit_outcome(observed: ObservedData, spec: ModelSpec):
    """Maximum-likelihood outcome coefficients on sample B (OLS for the linear family)."""
    cols = spec.columns("outcome", observed.n_covariates)
    x_b = observed.x_b[:, cols]
    if spec.outcome_family is OutcomeFamily.LINEAR_GAUSSIAN:
        return solve_spd(x_b.T @ x_b, x_b.T @ observed.y_b, "outcome least squares"), 0, 0.0
    beta, iters, resid = _newton(score_and_jacobian_outcome_logistic(observed, cols), np.zeros(x_b.shape[1]),
                                 OUTCOME_TOL, "logistic outcome fit")
    if float(np.max(np.abs(beta))) > _SEPARATION_SCALE:
        raise SolverError("logistic outcome fit: separation or non-convergence (diverging coefficients)")
    return beta, iters, resid


@np.errstate(over="ignore", invalid="ignore")
def fit_nuisance(observed: ObservedData, spec: ModelSpec) -> NuisanceFit:
    """Fit both nuisance models by the method named in ``spec``, on outcomes :meth:`ModelSpec.check_outcomes` passes.

    Each fits the two models apart, selection by its row of :data:`SELECTION_FITS`; Kim-Haziza then solves its
    nonconvex joint system from there, the natural basin of its root. A value past the float range becomes inf or
    NaN unwarned, which the solver's residual test or :func:`solve_spd`'s finite check reports (SolverError).
    """
    spec.check_outcomes(observed)
    sel_cols = spec.columns("selection", observed.n_covariates)
    selection, n_b, n_pop = SELECTION_FITS[spec.fit_method], observed.n_b, observed.n_population
    start = np.where(np.arange(observed.n_covariates)[sel_cols] == 0, np.log((n_b + 0.5) / (n_pop - n_b + 0.5)), 0.0)
    alpha, it_a, r_a = _newton(selection.score(observed, sel_cols), start, SELECTION_TOL, selection.context)
    beta, it_b, r_b = _fit_outcome(observed, spec)
    iters, resid = it_a + it_b, max(r_a, r_b)
    if spec.fit_method is FitMethod.KIM_HAZIZA:
        theta, it_kh, resid = _newton(score_and_jacobian_kh(observed, spec), np.concatenate([alpha, beta]),
                                      KH_TOL, "Kim-Haziza joint fit", land=False)
        alpha, beta, iters = theta[:alpha.size], theta[alpha.size:], iters + it_kh
    return NuisanceFit(alpha=alpha, beta=beta, spec=spec, iterations=iters, max_abs_score=resid)


def weighted_gram(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i x_i x_i' over the rows of ``x``, in blocks of ``GRAM_BLOCK`` rows, each weighted in turn."""
    gram = 0.0
    for i in range(0, len(x), GRAM_BLOCK):
        rows = x[i:i + GRAM_BLOCK]
        gram = gram + (rows * weights[i:i + GRAM_BLOCK, None]).T @ rows
    return gram


def check_selection_floor(pi_b: np.ndarray) -> np.ndarray:
    """Reject fitted selection probabilities small enough to explode the weights; pass the rest on read-only."""
    if not (pi_b >= PI_B_FLOOR).all():  # NaN too
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


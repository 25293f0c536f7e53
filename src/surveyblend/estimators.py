"""Point estimators of the population mean, and the fitted analysis they read.

Six estimators are provided. HT and Hajek use outcome data from the
probability sample alone. IPW1/IPW2 reweight the nonprobability sample by
fitted inverse selection probabilities; DR1/DR2 add an outcome-model
correction and stay consistent when either nuisance model is correct.
The "2" variants self-normalize each weighted sum by its estimated
population size instead of dividing by N.
"""

from __future__ import annotations

import numpy as np

from .designs import hajek_mean, ht_mean
from .nuisance import NuisanceFit, check_selection_floor
from .types import ConfigEnum, ModelSpec, ObservedData, ValidationError

__all__ = ["Analysis", "EstimatorKind"]


class EstimatorKind(ConfigEnum):
    HT = "HT"
    HAJEK = "Hajek"
    IPW1 = "IPW1"
    IPW2 = "IPW2"
    DR1 = "DR1"
    DR2 = "DR2"


PROB_KINDS = (EstimatorKind.HT, EstimatorKind.HAJEK)
IPW_KINDS = (EstimatorKind.IPW1, EstimatorKind.IPW2)
DR_KINDS = (EstimatorKind.DR1, EstimatorKind.DR2)


class Analysis:
    """One dataset with its nuisance fit, and everything computed from the pair.

    The fitted selection probabilities of both samples are computed and
    floor-checked when the analysis is made, so a fit that would need its
    weights clamped fails before any estimator runs; without a fit, whatever
    needs one raises a :class:`ValidationError`. The outcome-model means on
    each sample are computed on first use and kept. Point estimates here,
    and the centering terms, variances and covariances of
    :mod:`surveyblend.uncertainty`, are kept per key through :meth:`memo`,
    so a quantity that several reports need is computed once.
    """

    def __init__(self, observed: ObservedData, fit: NuisanceFit | None = None):
        self.observed = observed
        self.fit = fit
        self._memo: dict = {}
        self.pi_b_a = self.pi_b_b = None
        if fit is not None:
            self.pi_b_a, self.pi_b_b = (check_selection_floor(fit.pi_b(x)) for x in (observed.x_a, observed.x_b))

    def memo(self, key, compute):
        """The value kept under ``key``; ``compute()`` makes it on the first request.

        A kept array, or an array inside a kept tuple, is made read-only,
        because every later request shares it.
        """
        if key not in self._memo:
            value = self._memo[key] = compute()
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
        return self._memo[key]

    def _fitted(self, what: str) -> NuisanceFit:
        """The nuisance fit, which ``what`` needs; a :class:`ValidationError` when there is none."""
        if self.fit is None:
            raise ValidationError(f"{what} needs a nuisance fit")
        return self.fit

    @property
    def spec(self) -> ModelSpec:
        return self._fitted("each variance formula").spec

    @property
    def m_a(self) -> np.ndarray:
        return self.memo("m_a", lambda: self._fitted("the outcome model").m(self.observed.x_a))

    @property
    def m_b(self) -> np.ndarray:
        return self.memo("m_b", lambda: self._fitted("the outcome model").m(self.observed.x_b))

    def point(self, kind: EstimatorKind) -> float:
        """Evaluate one point estimator of the population mean.

        HT/Hajek require the outcome on sample A; IPW kinds require a fitted
        selection model and DR kinds a full nuisance fit.
        """
        return self.memo(("point", kind), lambda: self._point(kind))

    def _point(self, kind: EstimatorKind) -> float:
        observed = self.observed
        n_pop = observed.n_population
        if kind in PROB_KINDS:
            if observed.y_a is None:
                raise ValidationError(f"{kind.value} needs the outcome on sample A")
            if kind is EstimatorKind.HT:
                return ht_mean(observed.y_a, observed.pi_a, n_pop)
            return hajek_mean(observed.y_a, observed.pi_a)

        self._fitted(kind.value)
        pi_b = self.pi_b_b
        if kind is EstimatorKind.IPW1:
            return float(np.sum(observed.y_b / pi_b) / n_pop)
        if kind is EstimatorKind.IPW2:
            return hajek_mean(observed.y_b, pi_b)

        m_a, m_b = self.m_a, self.m_b
        if kind is EstimatorKind.DR1:
            return float((np.sum(m_a / observed.pi_a) + np.sum((observed.y_b - m_b) / pi_b)) / n_pop)
        n_hat_a = float(np.sum(1.0 / observed.pi_a))  # DR2
        n_hat_b = float(np.sum(1.0 / pi_b))
        return float(np.sum(m_a / observed.pi_a) / n_hat_a + np.sum((observed.y_b - m_b) / pi_b) / n_hat_b)

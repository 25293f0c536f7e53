"""Point estimators of the population mean, and the fitted analysis they read.

Six estimators are provided. HT and Hajek use outcome data from the
probability sample alone. IPW1/IPW2 reweight the nonprobability sample by
fitted inverse selection probabilities; DR1/DR2 add an outcome-model
correction and stay consistent when either nuisance model is correct.
The "2" variants self-normalize each weighted sum by its estimated
population size instead of dividing by N. Each is a dot product against the
sample weights an :class:`Analysis` builds and checks once.
"""

from __future__ import annotations

import numpy as np

from .designs import DesignWeights, design_weights
from .nuisance import NuisanceFit, check_selection_floor
from .types import ConfigEnum, DesignKind, ModelSpec, ObservedData, ValidationError

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
SELF_NORMALIZED = (EstimatorKind.HAJEK, EstimatorKind.IPW2, EstimatorKind.DR2)


class Analysis:
    """One dataset with its nuisance fit, and everything computed from the pair.

    Each sample's weights are built once, when the analysis is made: sample A's design weights from the pi_a its
    ObservedData checked and, with a fit, sample B's 1/pi_b, from selection probabilities floor-checked on both
    samples, so a fit needing clamped weights fails before any estimator runs. Without a fit, whatever needs one
    raises a :class:`ValidationError`. The outcome-model means on each sample are computed on first use and kept.
    Point estimates here, and the centering terms, variances and covariances of :mod:`surveyblend.uncertainty`, are
    kept per key through :meth:`memo`, so a quantity that several reports need is computed once. A value past the
    float range, here or in a ``compute()``, becomes inf or NaN unwarned, which the selection floor or the memo's
    finite check reports.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, observed: ObservedData, fit: NuisanceFit | None = None):
        self.observed = observed
        self.fit = fit
        self._memo: dict = {}
        self.weights_a = design_weights(observed.design, observed.pi_a, observed.n_population)
        self.pi_b_a = self.pi_b_b = self.weights_b = None
        if fit is not None:
            self.pi_b_a, self.pi_b_b = (check_selection_floor(fit.pi_b(x)) for x in (observed.x_a, observed.x_b))
            self.weights_b = design_weights(DesignKind.POISSON, self.pi_b_b, observed.n_population)  # opt-in as Poisson

    def memo(self, key: tuple, compute):
        """The value kept under ``key``, the quantity in words and the enums that pick it out; ``compute()`` makes it.

        A non-finite value, or a tuple holding one, raises a :class:`ValidationError` naming ``key``. A kept array,
        or one in a kept tuple, is made read-only, because every later request shares it.
        """
        if key not in self._memo:
            with np.errstate(over="ignore", invalid="ignore"):
                value = compute()
            for item in value if isinstance(value, tuple) else (value,):
                if item is not None and not np.isfinite(item).all():
                    raise ValidationError("non-finite " + " ".join(getattr(part, "value", part) for part in key if part))
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
            self._memo[key] = value
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
        return self.memo(("outcome model on sample A",), lambda: self._fitted("the outcome model").m(self.observed.x_a))

    @property
    def m_b(self) -> np.ndarray:
        return self.memo(("outcome model on sample B",), lambda: self._fitted("the outcome model").m(self.observed.x_b))

    def point(self, kind: EstimatorKind) -> float:
        """Evaluate one point estimator of the population mean.

        HT/Hajek require the outcome on sample A; IPW kinds require a fitted
        selection model and DR kinds a full nuisance fit.
        """
        return self.memo(("point estimate", kind), lambda: self._point(kind))

    def _point(self, kind: EstimatorKind) -> float:
        observed = self.observed
        mean = DesignWeights.hajek_mean if kind in SELF_NORMALIZED else DesignWeights.ht_mean
        if kind in PROB_KINDS:
            if observed.y_a is None:
                raise ValidationError(f"{kind.value} needs the outcome on sample A")
            return mean(self.weights_a, observed.y_a)
        self._fitted(kind.value)
        if kind in IPW_KINDS:
            return mean(self.weights_b, observed.y_b)
        return mean(self.weights_a, self.m_a) + mean(self.weights_b, observed.y_b - self.m_b)

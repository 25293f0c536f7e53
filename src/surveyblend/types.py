"""Shared data model: populations, observed samples, model specifications.

Every object here converts its array fields to read-only float64 when it
is constructed, so it is immutable and safe to share across threads or
worker processes. All but :class:`FinitePopulation` check their invariants
then; its one producer, ``simulate.generate_population``, checks the frame.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DesignDescriptor",
    "DesignKind",
    "FinitePopulation",
    "FitMethod",
    "ModelSpec",
    "ObservedData",
    "OutcomeFamily",
    "ValidationError",
    "validate",
]

SRSWOR_PI_RTOL = 1e-12  # how far from n/N, relative, a stated SRSWOR pi_a may be: n/N to 15 digits passes


class ValidationError(ValueError):
    """Input data violates a structural or value invariant."""


class ConfigEnum(Enum):
    """An enum whose values a config may spell in any case: ``FitMethod("Pseudo_ML")`` is ``PSEUDO_ML``."""

    __hash__ = object.__hash__  # members are singletons; Enum's hash of the name is a Python call

    @classmethod
    def _missing_(cls, value):
        return next((member for member in cls if member.value.lower() == str(value).lower()), None)


class DesignKind(ConfigEnum):
    """Probability-sample designs with closed-form pairwise inclusion probabilities."""

    POISSON = "poisson"
    SRSWOR = "srswor"


class OutcomeFamily(ConfigEnum):
    LINEAR_GAUSSIAN = "linear_gaussian"
    LOGISTIC_BINARY = "logistic_binary"


class FitMethod(ConfigEnum):
    PSEUDO_ML = "pseudo_ml"
    CALIBRATION = "calibration"
    KIM_HAZIZA = "kim_haziza"


def frozen_array(values) -> np.ndarray:
    """A float64 copy of ``values`` marked read-only."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _set(obj, name, value) -> None:
    object.__setattr__(obj, name, value)


def plain_data(value):
    """A dataclass instance or field value as JSON-ready data: enums by value, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain_data(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [plain_data(v) for v in value]
    return value


def field_names(cls) -> tuple[str, ...]:
    """The field names of a dataclass, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def config_section(raw, section: str, keys, required=()) -> dict:
    """``raw``, checked to be a mapping (not null) with every ``required`` key and no key outside ``keys``.

    A dataclass as ``keys`` allows its field names and requires those without a default.
    """
    if dataclasses.is_dataclass(keys):
        required = tuple(f.name for f in dataclasses.fields(keys)
                         if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        keys = field_names(keys)
    if not isinstance(raw, dict):
        raise ValidationError(f"config section {section}: must be a mapping, not {raw!r}")
    for key in raw:
        if key not in keys:
            raise ValidationError(f"config section {section}: unknown key {key!r}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"config section {section}: missing key {key!r}")
    return raw


def config_flag(name: str, value) -> bool:
    """``value``, checked to be a bool; ``bool("false")`` is True, so a flag takes no other type."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, not {value!r}")
    return value


def config_int(name: str, value) -> int:
    """``value``, checked to be a whole number; ``int()`` truncates 2.9 to 2 and takes True as 1, so neither passes."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not whole:
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    return int(value)


def config_float(name: str, value) -> float:
    """``value``, checked to be a real number; ``float()`` takes True as 1.0 and "0.9" as 0.9, so neither passes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class DesignDescriptor:
    """How the probability sample was drawn.

    ``n`` is the fixed sample size and is required (and only meaningful)
    for ``SRSWOR``.
    """

    kind: DesignKind
    n: int | None = None

    def __post_init__(self):
        if self.n is not None:
            _set(self, "n", config_int("design.n", self.n))
        if self.kind is DesignKind.SRSWOR:
            if self.n is None or self.n < 2:
                raise ValidationError("SRSWOR design requires a fixed sample size n > 1")
        elif self.n is not None:
            raise ValidationError("Poisson design takes no fixed sample size")


@dataclass(frozen=True)
class FinitePopulation:
    """The fixed frame plus outcomes; only the simulator ever sees this.

    ``pi_a`` holds the first-order probability of entering the probability
    sample and ``pi_b_true`` the true (in practice unknown) probability of
    opting into the nonprobability sample. Construction only freezes the
    arrays; :func:`~surveyblend.simulate.generate_population` checks them.
    """

    x: np.ndarray          # (N, p), x[:, 0] == 1
    y: np.ndarray          # (N,)
    pi_a: np.ndarray       # (N,), in (0, 1]
    pi_b_true: np.ndarray  # (N,), in (0, 1)
    design: DesignDescriptor

    def __post_init__(self):
        for name in ("x", "y", "pi_a", "pi_b_true"):
            _set(self, name, frozen_array(getattr(self, name)))

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ObservedData:
    """What an analyst actually has.

    Sample A rows carry covariates, known inclusion probabilities and,
    when the outcome was collected there, outcome values. Sample B rows
    always carry the outcome. Covariate matrices include the intercept
    column; per-model column masks live in :class:`ModelSpec`. Construction
    checks the shapes, then the values through :func:`validate`.
    """

    n_population: int
    design: DesignDescriptor
    x_a: np.ndarray            # (n_a, p)
    pi_a: np.ndarray           # (n_a,)
    x_b: np.ndarray            # (n_b, p)
    y_b: np.ndarray            # (n_b,)
    y_a: np.ndarray | None = None

    def __post_init__(self):
        _set(self, "n_population", config_int("n_population", self.n_population))
        for name in ("x_a", "x_b", "pi_a", "y_b", "y_a"):
            if getattr(self, name) is not None:
                _set(self, name, frozen_array(getattr(self, name)))
        if self.x_a.ndim != 2 or self.x_b.ndim != 2:
            raise ValidationError("sample covariates must be 2-d arrays")
        if self.x_a.shape[1] != self.x_b.shape[1]:
            raise ValidationError(
                f"covariate dimension mismatch: sample A has {self.x_a.shape[1]}, sample B has {self.x_b.shape[1]}"
            )
        for name, label, sample in (("pi_a", "pi_a", "A"), ("y_b", "y", "B"), ("y_a", "y", "A")):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (self.n_a if sample == "A" else self.n_b,):
                raise ValidationError(f"{label} length does not match sample {sample}")
        validate(self)

    @property
    def n_a(self) -> int:
        return self.x_a.shape[0]

    @property
    def n_b(self) -> int:
        return self.x_b.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.x_a.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Analysis-model structure for the two nuisance models.

    Selection into Sample B is always modelled as logistic in the chosen
    covariate columns. ``outcome_cols``/``selection_cols`` are tuples of
    column indices into the stored covariate matrix (0 is the intercept);
    ``None`` means all columns. The Kim-Haziza method requires both models
    to use the same columns.
    """

    outcome_family: OutcomeFamily = OutcomeFamily.LINEAR_GAUSSIAN
    fit_method: FitMethod = FitMethod.PSEUDO_ML
    outcome_cols: tuple[int, ...] | None = None
    selection_cols: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("outcome_cols", "selection_cols"):
            cols = getattr(self, name)
            if cols is not None:
                cols = tuple(config_int(name, c) for c in cols)
                if len(set(cols)) < len(cols):
                    raise ValidationError(f"{name} {list(cols)} names a column twice (0 is the intercept)")
                _set(self, name, cols)
        if self.fit_method is FitMethod.KIM_HAZIZA and self.outcome_cols != self.selection_cols:
            raise ValidationError("Kim-Haziza fitting requires identical covariate columns in both models")

    def columns(self, which: str, n_covariates: int) -> slice | np.ndarray:
        """The ``which`` model's columns as an index into a covariate matrix's last axis.

        Without a mask it is the basic slice of every column, so ``x[:, cols]``
        is a view of ``x``; a mask is an index array, through which numpy copies.
        """
        cols = self.outcome_cols if which == "outcome" else self.selection_cols
        if cols is None:
            return slice(None)
        if not cols or min(cols) < 0 or max(cols) >= n_covariates:
            raise ValidationError(f"{which} column mask {list(cols)} out of range for {n_covariates} covariates")
        return np.array(cols)


def validate(observed: ObservedData) -> ObservedData:
    """Check every value-level invariant of :class:`ObservedData`.

    Construction runs these checks, so on an existing object this re-runs them; it returns the
    object unchanged when everything holds, so it is idempotent. Raises :class:`ValidationError`
    on the first violation found. Under SRSWOR every pi_a must be n/N, to ``SRSWOR_PI_RTOL``.
    """
    n_pop = observed.n_population
    p = observed.n_covariates
    if observed.n_a == 0 or observed.n_b == 0:
        raise ValidationError("empty sample")
    if n_pop < max(observed.n_a, observed.n_b):
        raise ValidationError("population size smaller than a sample size")
    if not np.all(observed.pi_a > 0.0):  # NaN too
        raise ValidationError("nonpositive inclusion probability in sample A")
    if np.any(observed.pi_a > 1.0):
        raise ValidationError("inclusion probability above 1 in sample A")
    for label, x in (("A", observed.x_a), ("B", observed.x_b)):
        if not np.all(np.isfinite(x)):
            raise ValidationError(f"non-finite covariate in sample {label}")
        if not np.all(x[:, 0] == 1.0):
            raise ValidationError(f"first covariate column must be the intercept in sample {label}")
    if not np.all(np.isfinite(observed.y_b)):
        raise ValidationError("missing or non-finite outcome on sample B")
    if observed.y_a is not None and not np.all(np.isfinite(observed.y_a)):
        raise ValidationError("non-finite outcome on sample A")
    if observed.n_a < p + 1 or observed.n_b < p + 1:
        raise ValidationError(
            f"underdetermined fit: sample sizes ({observed.n_a}, {observed.n_b}) "
            f"below covariate dimension {p} + 1"
        )
    if observed.design.kind is DesignKind.SRSWOR:
        if observed.design.n != observed.n_a:
            raise ValidationError("SRSWOR design size does not match sample A size")
        if observed.design.n >= n_pop:
            raise ValidationError("SRSWOR design size must be below the population size")
        if not np.all(np.abs(observed.pi_a - observed.n_a / n_pop) <= SRSWOR_PI_RTOL * observed.n_a / n_pop):
            raise ValidationError(f"SRSWOR inclusion probabilities in sample A must be n/N = {observed.n_a}/{n_pop}")
    return observed

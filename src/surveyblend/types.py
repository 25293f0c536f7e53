"""Shared data model: populations, observed samples, model specifications.

Every object here checks its invariants and converts its array fields to
read-only float64 when it is constructed, so it is valid, immutable and
safe to share across threads or worker processes.
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


class ValidationError(ValueError):
    """Input data violates a structural or value invariant."""


class DesignKind(Enum):
    """Probability-sample designs with closed-form pairwise inclusion probabilities."""

    POISSON = "poisson"
    SRSWOR = "srswor"


class OutcomeFamily(Enum):
    LINEAR_GAUSSIAN = "linear_gaussian"
    LOGISTIC_BINARY = "logistic_binary"


class FitMethod(Enum):
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

    def to_dict(self) -> dict:
        return plain_data(self)


@dataclass(frozen=True)
class FinitePopulation:
    """The fixed frame plus outcomes; only the simulator ever sees this.

    ``pi_a`` holds the first-order probability of entering the probability
    sample and ``pi_b_true`` the true (in practice unknown) probability of
    opting into the nonprobability sample.
    """

    x: np.ndarray          # (N, p), x[:, 0] == 1
    y: np.ndarray          # (N,)
    pi_a: np.ndarray       # (N,)
    pi_b_true: np.ndarray  # (N,)
    design: DesignDescriptor

    def __post_init__(self):
        x = frozen_array(self.x)
        if x.ndim != 2:
            raise ValidationError("population covariates must be a 2-d array")
        n = x.shape[0]
        _set(self, "x", x)
        for name in ("y", "pi_a", "pi_b_true"):
            arr = frozen_array(getattr(self, name))
            if arr.shape != (n,):
                raise ValidationError(f"population field {name} has length {arr.shape}, expected ({n},)")
            _set(self, name, arr)
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise ValidationError("non-finite population entry")
        if not np.all(self.x[:, 0] == 1.0):
            raise ValidationError("first covariate column must be the intercept")
        if np.any(self.pi_a <= 0.0) or np.any(self.pi_a > 1.0):
            raise ValidationError("sampling probability outside (0, 1]")
        if np.any(self.pi_b_true <= 0.0) or np.any(self.pi_b_true >= 1.0):
            raise ValidationError("true selection probability outside (0, 1)")

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
                _set(self, name, tuple(config_int(name, c) for c in cols))
        if self.fit_method is FitMethod.KIM_HAZIZA and self.outcome_cols != self.selection_cols:
            raise ValidationError("Kim-Haziza fitting requires identical covariate columns in both models")

    def columns(self, which: str, n_covariates: int) -> np.ndarray:
        cols = self.outcome_cols if which == "outcome" else self.selection_cols
        if cols is None:
            return np.arange(n_covariates)
        idx = np.asarray(cols, dtype=int)
        if idx.size == 0 or np.any(idx < 0) or np.any(idx >= n_covariates):
            raise ValidationError(f"{which} column mask out of range for {n_covariates} covariates")
        return idx

    def to_dict(self) -> dict:
        return plain_data(self)


def validate(observed: ObservedData) -> ObservedData:
    """Check every value-level invariant of :class:`ObservedData`.

    Construction runs these checks, so on an existing object this re-runs
    them. Returns the input object unchanged when everything holds, so the
    operation is idempotent. Raises :class:`ValidationError` on the first
    violation found.
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
    return observed

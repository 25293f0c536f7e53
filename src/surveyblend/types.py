"""Shared data model: populations, observed samples, model specifications.

Every object here types its fields by their annotations when it is constructed
(:func:`typed_fields`, arrays as read-only float64), so it is immutable and safe to
share across threads or worker processes. All but :class:`FinitePopulation` check their
invariants then; its one producer, ``simulate.generate_population``, checks the frame.
:func:`validate` alone states the value rules of :class:`ObservedData`, and
:meth:`ModelSpec.check_outcomes` the one a model's outcome family adds; an error of a row rule
names the sample and the first row at fault, which the CLI maps to a CSV file and line.
A config value goes through the same rule (:func:`config_value`, :func:`config_dataclass`),
so a malformed one raises a :class:`ValidationError` that names its dotted key.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import os
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import UnionType

import numpy as np

__all__ = [
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
PI_A_FLOOR = 1.0 / np.finfo(float).max  # a pi_a must be above it: 1/pi_a overflows at or below it


class ValidationError(ValueError):
    """Input data violates a structural or value invariant; a row rule's error names its ``sample`` and ``row``."""

    def __init__(self, message: str, sample: str | None = None, row: int | None = None):
        super().__init__(message)
        self.sample, self.row = sample, row


class ConfigEnum(Enum):
    """An enum whose values a config may spell in any case: ``FitMethod("Pseudo_ML")`` is ``PSEUDO_ML``."""

    __hash__ = object.__hash__  # members are singletons; Enum's hash of the name is a Python call

    @classmethod
    def _missing_(cls, value):
        return next((member for member in cls if member.value.lower() == str(value).lower()), None)


class DesignKind(ConfigEnum):
    """Probability-sample designs with closed-form pairwise inclusion probabilities."""

    POISSON = "poisson"
    SRSWOR = "srswor"  # a sample's size n is its own row count, and each of its units has pi = n/N


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


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, not {value!r}")
    return value


def _path(name: str, value) -> Path:
    if not isinstance(value, (str, os.PathLike)) or value == "":  # Path(1) names no key; Path("") is "."
        raise ValidationError(f"{name} must be a path, not {value!r}")
    return Path(value)


def _member(enum: type[Enum]):
    def convert(name: str, value):
        try:
            return value if isinstance(value, enum) else enum(value)
        except ValueError:
            raise ValidationError(f"{name}: {value!r} is not a valid {enum.__name__}") from None
    return convert


# Bounded numbers: the bound is a test the typed value passes and the words a failure states.
Level = typing.Annotated[float, (lambda value: 0.0 < value < 1.0, "in (0, 1)")]  # NaN fails every comparison
NonNegativeFloat = typing.Annotated[float, (lambda value: 0.0 <= value < np.inf, "finite and at least 0")]
NonNegativeInt = typing.Annotated[int, (lambda value: value >= 0, "at least 0")]
PositiveInt = typing.Annotated[int, (lambda value: value >= 1, "at least 1")]
IntAtLeast2 = typing.Annotated[int, (lambda value: value >= 2, "at least 2")]


@functools.cache  # a hint's converter is built once, however often config_value types a value by it
def _converter(hint):
    """The ``convert(name, value)`` that types a value annotated ``hint``, by the rule of :func:`typed_fields`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        convert, (holds, bound) = _converter(args[0]), args[1]

        def bounded(name, value):
            value = convert(name, value)
            if not holds(value):
                raise ValidationError(f"{name} must be {bound}, not {value!r}")
            return value
        return bounded
    if origin in (typing.Union, UnionType) and len(args) == 2 and type(None) in args:
        convert = _converter(next(arg for arg in args if arg is not type(None)))
        return lambda name, value: None if value is None else convert(name, value)
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)  # tuple[X, ...] takes any length
        converts = tuple(map(_converter, args[:size or 1]))

        def typed_tuple(name, value):
            if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
                raise ValidationError(f"{name}: {value!r} is not a list" + (f" of {size} items" if size else ""))
            return tuple(convert(name, v) for convert, v in zip(converts * len(value), value))  # zip stops with value
        return typed_tuple
    if dataclasses.is_dataclass(hint):
        return functools.partial(config_dataclass, hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _member(hint)
    converters = {int: config_int, float: config_float, str: _text, Path: _path,
                  np.ndarray: lambda name, value: frozen_array(value)}
    return converters[hint]  # a KeyError here is an annotation that the rule does not cover


def config_value(name: str, hint, value):
    """``value`` typed as the annotation ``hint`` by the rule of :func:`typed_fields`, its errors naming ``name``."""
    return _converter(hint)(name, value)


@functools.cache  # ObservedData and NuisanceFit are built on every replicate; their annotations are read once
def _converters(cls) -> dict:
    hints = typing.get_type_hints(cls, include_extras=True)  # without extras, Annotated loses its bound
    return {f.name: _converter(hints[f.name]) for f in dataclasses.fields(cls)}


def typed_fields(obj) -> None:
    """Give each field of the dataclass ``obj`` the type its annotation names; each dataclass calls this first.

    ``int`` and ``float`` go through :func:`config_int` and :func:`config_float`; an enum is looked up by its
    value, in any case; ``str`` must be a string; ``Path`` takes a nonempty string or a path;
    ``np.ndarray`` becomes a :func:`frozen_array`. ``Annotated[X, (test, words)]`` types as ``X``, then must pass
    ``test`` (e.g. :data:`Level`, in (0, 1)). ``X | None`` passes None. ``tuple[X, ...]`` and ``tuple[X, Y]``
    take a list or a tuple (the latter of that length) and type each item. A dataclass passes an instance or is
    built by :func:`config_dataclass`. No other annotation is typed. Every error is a :class:`ValidationError`
    naming the field, or the dotted config key that :func:`config_value` and :func:`config_dataclass` pass.
    """
    for name, convert in _converters(type(obj)).items():
        object.__setattr__(obj, name, convert(name, getattr(obj, name)))


def config_dataclass(cls, section: str, raw):
    """``raw`` if it is a ``cls``, else a ``cls`` from the mapping ``raw``, each value typed as ``section.key``."""
    if isinstance(raw, cls):
        return raw
    converters = _converters(cls)
    return cls(**{key: converters[key](f"{section}.{key}", value)
                  for key, value in config_section(raw, section, cls).items()})


@dataclass(frozen=True)
class FinitePopulation:
    """The fixed frame plus outcomes; only the simulator ever sees this.

    ``pi_a`` holds the first-order probability of entering the probability
    sample and ``pi_b_true`` the true (in practice unknown) probability of
    opting into the nonprobability sample; under SRSWOR every ``pi_a`` is
    n/N, n the size of each draw. Construction only types the fields;
    :func:`~surveyblend.simulate.generate_population` checks them.
    """

    x: np.ndarray          # (N, p), x[:, 0] == 1
    y: np.ndarray          # (N,)
    pi_a: np.ndarray       # (N,), in (0, 1]
    pi_b_true: np.ndarray  # (N,), in (0, 1)
    design: DesignKind

    def __post_init__(self):
        typed_fields(self)

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
    design: DesignKind
    x_a: np.ndarray            # (n_a, p)
    pi_a: np.ndarray           # (n_a,)
    x_b: np.ndarray            # (n_b, p)
    y_b: np.ndarray            # (n_b,)
    y_a: np.ndarray | None = None

    def __post_init__(self):
        typed_fields(self)
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
        typed_fields(self)
        for name in ("outcome_cols", "selection_cols"):
            cols = getattr(self, name)
            if cols is not None and len(set(cols)) < len(cols):
                raise ValidationError(f"{name} {list(cols)} names a column twice (0 is the intercept)")
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

    def check_outcomes(self, observed: ObservedData) -> ObservedData:
        """``observed``, if this family takes each outcome it holds (a row rule): ``logistic_binary`` takes 0 and 1."""
        for label, y in (("A", observed.y_a), ("B", observed.y_b)):
            if y is not None and self.outcome_family is OutcomeFamily.LOGISTIC_BINARY:
                _require((y == 0.0) | (y == 1.0), label, lambda row: f"binary outcome must be 0 or 1, not {y[row]:g}")
        return observed


def _require(holds: np.ndarray, sample: str, rule) -> None:
    """Unless ``holds`` (an entry or a row per unit of ``sample``) is all True, raise ``rule(row)`` at the first row."""
    if not holds.all():
        row = int(np.argmin(holds.reshape(len(holds), -1).all(axis=1)))
        raise ValidationError(rule(row), sample, row)


def validate(observed: ObservedData) -> ObservedData:
    """Check every value-level invariant of :class:`ObservedData`; no other code states them.

    Construction runs these checks, so on an existing object this re-runs them; it returns the object unchanged
    when everything holds, so it is idempotent. Raises :class:`ValidationError` on the first violation found. A
    row rule's error names the sample ("A" or "B") and its first 0-based row at fault: every pi_a is in
    (``PI_A_FLOOR``, 1], so that 1/pi_a is finite; covariates and outcomes are finite; the first covariate is the
    intercept; under SRSWOR every pi_a is n_A/N, to ``SRSWOR_PI_RTOL``. The sample-level rules name no row.
    """
    n_pop, n_a, n_b, pi_a = observed.n_population, observed.n_a, observed.n_b, observed.pi_a
    p = observed.n_covariates
    if n_a == 0 or n_b == 0:
        raise ValidationError("empty sample")
    if n_pop < max(n_a, n_b):
        raise ValidationError(f"population size smaller than a sample size (N {n_pop}, n_A {n_a}, n_B {n_b})")
    _require((pi_a > PI_A_FLOOR) & (pi_a <= 1.0), "A",  # NaN fails too
             lambda row: f"inclusion probability {pi_a[row]:g} "
                         f"{'too small to invert' if 0.0 < pi_a[row] <= 1.0 else 'outside (0, 1]'} in sample A")
    for label, x, y in (("A", observed.x_a, observed.y_a), ("B", observed.x_b, observed.y_b)):
        _require(np.isfinite(x), label, lambda row: f"non-finite covariate in sample {label}")
        _require(x[:, 0] == 1.0, label, lambda row: f"first covariate column must be the intercept in sample {label}")
        if y is not None:
            _require(np.isfinite(y), label, lambda row: f"non-finite outcome on sample {label}")
    if n_a < p + 1 or n_b < p + 1:
        raise ValidationError(f"underdetermined fit: sample sizes ({n_a}, {n_b}) below covariate dimension {p} + 1")
    if observed.design is DesignKind.SRSWOR:
        if n_a >= n_pop:
            raise ValidationError("SRSWOR sample A size must be below the population size")
        _require(np.abs(pi_a - n_a / n_pop) <= SRSWOR_PI_RTOL * n_a / n_pop, "A", lambda row:
                 f"SRSWOR inclusion probability {float(pi_a[row])!r} in sample A must be n/N = {n_a}/{n_pop}")
    return observed

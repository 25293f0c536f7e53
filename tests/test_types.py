"""Data-model invariants, validation errors, and serialization round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    DesignDescriptor,
    DesignKind,
    FitMethod,
    ModelSpec,
    ObservedData,
    OutcomeFamily,
    ValidationError,
    validate,
)
from surveyblend.cli import RunConfig, read_samples, write_sample_csvs
from surveyblend.types import field_names
from conftest import make_observed


def test_validate_returns_same_object_on_valid_input():
    observed = make_observed(seed=3)
    assert validate(observed) is observed
    # idempotent
    assert validate(validate(observed)) is observed


def with_entry(fields, name, index, value):
    """``fields[name]`` as a copy with ``value`` written at ``index``."""
    arr = np.array(fields[name])
    arr[index] = value
    return {name: arr}


# id -> (overrides of a valid dataset's fields, given those fields; message the rejection matches)
CORRUPTIONS = {
    "nan_y_a": (lambda f: with_entry(f, "y_a", 3, np.nan), "non-finite outcome on sample A"),
    "zero_pi_a": (lambda f: with_entry(f, "pi_a", 0, 0.0), "nonpositive inclusion probability"),
    "nan_pi_a": (lambda f: with_entry(f, "pi_a", 1, np.nan), "nonpositive inclusion probability"),
    "pi_a_above_one": (lambda f: with_entry(f, "pi_a", 2, 1.5), "above 1"),
    "inf_x_b": (lambda f: with_entry(f, "x_b", (1, 2), np.inf), "non-finite covariate in sample B"),
    "non_intercept_first_column": (lambda f: with_entry(f, "x_a", (0, 0), 2.0), "intercept"),
    "population_below_n_b": (lambda f: {"n_population": len(f["y_b"]) - 1}, "population size smaller"),
    "srswor_size_mismatch": (lambda f: {"design": DesignDescriptor(DesignKind.SRSWOR, n=len(f["pi_a"]) + 1)},
                             "SRSWOR design size does not match sample A size"),
    # 2 rows against 3 covariate columns (intercept + 2)
    "underdetermined_sample_b": (lambda f: {"x_b": np.array([[1.0, 0.5, 1.0], [1.0, -0.5, 2.0]]),
                                            "y_b": np.array([1.0, 2.0])}, "underdetermined fit"),
    "missing_outcome_on_sample_b": (lambda f: with_entry(f, "y_b", 1, np.nan), "sample B"),
}


@pytest.mark.parametrize("corrupt, match", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_observed_data_rejects_invalid_values_at_construction(corrupt, match):
    observed = make_observed(seed=1)
    fields = {name: getattr(observed, name) for name in field_names(ObservedData)}
    with pytest.raises(ValidationError, match=match):
        ObservedData(**{**fields, **corrupt(fields)})


def test_dimension_mismatch_raises_at_construction():
    observed = make_observed(seed=6)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        ObservedData(n_population=observed.n_population, design=observed.design,
                     x_a=observed.x_a, pi_a=observed.pi_a,
                     x_b=observed.x_b[:, :2], y_b=observed.y_b)


def test_missing_y_on_sample_a_is_allowed():
    observed = make_observed(seed=7, y_on_a=False)
    assert observed.y_a is None
    assert validate(observed) is observed


def test_arrays_are_read_only():
    observed = make_observed(seed=8)
    with pytest.raises(ValueError):
        observed.x_a[0, 0] = 5.0


def test_design_descriptor_invariants():
    with pytest.raises(ValidationError):
        DesignDescriptor(DesignKind.SRSWOR, n=1)
    with pytest.raises(ValidationError):
        DesignDescriptor(DesignKind.POISSON, n=10)
    d = DesignDescriptor(DesignKind.SRSWOR, n=4)
    assert d.n == 4


def test_kim_haziza_requires_matching_masks():
    with pytest.raises(ValidationError, match="identical covariate columns"):
        ModelSpec(fit_method=FitMethod.KIM_HAZIZA, outcome_cols=(0, 1), selection_cols=(0, 1, 2))
    spec = ModelSpec(fit_method=FitMethod.KIM_HAZIZA, outcome_cols=(0, 1), selection_cols=(0, 1))
    assert spec.outcome_cols == (0, 1)


def csv_round_trip(observed, directory):
    """Write an ObservedData to the CLI's sample CSVs and read it back."""
    path_a, path_b = write_sample_csvs(observed, directory)
    config = RunConfig(mode="estimate", output_dir=directory, sample_a_path=path_a, sample_b_path=path_b,
                       n_population=observed.n_population, design=observed.design)
    return read_samples(config)


class TestRoundTrips:
    def test_observed_data(self, tmp_path):
        observed = make_observed(seed=9)
        back = csv_round_trip(observed, tmp_path)
        assert back.n_population == observed.n_population
        assert back.design == observed.design
        np.testing.assert_array_equal(back.x_a, observed.x_a)
        np.testing.assert_array_equal(back.pi_a, observed.pi_a)
        np.testing.assert_array_equal(back.y_a, observed.y_a)
        np.testing.assert_array_equal(back.x_b, observed.x_b)
        np.testing.assert_array_equal(back.y_b, observed.y_b)

    def test_observed_data_without_y_a(self, tmp_path):
        observed = make_observed(seed=10, y_on_a=False)
        back = csv_round_trip(observed, tmp_path)
        assert back.y_a is None

    def test_design_descriptor(self):
        # report.json carries the design as this dict; it rebuilds the same design.
        for d in (DesignDescriptor(DesignKind.POISSON), DesignDescriptor(DesignKind.SRSWOR, n=7)):
            plain = d.to_dict()
            assert plain == {"kind": d.kind.value, "n": d.n}
            assert DesignDescriptor(DesignKind(plain["kind"]), plain["n"]) == d

    def test_model_spec(self):
        spec = ModelSpec(outcome_family=OutcomeFamily.LOGISTIC_BINARY,
                         fit_method=FitMethod.CALIBRATION,
                         outcome_cols=(0, 2), selection_cols=None)
        plain = spec.to_dict()
        assert plain == {"outcome_family": "logistic_binary", "fit_method": "calibration",
                         "outcome_cols": [0, 2], "selection_cols": None}
        assert ModelSpec(OutcomeFamily(plain["outcome_family"]), FitMethod(plain["fit_method"]),
                         tuple(plain["outcome_cols"]), plain["selection_cols"]) == spec


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_is_identity_on_random_valid_data(seed):
    observed = make_observed(seed=seed)
    assert validate(observed) is observed

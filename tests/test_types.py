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
from conftest import make_observed


def test_validate_returns_same_object_on_valid_input():
    observed = make_observed(seed=3)
    assert validate(observed) is observed
    # idempotent
    assert validate(validate(observed)) is observed


def test_validate_rejects_zero_inclusion_probability():
    observed = make_observed(seed=1)
    pi = np.array(observed.pi_a)
    pi[0] = 0.0
    bad = ObservedData(n_population=observed.n_population, design=observed.design,
                       x_a=observed.x_a, pi_a=pi, y_a=observed.y_a,
                       x_b=observed.x_b, y_b=observed.y_b)
    with pytest.raises(ValidationError, match="nonpositive inclusion probability"):
        validate(bad)


def test_validate_rejects_probability_above_one():
    observed = make_observed(seed=1)
    pi = np.array(observed.pi_a)
    pi[2] = 1.5
    bad = ObservedData(n_population=observed.n_population, design=observed.design,
                       x_a=observed.x_a, pi_a=pi, y_a=observed.y_a,
                       x_b=observed.x_b, y_b=observed.y_b)
    with pytest.raises(ValidationError, match="above 1"):
        validate(bad)


def test_validate_rejects_underdetermined_sample_b():
    # 2 rows against 3 covariate columns (intercept + 2)
    x_b = np.array([[1.0, 0.5, 1.0], [1.0, -0.5, 2.0]])
    observed = make_observed(seed=2)
    bad = ObservedData(n_population=observed.n_population, design=observed.design,
                       x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                       x_b=x_b, y_b=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="underdetermined fit"):
        validate(bad)


def test_validate_rejects_missing_outcome_on_sample_b():
    observed = make_observed(seed=4)
    y_b = np.array(observed.y_b)
    y_b[1] = np.nan
    bad = ObservedData(n_population=observed.n_population, design=observed.design,
                       x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                       x_b=observed.x_b, y_b=y_b)
    with pytest.raises(ValidationError, match="sample B"):
        validate(bad)


def test_validate_rejects_non_intercept_first_column():
    observed = make_observed(seed=5)
    x_a = np.array(observed.x_a)
    x_a[0, 0] = 2.0
    bad = ObservedData(n_population=observed.n_population, design=observed.design,
                       x_a=x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                       x_b=observed.x_b, y_b=observed.y_b)
    with pytest.raises(ValidationError, match="intercept"):
        validate(bad)


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

"""Data-model invariants, validation errors, and serialization round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    DesignDescriptor,
    DesignKind,
    EstimatorKind,
    EvalPlan,
    FitMethod,
    ModelSpec,
    ObservedData,
    OutcomeFamily,
    Regime,
    ResidualVarianceModel,
    ValidationError,
    validate,
)
from surveyblend.cli import RunConfig, read_samples, write_sample_csvs
from surveyblend.types import field_names, plain_data
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
    "one_dimensional_x_b": (lambda f: {"x_b": f["x_b"][:, 1]}, "sample covariates must be 2-d arrays"),
    "y_b_one_short": (lambda f: {"y_b": f["y_b"][:-1]}, "y length does not match sample B"),
    "empty_sample_a": (lambda f: {"x_a": f["x_a"][:0], "pi_a": f["pi_a"][:0], "y_a": f["y_a"][:0]}, "empty sample"),
    # sample A is the larger one here, so N = n_A leaves sample B inside the population
    "srswor_size_equals_population": (lambda f: {"design": DesignDescriptor(DesignKind.SRSWOR, n=len(f["pi_a"])),
                                                 "n_population": len(f["pi_a"])},
                                      "SRSWOR design size must be below the population size"),
    # SRSWOR defines every pi_a as n/N; a stated 0.9 is another design's
    "srswor_pi_a_not_n_over_n": (lambda f: {"design": DesignDescriptor(DesignKind.SRSWOR, n=len(f["pi_a"])),
                                            "pi_a": np.full(len(f["pi_a"]), 0.9)},
                                 "SRSWOR inclusion probabilities in sample A must be n/N"),
}


@pytest.mark.parametrize("corrupt, match", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_observed_data_rejects_invalid_values_at_construction(corrupt, match):
    observed = make_observed(seed=1)
    fields = {name: getattr(observed, name) for name in field_names(ObservedData)}
    with pytest.raises(ValidationError, match=match):
        ObservedData(**{**fields, **corrupt(fields)})


@pytest.mark.parametrize("stated, accepted", [(f"{1 / 3:.15g}", True), (repr(1 / 3 * (1 + 1e-11)), False)],
                         ids=["n_over_n_to_15_digits", "n_over_n_off_by_1e-11"])
def test_srswor_pi_a_is_n_over_n_to_a_relative_1e_12(stated, accepted):
    # n/N = 30/90 written to 15 significant digits (R's default) is 1e-15 off; 1e-11 off is another design's
    base = make_observed(seed=9, n_population=90, design_kind=DesignKind.SRSWOR, srswor_n=30)
    fields = {name: getattr(base, name) for name in field_names(ObservedData)}
    fields["pi_a"] = np.full(30, float(stated))
    if accepted:
        assert ObservedData(**fields).pi_a[0] == float(stated)
    else:
        with pytest.raises(ValidationError, match="must be n/N = 30/90"):
            ObservedData(**fields)


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


@pytest.mark.parametrize("cols", [(), (-1, 1), (0, 3)], ids=["empty", "negative", "too-large"])
def test_column_mask_out_of_range_raises(cols):
    spec = ModelSpec(outcome_cols=cols, selection_cols=cols)
    for which in ("outcome", "selection"):
        with pytest.raises(ValidationError, match=rf"{which} column mask \[.*\] out of range for 3 covariates"):
            spec.columns(which, 3)
    assert ModelSpec(outcome_cols=(0, 2)).columns("outcome", 3).tolist() == [0, 2]


def test_columns_without_a_mask_select_a_view():
    x = np.ones((4, 3))
    assert np.shares_memory(x[:, ModelSpec().columns("selection", 3)], x)
    assert not np.shares_memory(x[:, ModelSpec(selection_cols=(0, 1, 2)).columns("selection", 3)], x)


@pytest.mark.parametrize("enum, text, member", [
    (DesignKind, "SRSWOR", DesignKind.SRSWOR),
    (FitMethod, "Kim_Haziza", FitMethod.KIM_HAZIZA),
    (OutcomeFamily, "Logistic_Binary", OutcomeFamily.LOGISTIC_BINARY),
    (ResidualVarianceModel, "LINEAR_in_x", ResidualVarianceModel.LINEAR_IN_X),
    (Regime, "Both_Correct", Regime.BOTH_CORRECT),
    (EstimatorKind, "hajek", EstimatorKind.HAJEK),
])
def test_config_enums_match_in_any_case(enum, text, member):
    assert enum(text) is member
    with pytest.raises(ValueError, match="is not a valid"):
        enum(text + "_x")


def test_eval_plan_takes_names_in_any_case():
    plan = EvalPlan(var_pairs=[("dr1", "Both_Correct")])
    assert plan.var_pairs == ((EstimatorKind.DR1, Regime.BOTH_CORRECT),)


def csv_round_trip(observed, directory):
    """Write an ObservedData to the CLI's sample CSVs and read it back."""
    path_a, path_b = write_sample_csvs(observed, directory)
    config = RunConfig(output_dir=directory, sample_a_path=path_a, sample_b_path=path_b,
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
            plain = plain_data(d)
            assert plain == {"kind": d.kind.value, "n": d.n}
            assert DesignDescriptor(DesignKind(plain["kind"]), plain["n"]) == d

    def test_model_spec(self):
        spec = ModelSpec(outcome_family=OutcomeFamily.LOGISTIC_BINARY,
                         fit_method=FitMethod.CALIBRATION,
                         outcome_cols=(0, 2), selection_cols=None)
        plain = plain_data(spec)
        assert plain == {"outcome_family": "logistic_binary", "fit_method": "calibration",
                         "outcome_cols": [0, 2], "selection_cols": None}
        assert ModelSpec(OutcomeFamily(plain["outcome_family"]), FitMethod(plain["fit_method"]),
                         tuple(plain["outcome_cols"]), plain["selection_cols"]) == spec


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_is_identity_on_random_valid_data(seed):
    observed = make_observed(seed=seed)
    assert validate(observed) is observed

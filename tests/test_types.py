"""Data-model invariants, validation errors, and serialization round trips."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    Analysis,
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
    fit_nuisance,
    validate,
    variance,
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
    "negative_pi_a": (lambda f: with_entry(f, "pi_a", 3, -0.2), "nonpositive inclusion probability"),
    "pi_a_above_one": (lambda f: with_entry(f, "pi_a", 2, 1.5), "above 1"),
    "inf_x_b": (lambda f: with_entry(f, "x_b", (1, 2), np.inf), "non-finite covariate in sample B"),
    "non_intercept_first_column": (lambda f: with_entry(f, "x_a", (0, 0), 2.0), "intercept"),
    "population_below_n_b": (lambda f: {"n_population": len(f["y_b"]) - 1}, "population size smaller"),
    # 2 rows against 3 covariate columns (intercept + 2)
    "underdetermined_sample_b": (lambda f: {"x_b": np.array([[1.0, 0.5, 1.0], [1.0, -0.5, 2.0]]),
                                            "y_b": np.array([1.0, 2.0])}, "underdetermined fit"),
    "missing_outcome_on_sample_b": (lambda f: with_entry(f, "y_b", 1, np.nan), "sample B"),
    "one_dimensional_x_b": (lambda f: {"x_b": f["x_b"][:, 1]}, "sample covariates must be 2-d arrays"),
    "y_b_one_short": (lambda f: {"y_b": f["y_b"][:-1]}, "y length does not match sample B"),
    "empty_sample_a": (lambda f: {"x_a": f["x_a"][:0], "pi_a": f["pi_a"][:0], "y_a": f["y_a"][:0]}, "empty sample"),
    # sample A is the larger one here, so N = n_A leaves sample B inside the population
    "srswor_size_equals_population": (lambda f: {"design": DesignKind.SRSWOR, "n_population": len(f["pi_a"])},
                                      "SRSWOR sample A size must be below the population size"),
    # SRSWOR defines every pi_a as n/N; a stated 0.9 is another design's
    "srswor_pi_a_not_n_over_n": (lambda f: {"design": DesignKind.SRSWOR, "pi_a": np.full(len(f["pi_a"]), 0.9)},
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


# Each enum field of the library's config dataclasses: the other fields it needs, a mixed-case value and its member.
ENUM_FIELDS = {
    "ModelSpec.outcome_family": (ModelSpec, {}, "outcome_family", "Logistic_Binary", OutcomeFamily.LOGISTIC_BINARY),
    "ModelSpec.fit_method": (ModelSpec, {}, "fit_method", "Calibration", FitMethod.CALIBRATION),
    "RunConfig.design": (RunConfig, {"output_dir": Path("out")}, "design", "SRSWOR", DesignKind.SRSWOR),
    "RunConfig.sigma_model": (RunConfig, {"output_dir": Path("out")}, "sigma_model", "LINEAR_IN_X",
                              ResidualVarianceModel.LINEAR_IN_X),
}


@pytest.mark.parametrize("cls, others, name, text, member", ENUM_FIELDS.values(), ids=ENUM_FIELDS.keys())
def test_config_dataclasses_take_an_enum_field_by_its_value_in_any_case(cls, others, name, text, member):
    assert getattr(cls(**others, **{name: text}), name) is member
    with pytest.raises(ValueError, match=f"'{text}_x' is not a valid {type(member).__name__}"):
        cls(**others, **{name: text + "_x"})


def test_run_config_design_defaults_to_poisson():
    assert RunConfig(output_dir=Path("out")).design is DesignKind.POISSON


@pytest.mark.parametrize("value, match", [
    ({"level": "0.9"}, "level must be a number, not '0.9'"),
    ({"level": True}, "level must be a number, not True"),
    ({"level": 1.5}, r"^level must be in \(0, 1\), not 1\.5$"),
    ({"max_workers": None}, "max_workers must be an integer, not None"),
], ids=["level-string", "level-bool", "level-1.5", "max_workers-null"])
def test_run_config_checks_its_level_and_worker_count(value, match):
    with pytest.raises(ValidationError, match=match):
        RunConfig(output_dir=Path("out"), **value)


def test_a_logistic_family_given_by_its_value_gives_the_member_built_dr1():
    # the family is compared with `is`: kept as a string, it fits a logistic outcome and predicts with the identity link
    observed = make_observed(seed=7)
    binary = dataclasses.replace(observed, y_a=(observed.y_a > 1.0).astype(float),
                                 y_b=(observed.y_b > 1.0).astype(float))
    by_member, by_value = (Analysis(binary, fit_nuisance(binary, ModelSpec(outcome_family=family)))
                           .point(EstimatorKind.DR1) for family in (OutcomeFamily.LOGISTIC_BINARY, "logistic_binary"))
    assert by_value == by_member


def test_an_srswor_design_given_by_its_value_gives_the_member_built_ht_variance():
    # the kind is compared with `is`: kept as a string, every check reads it as Poisson
    observed = make_observed(seed=7, design_kind=DesignKind.SRSWOR)
    by_value = dataclasses.replace(observed, design="SRSWOR")  # ObservedData(design="SRSWOR", ...)
    assert by_value.design is DesignKind.SRSWOR
    assert (variance(EstimatorKind.HT, None, Analysis(by_value))
            == variance(EstimatorKind.HT, None, Analysis(observed)))


def test_a_fit_method_given_by_its_value_gives_the_member_built_fit():
    # the selection-fit table is keyed by member: a method kept as a string finds no row, a bare KeyError
    observed = make_observed(seed=7)
    by_member, by_value = (fit_nuisance(observed, ModelSpec(fit_method=method))
                           for method in (FitMethod.CALIBRATION, "calibration"))
    assert by_value.spec == by_member.spec
    np.testing.assert_array_equal(by_value.alpha, by_member.alpha)
    np.testing.assert_array_equal(by_value.beta, by_member.beta)
    assert by_value.iterations == by_member.iterations


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

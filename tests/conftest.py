"""Shared builders and the session-scoped Monte Carlo runs.

The heavy repeated-sampling studies are expensive (around 1000 replicates
at population size 10^4), so each scenario runs once per session and its
summary feeds every test that needs it. They run on a process pool: a
pooled summary is bit-identical to the serial one, which criterion 9 and
``test_parallel_matches_serial`` check.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.special import expit

from surveyblend import (
    Covariate,
    DesignKind,
    EstimatorKind,
    EvalPlan,
    FitMethod,
    ModelSpec,
    ObservedData,
    OutcomeFamily,
    Regime,
    ScenarioConfig,
    fit_nuisance,
    run_replications,
)

K = EstimatorKind
R = Regime


def make_observed(seed=0, n_x=2, n_population=400, *,
                  design_kind=DesignKind.POISSON, y_on_a=True, beta=None, alpha=None,
                  noise_sd=0.5, srswor_n=80) -> ObservedData:
    """Random well-formed dataset drawn from an actual two-sample mechanism.

    Both samples come from one pseudo-population, so the selection-model
    estimating equations have a root with near certainty.
    """
    rng = default_rng(seed)
    beta = np.asarray(beta if beta is not None else [1.0] + [0.8] * n_x)
    alpha = np.asarray(alpha if alpha is not None else [-0.6] + [0.4] * n_x)
    x = np.column_stack([np.ones(n_population), rng.normal(size=(n_population, n_x))])
    y = x @ beta + noise_sd * rng.normal(size=n_population)
    b_idx = rng.random(n_population) < expit(x @ alpha)
    if design_kind is DesignKind.SRSWOR:
        a_idx = np.sort(rng.choice(n_population, srswor_n, replace=False))
        pi_a_all = np.full(n_population, srswor_n / n_population)
    else:
        pi_a_all = rng.uniform(0.15, 0.9, n_population)
        a_idx = rng.random(n_population) < pi_a_all
    return ObservedData(n_population=n_population, design=design_kind,
                        x_a=x[a_idx], pi_a=pi_a_all[a_idx],
                        y_a=y[a_idx] if y_on_a else None,
                        x_b=x[b_idx], y_b=y[b_idx])


def summary_row(summary, name):
    """The row of a Monte Carlo summary by its name."""
    return {r.name: r for r in summary.rows}[name]


def default_fit(observed, method=FitMethod.PSEUDO_ML, family=OutcomeFamily.LINEAR_GAUSSIAN,
                outcome_cols=None, selection_cols=None):
    spec = ModelSpec(outcome_family=family, fit_method=method,
                     outcome_cols=outcome_cols, selection_cols=selection_cols)
    return fit_nuisance(observed, spec)


# ---------------------------------------------------------------------------
# Desk-scale scenarios. One frame each; outcomes and samples redrawn per
# replicate. Sample A is Poisson with a mildly covariate-dependent rate.

_BASE = dict(
    n_population=10_000,
    covariates=(Covariate("normal"), Covariate("normal")),
    beta_true=(1.0, 1.0, 1.0),
    alpha_true=(-2.35, 0.5, 0.5),
    noise_sd=1.0,
    sample_a_size=500,
    pi_a_coef=(0.0, 0.4, 0.0),
    # The 10% variance-validity band needs the empirical variance known to
    # a few percent; its own Monte Carlo error is about sqrt(kurtosis/R).
    replicates=2500,
)

SCENARIO_BOTH_CORRECT = ScenarioConfig(
    **_BASE,
    plan=EvalPlan(
        prob_points=(K.HT, K.HAJEK),
        var_pairs=((K.DR1, R.BOTH_CORRECT), (K.DR2, R.BOTH_CORRECT)),
        cov_pairs=((K.DR2, R.BOTH_CORRECT, K.HAJEK),),
        pooled=((K.DR2, R.BOTH_CORRECT, K.HAJEK),),
    ),
    seed=1001,
)

# The IPW variance formulas carry a large selection-fit correction, so the
# first-order asymptotics need a more informative probability sample and
# milder weights before the 10% oracle band is meaningful.
SCENARIO_IPW = ScenarioConfig(
    n_population=10_000,
    covariates=(Covariate("normal"), Covariate("normal")),
    beta_true=(1.0, 1.0, 1.0),
    alpha_true=(-2.1, 0.3, 0.3),
    noise_sd=1.0,
    sample_a_size=1000,
    pi_a_coef=(0.0, 0.4, 0.0),
    replicates=2000,
    plan=EvalPlan(
        var_pairs=((K.IPW1, R.SELECTION_CORRECT), (K.IPW2, R.SELECTION_CORRECT)),
        cov_pairs=((K.IPW1, R.SELECTION_CORRECT, K.HT),),
    ),
    seed=1006,
)

SCENARIO_OUTCOME_WRONG = ScenarioConfig(
    **_BASE,
    outcome_cols_override=(0, 1),
    plan=EvalPlan(
        var_pairs=((K.DR1, R.SELECTION_CORRECT), (K.DR2, R.SELECTION_CORRECT)),
    ),
    seed=1002,
)

SCENARIO_SELECTION_WRONG = ScenarioConfig(
    **_BASE,
    selection_cols_override=(0, 1),
    plan=EvalPlan(point_only=(K.DR1, K.DR2)),
    seed=1003,
)

SCENARIO_BOTH_WRONG = ScenarioConfig(
    **_BASE,
    outcome_cols_override=(0, 1),
    selection_cols_override=(0, 1),
    plan=EvalPlan(point_only=(K.DR1, K.DR2)),
    seed=1004,
)

# Kim-Haziza needs one covariate set for both models, so the outcome model
# goes wrong through a missing squared term rather than a missing column.
SCENARIO_KH = ScenarioConfig(
    n_population=10_000,
    covariates=(Covariate("normal"), Covariate("square_of", (1,))),
    beta_true=(1.0, 1.0, 0.7),
    alpha_true=(-2.2, 0.5, 0.0),
    noise_sd=1.0,
    sample_a_size=500,
    pi_a_coef=(0.0, 0.4, 0.0),
    fit_method=FitMethod.KIM_HAZIZA,
    outcome_cols_override=(0, 1),
    selection_cols_override=(0, 1),
    replicates=2500,
    plan=EvalPlan(var_pairs=((K.DR1, R.KH_DOUBLY_ROBUST),)),
    seed=1005,
)


@pytest.fixture(scope="session")
def mc_both_correct():
    return run_replications(SCENARIO_BOTH_CORRECT, parallel=True)


@pytest.fixture(scope="session")
def mc_ipw():
    return run_replications(SCENARIO_IPW, parallel=True)


@pytest.fixture(scope="session")
def mc_ipw_calibration():
    return run_replications(dataclasses.replace(SCENARIO_IPW, fit_method=FitMethod.CALIBRATION), parallel=True)


@pytest.fixture(scope="session")
def mc_outcome_wrong():
    return run_replications(SCENARIO_OUTCOME_WRONG, parallel=True)


@pytest.fixture(scope="session")
def mc_selection_wrong():
    return run_replications(SCENARIO_SELECTION_WRONG, parallel=True)


@pytest.fixture(scope="session")
def mc_both_wrong():
    return run_replications(SCENARIO_BOTH_WRONG, parallel=True)


@pytest.fixture(scope="session")
def mc_kim_haziza():
    return run_replications(SCENARIO_KH, parallel=True)

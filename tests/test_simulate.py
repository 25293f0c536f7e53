"""Simulation harness: generation contracts, determinism, and sampling laws."""

import numpy as np
import pytest
from scipy.special import logit

from surveyblend import (
    Covariate,
    DesignKind,
    EstimatorKind,
    EvalPlan,
    FinitePopulation,
    FitMethod,
    OutcomeFamily,
    Regime,
    ScenarioConfig,
    SimulationError,
    SolverError,
    ValidationError,
    draw_samples,
    generate_population,
    fit_nuisance,
    run_replications,
)
from surveyblend import simulate

K = EstimatorKind


def small_config(**overrides):
    base = dict(
        n_population=1_500,
        covariates=(Covariate("normal"),),
        beta_true=(1.0, 1.0),
        alpha_true=(-1.5, 0.4),
        noise_sd=1.0,
        sample_a_size=150,
        replicates=40,
        plan=EvalPlan(prob_points=(K.HAJEK,),
                      var_pairs=((K.DR1, Regime.BOTH_CORRECT),),
                      pooled=((K.DR1, Regime.BOTH_CORRECT, K.HAJEK),)),
        seed=31415,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGeneratePopulation:
    def test_zero_noise_outcomes_lie_on_the_model(self):
        config = small_config(noise_sd=0.0)
        pop = generate_population(config)
        np.testing.assert_allclose(pop.y, pop.x @ np.asarray(config.beta_true), rtol=0, atol=0)

    def test_intercept_only_selection_is_constant(self):
        config = small_config(covariates=(Covariate("normal"),),
                              alpha_true=(float(logit(0.1)), 0.0))
        pop = generate_population(config)
        np.testing.assert_allclose(pop.pi_b_true, 0.1, rtol=1e-12)

    def test_srswor_design_probabilities(self):
        config = small_config(design_kind=DesignKind.SRSWOR, sample_a_size=100, pi_a_coef=None)
        pop = generate_population(config)
        np.testing.assert_allclose(pop.pi_a, 100 / 1_500)

    def test_covariate_kinds(self):
        config = small_config(
            covariates=(Covariate("uniform", (0.0, 2.0)), Covariate("bernoulli", (0.3,)),
                        Covariate("square_of", (1,))),
            beta_true=(1.0, 0.5, 0.5, 0.0),
            alpha_true=(-1.5, 0.2, 0.0, 0.0))
        pop = generate_population(config)
        assert np.all((pop.x[:, 1] >= 0) & (pop.x[:, 1] <= 2))
        assert set(np.unique(pop.x[:, 2])) <= {0.0, 1.0}
        np.testing.assert_allclose(pop.x[:, 3], pop.x[:, 1] ** 2)

    def test_square_of_must_point_backwards(self):
        with pytest.raises(ValidationError):
            small_config(covariates=(Covariate("square_of", (1,)),),
                         beta_true=(1.0, 1.0), alpha_true=(-1.5, 0.0))

    def test_logistic_binary_outcomes(self):
        config = small_config(
            outcome_family=__import__("surveyblend").OutcomeFamily.LOGISTIC_BINARY)
        pop = generate_population(config)
        assert set(np.unique(pop.y)) <= {0.0, 1.0}


class TestDrawSamples:
    def test_census_design_returns_every_unit(self):
        pop = generate_population(small_config())
        census = FinitePopulation(x=pop.x, y=pop.y, pi_a=np.ones(pop.size),
                                  pi_b_true=pop.pi_b_true, design=pop.design)
        observed, y_bar = draw_samples(census, 5)
        assert observed.n_a == pop.size
        assert y_bar == pytest.approx(float(np.mean(pop.y)))

    def test_srswor_sample_size_is_fixed(self):
        config = small_config(design_kind=DesignKind.SRSWOR, sample_a_size=100, pi_a_coef=None)
        pop = generate_population(config)
        for seed in range(5):
            observed, _ = draw_samples(pop, seed)
            assert observed.n_a == 100

    def test_poisson_inclusion_frequencies(self):
        config = small_config()
        pop = generate_population(config)
        n_rep = 400
        hits = np.zeros(5)
        for r in range(n_rep):
            observed, _ = draw_samples(pop, 1_000 + r)
            for j in range(5):
                hits[j] += bool(np.any(np.all(observed.x_a == pop.x[j], axis=1)))
        freq = hits / n_rep
        se = np.sqrt(pop.pi_a[:5] * (1 - pop.pi_a[:5]) / n_rep)
        assert np.all(np.abs(freq - pop.pi_a[:5]) < 3.0 * se + 1e-12)

    def test_sample_b_size_concentrates(self):
        config = small_config()
        pop = generate_population(config)
        expected = float(np.sum(pop.pi_b_true))
        sd_single = float(np.sqrt(np.sum(pop.pi_b_true * (1 - pop.pi_b_true))))
        sizes = [draw_samples(pop, 2_000 + r)[0].n_b for r in range(200)]
        assert abs(np.mean(sizes) - expected) < 3.0 * sd_single

    def test_outcomes_must_give_one_finite_value_per_unit(self):
        pop = generate_population(small_config())
        for y in (pop.y[:-1], np.where(np.arange(pop.size) == 3, np.nan, pop.y)):
            with pytest.raises(ValidationError, match="finite values"):
                draw_samples(pop, 0, y)

    def test_degenerate_selection_errors_after_retries(self):
        config = small_config(alpha_true=(-14.0, 0.0))
        pop = generate_population(config)
        with pytest.raises(SimulationError, match="attempts"):
            draw_samples(pop, 0)


class TestRunReplications:
    def test_identical_config_and_seed_is_bit_identical(self):
        a = run_replications(small_config())
        b = run_replications(small_config())
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_replications(small_config())
        parallel = run_replications(small_config(), parallel=True, max_workers=2)
        assert serial == parallel

    def test_mc_standard_errors_shrink_with_replicates(self):
        lo = run_replications(small_config(replicates=150))
        hi = run_replications(small_config(replicates=600))
        r_lo = lo.row("DR1/both_correct")
        r_hi = hi.row("DR1/both_correct")
        ratio = r_hi.mc_bias_se / r_lo.mc_bias_se
        assert 0.35 < ratio < 0.72  # target 1/2, allow sampling wobble

    def test_a_serial_study_builds_and_checks_the_frame_once(self, monkeypatch):
        calls = []
        check = FinitePopulation.__post_init__

        def counted_check(population):
            calls.append(None)
            check(population)

        monkeypatch.setattr(FinitePopulation, "__post_init__", counted_check)
        run_replications(small_config(replicates=5))
        assert len(calls) == 1

    def test_failure_threshold_raises(self):
        config = small_config(alpha_true=(-14.0, 0.0), replicates=10)
        for parallel in (False, True):
            with pytest.raises(SimulationError, match=r"10 of 10 replicates failed; first error "
                                                      r"\(replicate 0\): SimulationError: could not draw"):
                run_replications(config, parallel=parallel, max_workers=2)

    def test_programming_error_in_a_replicate_propagates(self, monkeypatch):
        calls = []

        def fit_that_breaks_once(observed, spec):
            calls.append(None)
            if len(calls) == 3:
                raise TypeError("injected")
            return fit_nuisance(observed, spec)

        monkeypatch.setattr(simulate, "fit_nuisance", fit_that_breaks_once)
        with pytest.raises(TypeError, match="injected"):
            run_replications(small_config(replicates=5))

    def test_a_failed_replicate_is_left_out_of_every_row(self, monkeypatch):
        config = small_config(replicates=100)
        population = generate_population(config)
        kept = [simulate._replicate_record(config, population, r) for r in range(100) if r != 2]
        calls = []

        def fit_that_fails_once(observed, spec):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("injected")
            return fit_nuisance(observed, spec)

        monkeypatch.setattr(simulate, "fit_nuisance", fit_that_fails_once)
        summary = run_replications(config)
        assert summary.n_failed == 1 and all(row.n_used == 99 for row in summary.rows)
        assert summary.y_bar_mean == float(np.mean([y_bar for y_bar, _ in kept]))
        for row in summary.rows:
            assert row.mc_mean == float(np.mean([values[row.name]["est"] for _, values in kept]))

    def test_logistic_kim_haziza_study_runs_clean(self):
        # The shape of the study-kh benchmark workload: SRSWOR sample A, logistic outcome, joint fit.
        config = ScenarioConfig(
            n_population=10_000,
            covariates=(Covariate("normal"), Covariate("square_of", (1,))),
            beta_true=(-0.5, 1.0, 0.7),
            alpha_true=(-2.2, 0.5, 0.0),
            outcome_family=OutcomeFamily.LOGISTIC_BINARY,
            design_kind=DesignKind.SRSWOR,
            sample_a_size=500,
            fit_method=FitMethod.KIM_HAZIZA,
            outcome_cols_override=(0, 1),
            selection_cols_override=(0, 1),
            replicates=60,
            plan=EvalPlan(var_pairs=((K.DR1, Regime.KH_DOUBLY_ROBUST),)),
            seed=7,
        )
        summary = run_replications(config)
        row = summary.row("DR1/kh_doubly_robust")
        assert summary.n_failed == 0 and row.n_used == 60
        assert all(np.isfinite(v) for v in (row.mc_bias, row.emp_variance, row.mean_var_estimate, row.coverage))
        assert abs(row.mc_bias) < 4.0 * row.mc_bias_se

    def test_rows_follow_the_plan(self):
        summary = run_replications(small_config(replicates=10))
        names = [r.name for r in summary.rows]
        assert names == ["Hajek", "DR1/both_correct", "pooled(DR1/both_correct,Hajek)"]
        assert summary.row("Hajek").coverage is not None

    def test_config_round_trip(self):
        config = small_config()
        assert ScenarioConfig.from_dict(config.to_dict()) == config

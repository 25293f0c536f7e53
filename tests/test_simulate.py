"""Simulation harness: generation contracts, determinism, sampling laws, and relations between evaluated rows."""

import dataclasses
import multiprocessing
import re

import numpy as np
import pytest
from numpy.random import SeedSequence
from scipy.special import logit

from surveyblend import (
    Analysis,
    Covariate,
    DesignKind,
    EstimatorKind,
    EvalPlan,
    FinitePopulation,
    FitMethod,
    ObservedData,
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
from surveyblend.types import config_dataclass, plain_data
from surveyblend.uncertainty import SUPPORTED

from conftest import default_fit, make_observed, summary_row

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

    def test_pi_a_coef_under_srswor_is_a_validation_error(self):
        # SRSWOR gives every unit n/N, so the coefficients would be dropped without a word
        with pytest.raises(ValidationError, match="pi_a_coef shapes Poisson design rates"):
            small_config(design_kind=DesignKind.SRSWOR, sample_a_size=100, pi_a_coef=(0.0, 3.0))

    def test_noise_sd_under_a_logistic_outcome_is_a_validation_error(self):
        # a logistic outcome is a Bernoulli draw, which reads no noise setting
        with pytest.raises(ValidationError, match="a logistic_binary outcome draws no noise"):
            small_config(outcome_family=OutcomeFamily.LOGISTIC_BINARY, noise_sd=2.0)

    @pytest.mark.parametrize("overrides, message", [
        ({"beta_true": (1e308, 1e308)}, "non-finite outcome; change beta_true, noise_sd or noise_sd_coef"),
        ({"noise_sd_coef": (1e308, 1e308)}, "non-finite outcome; change beta_true, noise_sd or noise_sd_coef"),
        ({"noise_sd": 1e308}, "non-finite outcome; change beta_true, noise_sd or noise_sd_coef"),
        ({"alpha_true": (1e308, 1e308)}, "true selection probabilities outside (0, 1); rescale alpha_true"),
        ({"alpha_true": (1e308, -1e308)}, "true selection probabilities outside (0, 1); rescale alpha_true"),
        ({"pi_a_coef": (1e308, 1e308)}, "design probabilities outside (0, 1]; change sample_a_size or pi_a_coef"),
        ({"covariates": (Covariate("normal", (1e200, 1.0)), Covariate("square_of", (1,))),
          "beta_true": (1.0, 1.0, 1.0), "alpha_true": (-1.5, 0.4, 0.0)},
         "non-finite covariate value; change the covariates' params"),
    ], ids=["beta_true", "noise_sd_coef", "noise_sd", "alpha_true", "alpha_true-mixed-sign", "pi_a_coef",
            "square_of"])
    def test_an_outcome_past_the_float_range_is_a_validation_error(self, overrides, message):
        # every setting is finite, but a product or square of them overflows to inf or NaN; numpy stays silent, so
        # this holds under pytest's error::RuntimeWarning filter too, and the check after the step names the key
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            generate_population(small_config(**overrides))

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

    def test_a_kind_without_params_draws_with_its_defaults(self):
        kinds = {"normal": (0.0, 1.0), "uniform": (0.0, 1.0), "bernoulli": (0.5,)}
        bare = small_config(covariates=tuple(Covariate(kind) for kind in kinds),
                            beta_true=(1.0, 0.5, 0.5, 0.5), alpha_true=(-1.5, 0.2, 0.0, 0.0))
        stated = dataclasses.replace(bare, covariates=tuple(Covariate(k, p) for k, p in kinds.items()))
        assert np.array_equal(generate_population(bare).x, generate_population(stated).x)

    def test_a_frame_past_numpy_largest_size_is_a_simulation_error(self):
        # numpy refuses 10^20 rows before it allocates anything
        with pytest.raises(SimulationError, match="n_population 100000000000000000000 is too large"):
            generate_population(small_config(n_population=10**20))

    def test_a_frame_that_cannot_be_allocated_is_a_simulation_error(self, monkeypatch):
        def no_memory(rng, params, n, columns):
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

        counts, defaults, _ = simulate._COVARIATE_KINDS["normal"]
        monkeypatch.setitem(simulate._COVARIATE_KINDS, "normal", (counts, defaults, no_memory))
        with pytest.raises(SimulationError, match="n_population 10000000000000 is too large.*72.8 TiB"):
            generate_population(small_config(n_population=10**13))

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

    def test_a_frame_given_its_design_by_value_draws_by_the_member(self):
        # the draw compares the design with `is`: kept as a string, an SRSWOR frame would draw as Poisson
        pop = generate_population(small_config(design_kind=DesignKind.SRSWOR, sample_a_size=100, pi_a_coef=None))
        by_value = dataclasses.replace(pop, design="SRSWOR")
        assert by_value.design is DesignKind.SRSWOR
        assert draw_samples(by_value, 3)[0].x_a.tolist() == draw_samples(pop, 3)[0].x_a.tolist()

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

    def test_degenerate_selection_fails_its_one_draw(self):
        # an empty sample B fails ObservedData's own check; the two samples are drawn once, not redrawn
        pop = generate_population(small_config(alpha_true=(-14.0, 0.0)))
        seed = SeedSequence(0)
        with pytest.raises(ValidationError, match="^empty sample$"):
            draw_samples(pop, seed)
        assert seed.n_children_spawned == 2


class TestRunReplications:
    def test_identical_config_and_seed_is_bit_identical(self):
        a = run_replications(small_config())
        b = run_replications(small_config())
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_replications(small_config())
        parallel = run_replications(small_config(), parallel=True, max_workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("replicates, requested, started", [(1000, 200, 67), (500, 2, 2)],
                             ids=["more-workers-than-chunks", "benchmark-setting"])
    def test_a_pool_starts_no_worker_past_the_chunk_count(self, pool_sizes, replicates, requested, started):
        # a worker past the chunk count would idle
        summary = run_replications(small_config(replicates=replicates), parallel=True, max_workers=requested)
        assert pool_sizes == [started]
        assert (summary.n_replicates, summary.n_failed) == (replicates, 0)

    @pytest.mark.parametrize("max_workers, cores", [(1, 4), (None, 1)], ids=["one-worker", "all-of-one-core"])
    def test_a_study_that_would_start_one_worker_runs_in_process(self, monkeypatch, pool_sizes, max_workers, cores):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
        pooled = run_replications(small_config(replicates=8), parallel=True, max_workers=max_workers)
        assert pool_sizes == []
        assert pooled == run_replications(small_config(replicates=8))

    def test_mc_standard_errors_shrink_with_replicates(self):
        lo = run_replications(small_config(replicates=150))
        hi = run_replications(small_config(replicates=600))
        r_lo = summary_row(lo, "DR1/both_correct")
        r_hi = summary_row(hi, "DR1/both_correct")
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
            with pytest.raises(SimulationError, match=r"^10 of 10 replicates failed; first error "
                                                      r"\(replicate 0\): ValidationError: empty sample$"):
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

    @pytest.mark.parametrize("parallel", [False, pytest.param(True, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="only a fork-started worker inherits the patched fit"))],
        ids=["serial", "two-workers"])
    def test_a_linear_algebra_error_in_a_replicate_propagates(self, monkeypatch, parallel):
        # Every solve the package makes turns a singular system into a SolverError, so a raw LinAlgError is a bug.
        def fit_that_breaks(observed, spec):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(simulate, "fit_nuisance", fit_that_breaks)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            run_replications(small_config(replicates=5), parallel=parallel, max_workers=2)

    def test_replicate_streams_are_the_children_spawn_derives(self, monkeypatch):
        # Each replicate seeds its outcome and sample streams directly; they must stay what spawn(2) gave.
        config = small_config()
        population = generate_population(config)
        drawn = []

        def recording_draw(population, seed, y):
            drawn.append((seed, y))
            return draw_samples(population, seed, y)

        monkeypatch.setattr(simulate, "draw_samples", recording_draw)
        simulate._replicate_record(config, population, 3)
        y_ss, sample_ss = SeedSequence(entropy=config.seed, spawn_key=(simulate._REP_STREAM, 3)).spawn(2)
        (seed, y), = drawn
        assert y.tobytes() == simulate.redraw_outcomes(population, config, y_ss).tobytes()
        assert np.array_equal(seed.generate_state(8), sample_ss.generate_state(8))

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
        row = summary_row(summary, "DR1/kh_doubly_robust")
        assert summary.n_failed == 0 and row.n_used == 60
        assert all(np.isfinite(v) for v in (row.mc_bias, row.emp_variance, row.mean_var_estimate, row.coverage))
        assert abs(row.mc_bias) < 4.0 * row.mc_bias_se

    def test_rows_follow_the_plan(self):
        summary = run_replications(small_config(replicates=10))
        names = [r.name for r in summary.rows]
        assert names == ["Hajek", "DR1/both_correct", "pooled(DR1/both_correct,Hajek)"]
        assert summary_row(summary, "Hajek").coverage is not None

    def test_a_point_listed_with_and_without_its_interval_keeps_the_interval(self):
        # the two rows share the name "HT"; the point-only one must not replace the interval's values
        both = run_replications(small_config(replicates=10, plan=EvalPlan(prob_points=("HT",), point_only=("HT",))))
        alone = run_replications(small_config(replicates=10, plan=EvalPlan(prob_points=("HT",))))
        assert both == alone
        assert summary_row(both, "HT").coverage is not None

    def test_config_round_trip(self):
        config = small_config()
        assert config_dataclass(ScenarioConfig, "scenario", plain_data(config)) == config

    def test_an_infinite_noise_sd_is_rejected_as_the_config_loads(self):
        # an infinite noise_sd once passed its bound and failed only on the first drawn outcome, naming three keys
        raw = {**plain_data(small_config()), "noise_sd": float("inf")}
        with pytest.raises(ValidationError, match=r"^scenario\.noise_sd must be finite and at least 0, not inf$"):
            config_dataclass(ScenarioConfig, "scenario", raw)


def every_row(fit_method):
    """The plan of every interval, covariance and pooled entry that ``SUPPORTED`` holds under ``fit_method``."""
    pairs = tuple(pair for pair, fits in SUPPORTED.items() if pair[1] is not None and fit_method in fits)
    pairing = tuple((kind, regime, prob) for kind, regime in pairs for prob in (K.HT, K.HAJEK))
    return EvalPlan(prob_points=(K.HT, K.HAJEK), point_only=(K.IPW1, K.IPW2, K.DR1, K.DR2),
                    var_pairs=pairs, cov_pairs=pairing, pooled=pairing)


# The power of the outcome's scale that each value carries; the pooled weight w is a ratio of variances.
SCALE_POWER = {"est": 1, "lo": 1, "hi": 1, "prob_est": 1, "var": 2, "cov": 2, "w": 0}


class TestEvaluateRelations:
    """Every row of a plan with every entry supported under the fit obeys exact relations of the formulas.

    Permuting the rows leaves it, and scaling y scales it, under both designs; under SRSWOR,
    shifting y shifts its points and leaves its spreads. (Under Poisson DR2 centers its
    predictions at their HT mean, so its variance moves with the shift; that half is open.)

    Each holds for the evaluation alone, so each side reads the same fit
    (scaled or shifted with y) rather than a refit, and only the summation
    order separates the first two. Over 30 datasets of this shape, under
    each fit method, the worst relative difference was 3.3e-15 under Poisson
    and 4.0e-15 under SRSWOR, and the worst absolute one in w 1.1e-14; w is
    compared absolutely, since it is a difference of variances over their
    sum and may sit near 0.
    """

    TOLERANCE = 1e-13  # relative, and absolute in w; for both designs

    @staticmethod
    def rows(observed, fit):
        return simulate.evaluate(every_row(fit.spec.fit_method), Analysis(observed, fit), 0.95)

    @staticmethod
    def rebuilt(observed, rows_a, rows_b, scale=1.0):
        return ObservedData(n_population=observed.n_population, design=observed.design,
                            x_a=observed.x_a[rows_a], pi_a=observed.pi_a[rows_a], y_a=scale * observed.y_a[rows_a],
                            x_b=observed.x_b[rows_b], y_b=scale * observed.y_b[rows_b])

    def assert_rows_match(self, got, want, scale=1.0):
        """Each value in ``got`` is the one in ``want`` times ``scale ** SCALE_POWER[key]``, to ``TOLERANCE``."""
        assert [row.name for row in got] == [row.name for row in want]
        for row, expected in zip(got, want):
            for key, value in expected.values.items():
                target = scale ** SCALE_POWER[key] * value
                assert abs(row.values[key] - target) <= self.TOLERANCE * (1.0 if key == "w" else abs(target)), \
                    (row.name, key)

    @pytest.mark.parametrize("method", list(FitMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("design_kind", [DesignKind.POISSON, DesignKind.SRSWOR], ids=lambda k: k.value)
    def test_permuting_both_samples_leaves_every_row(self, design_kind, method):
        observed = make_observed(seed=97, n_population=2000, design_kind=design_kind, srswor_n=300)
        fit = default_fit(observed, method=method)
        rng = np.random.default_rng(97)
        permuted = self.rebuilt(observed, rng.permutation(observed.n_a), rng.permutation(observed.n_b))
        self.assert_rows_match(self.rows(permuted, fit), self.rows(observed, fit))

    @pytest.mark.parametrize("method", list(FitMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("design_kind", [DesignKind.POISSON, DesignKind.SRSWOR], ids=lambda k: k.value)
    def test_scaling_y_scales_every_row(self, design_kind, method):
        observed = make_observed(seed=98, n_population=2000, design_kind=design_kind, srswor_n=300)
        fit = default_fit(observed, method=method)
        scaled = self.rebuilt(observed, slice(None), slice(None), scale=7.3)
        scaled_fit = dataclasses.replace(fit, beta=7.3 * fit.beta)  # the linear outcome model scales with y
        self.assert_rows_match(self.rows(scaled, scaled_fit), self.rows(observed, fit), scale=7.3)

    @pytest.mark.parametrize("method", list(FitMethod), ids=lambda m: m.value)
    def test_shifting_y_shifts_every_point_and_keeps_every_spread_under_srswor(self, method):
        """y + a, with the fit's intercept moved by a, moves each point by a and leaves each var, cov and w.

        Under SRSWOR sum 1/pi = N, so HT and DR1 shift with the self-normalized kinds; IPW1 (sum over B
        of y/pi_b) does not, and its rows are left out. Adding a = 10^6 rounds each outcome by up to
        5.8e-11, so the spreads move at that level: over 30 datasets of this shape, under each fit method, the
        worst point missed its shift by 5.8e-16 a, var and cov moved by 1.0e-10 relative and w by 7.4e-11.
        """
        shift, point_tol, spread_tol = 1e6, 1e-14, 1e-9  # points absolutely in units of a; var, cov relative; w abs
        observed = make_observed(seed=99, n_population=2000, design_kind=DesignKind.SRSWOR, srswor_n=300)
        fit = default_fit(observed, method=method)
        shifted = ObservedData(n_population=observed.n_population, design=observed.design, x_a=observed.x_a,
                               pi_a=observed.pi_a, y_a=observed.y_a + shift, x_b=observed.x_b, y_b=observed.y_b + shift)
        shifted_fit = dataclasses.replace(fit, beta=fit.beta + shift * (np.arange(fit.beta.size) == 0))
        got, want = self.rows(shifted, shifted_fit), self.rows(observed, fit)
        assert [row.name for row in got] == [row.name for row in want]
        for row, expected in zip(got, want):
            if K.IPW1 in (row.kind, row.prob):
                continue
            for key, value in expected.values.items():
                if SCALE_POWER[key] == 1:
                    assert abs(row.values[key] - (value + shift)) <= point_tol * shift, (row.name, key)
                else:
                    assert abs(row.values[key] - value) <= spread_tol * (1.0 if key == "w" else abs(value)), \
                        (row.name, key)

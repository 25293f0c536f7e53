"""Point-estimator identities, hand-checked values, equivariance properties,
the one-analysis-per-dataset invariant, and the selection-probability floor."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyblend import (
    Analysis,
    Covariate,
    DesignKind,
    EstimatorKind,
    ModelSpec,
    NuisanceFit,
    ObservedData,
    Regime,
    ScenarioConfig,
    SolverError,
    ValidationError,
    cov_estimate,
    draw_samples,
    fit_nuisance,
    generate_population,
    variance,
)
from surveyblend import designs, estimators
from surveyblend.cli import build_estimate_report, load_config, main, write_sample_csvs
from surveyblend.nuisance import check_selection_floor
from surveyblend.simulate import _replicate_record
from conftest import SCENARIO_BOTH_CORRECT, default_fit, make_observed, summary_row

K = EstimatorKind
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "estimate_example.yaml"


def zero_outcome_fit(fit: NuisanceFit) -> NuisanceFit:
    """Same selection fit, outcome model forced to the zero function."""
    return NuisanceFit(alpha=fit.alpha, beta=np.zeros_like(fit.beta), spec=fit.spec,
                       iterations=fit.iterations, max_abs_score=fit.max_abs_score)


class TestDefinitions:
    @pytest.mark.parametrize("design_kind", list(DesignKind), ids=lambda k: k.value)
    def test_points_are_the_weighted_sums(self, design_kind):
        observed = make_observed(seed=30, design_kind=design_kind)
        analysis = Analysis(observed, default_fit(observed))
        y_a, pi_a, y_b, pi_b = observed.y_a, observed.pi_a, observed.y_b, analysis.fit.pi_b(observed.x_b)
        expected = {K.HT: np.sum(y_a / pi_a) / observed.n_population,
                    K.HAJEK: np.sum(y_a / pi_a) / np.sum(1 / pi_a),
                    K.IPW1: np.sum(y_b / pi_b) / observed.n_population,
                    K.IPW2: np.sum(y_b / pi_b) / np.sum(1 / pi_b)}
        for kind, value in expected.items():
            assert analysis.point(kind) == pytest.approx(value, rel=1e-12), kind

    @pytest.mark.parametrize("design_kind", list(DesignKind), ids=lambda k: k.value)
    def test_variance_and_covariance_are_the_pairwise_sum(self, design_kind):
        # (1/N^2) sum_ij (pi_ij - pi_i pi_j) / pi_ij (u_i/pi_i) (v_j/pi_j) over sample A, written out densely
        observed = make_observed(seed=33, design_kind=design_kind)
        analysis = Analysis(observed, default_fit(observed))
        pi, big_n = observed.pi_a, observed.n_population
        if design_kind is DesignKind.POISSON:
            pi_ij = np.outer(pi, pi)
        else:
            n = observed.n_a
            pi_ij = np.full((n, n), n * (n - 1) / (big_n * (big_n - 1)))
        np.fill_diagonal(pi_ij, pi)
        delta = (pi_ij - np.outer(pi, pi)) / pi_ij

        def dense(u, v):
            return float((u / pi) @ delta @ (v / pi)) / big_n**2

        m_a = analysis.fit.m(observed.x_a)
        u = m_a - np.sum(m_a / pi) / big_n  # DR2's predictions centered at their HT mean
        v = observed.y_a - np.sum(observed.y_a / pi) / np.sum(1 / pi)  # outcomes centered at the Hajek mean
        assert variance(K.HAJEK, None, analysis) == pytest.approx(dense(v, v), rel=1e-12)
        assert variance(K.HT, None, analysis) == pytest.approx(dense(observed.y_a, observed.y_a), rel=1e-12)
        assert cov_estimate(K.DR2, Regime.BOTH_CORRECT, K.HAJEK, analysis) == pytest.approx(dense(u, v), rel=1e-12)

    def test_dr1_hand_checked_toy(self):
        # Three units, sample A = two units with pi = 2/3 (weight sum 3), sample
        # B a census with fitted selection probability pinned at 1 (logit 40
        # rounds to exactly 1.0 in float64). Outcome model predicts 1 everywhere.
        observed = ObservedData(
            n_population=3,
            design=DesignKind.POISSON,
            x_a=np.ones((2, 1)),
            pi_a=np.array([2 / 3, 2 / 3]),
            x_b=np.ones((3, 1)),
            y_b=np.array([0.0, 2.0, 4.0]),
        )
        fit = NuisanceFit(alpha=np.array([40.0]), beta=np.array([1.0]), spec=ModelSpec(),
                          iterations=0, max_abs_score=0.0)
        assert fit.pi_b(observed.x_b)[0] == 1.0
        assert Analysis(observed, fit).point(K.DR1) == pytest.approx(2.0, rel=1e-12)

    def test_dr_with_zero_outcome_model_is_ipw(self):
        observed = make_observed(seed=31)
        fit = default_fit(observed)
        zero = zero_outcome_fit(fit)
        assert Analysis(observed, zero).point(K.DR1) == pytest.approx(
            Analysis(observed, fit).point(K.IPW1), rel=1e-14)
        assert Analysis(observed, zero).point(K.DR2) == pytest.approx(
            Analysis(observed, fit).point(K.IPW2), rel=1e-14)

    def test_dr1_rearrangement_identity(self):
        observed = make_observed(seed=32)
        fit = default_fit(observed)
        m_a = fit.m(observed.x_a)
        m_b = fit.m(observed.x_b)
        pi_b = fit.pi_b(observed.x_b)
        expected = (Analysis(observed, fit).point(K.IPW1)
                    + float(np.sum(m_a / observed.pi_a)) / observed.n_population
                    - float(np.sum(m_b / pi_b)) / observed.n_population)
        assert Analysis(observed, fit).point(K.DR1) == pytest.approx(expected, rel=1e-12)


class TestErrors:
    def test_ht_requires_outcome_on_sample_a(self):
        observed = make_observed(seed=33, y_on_a=False)
        with pytest.raises(ValidationError, match="outcome on sample A"):
            Analysis(observed).point(K.HT)

    def test_ipw_requires_fit(self):
        observed = make_observed(seed=34)
        with pytest.raises(ValidationError, match="nuisance fit"):
            Analysis(observed, None).point(K.IPW1)


class TestLocationEquivariance:
    """Adding a constant to every outcome shifts the ratio estimators exactly."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5_000), st.floats(-20, 20))
    def test_shift(self, seed, c):
        observed = make_observed(seed=seed)
        shifted = ObservedData(
            n_population=observed.n_population, design=observed.design,
            x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a + c,
            x_b=observed.x_b, y_b=observed.y_b + c)
        fit = default_fit(observed)
        fit_shifted = default_fit(shifted)
        for kind in (K.HAJEK, K.IPW2, K.DR2):
            base = Analysis(observed, fit).point(kind)
            moved = Analysis(shifted, fit_shifted).point(kind)
            assert moved - base == pytest.approx(c, rel=1e-9, abs=1e-9)


@pytest.fixture
def prediction_calls(monkeypatch):
    """Counts of NuisanceFit.m and NuisanceFit.pi_b evaluations, and of design-weight builds as "weights"."""
    calls = Counter()
    for name in ("m", "pi_b"):
        def counted(self, x, _name=name, _method=getattr(NuisanceFit, name)):
            calls[_name] += 1
            return _method(self, x)
        monkeypatch.setattr(NuisanceFit, name, counted)

    def built(*args, _build=designs.design_weights):
        calls["weights"] += 1
        return _build(*args)
    for module in (designs, estimators):
        monkeypatch.setattr(module, "design_weights", built)
    return calls


class TestOneAnalysisPerDataset:
    """Each sample's predictions are evaluated, and its weights built, once."""

    def test_default_replicate(self, prediction_calls):
        population = generate_population(SCENARIO_BOTH_CORRECT)
        assert isinstance(_replicate_record(SCENARIO_BOTH_CORRECT, population, 0), tuple)
        assert prediction_calls["m"] == 2
        assert prediction_calls["pi_b"] == 2
        assert prediction_calls["weights"] == 2

    def test_example_estimate_report(self, prediction_calls):
        config = load_config(EXAMPLE_CONFIG, "estimate")
        report = build_estimate_report(config, make_observed(seed=35))
        assert len(report["pooled"]) == 1
        assert prediction_calls["m"] == 2
        assert prediction_calls["pi_b"] == 2
        assert prediction_calls["weights"] == 2

    def test_without_a_fit_only_sample_a_has_weights(self, prediction_calls):
        analysis = Analysis(make_observed(seed=36))
        assert variance(K.HT, None, analysis) > 0.0 and variance(K.HAJEK, None, analysis) > 0.0
        assert prediction_calls["weights"] == 1
        assert analysis.weights_b is None


def test_dr2_unbiased_when_both_models_correct(mc_both_correct):
    row = summary_row(mc_both_correct, "DR2/both_correct")
    assert abs(row.mc_bias) < 3.0 * row.mc_bias_se


FLOOR_SCENARIO = ScenarioConfig(n_population=2_000, covariates=(Covariate("normal"),), beta_true=(1.0, 1.0),
                                alpha_true=(-1.5, 0.5), sample_a_size=200, replicates=2, seed=4242)


def floored_population(sample: str):
    """FLOOR_SCENARIO's frame with unit 0 moved to x_1 = -60, where pi_b(x; alpha_true) is about 1e-14.

    Unit 0 is put in sample ``sample`` (always) and kept out of the other
    one. In sample B, unit 1 at x_1 = +60 balances it, so the pseudo-ML
    score, which reads sample B only through the column sums of x_b, keeps
    its root near alpha_true.
    """
    pop = generate_population(FLOOR_SCENARIO)
    x, pi_a, pi_b = pop.x.copy(), pop.pi_a.copy(), pop.pi_b_true.copy()
    x[0, 1] = -60.0
    if sample == "A":
        pi_a[0], pi_b[0] = 1.0, 1e-12
    else:
        x[1, 1] = 60.0
        pi_a[:2], pi_b[:2] = 1e-12, 1.0 - 1e-12
    return dataclasses.replace(pop, x=x, pi_a=pi_a, pi_b_true=pi_b)


@pytest.mark.parametrize("pi_b", [[np.nan], [0.5, np.nan], [0.0, 0.5], [1e-9, 0.5]],
                         ids=["nan", "nan_among_valid", "zero", "below_floor"])
def test_selection_floor_rejects_nan_and_small_probabilities(pi_b):
    with pytest.raises(SolverError, match="refusing to clamp"):
        check_selection_floor(np.array(pi_b))


def test_a_nan_selection_fit_stops_the_analysis():
    observed = make_observed(seed=37)
    fit = default_fit(observed)
    broken = NuisanceFit(alpha=np.full_like(fit.alpha, np.nan), beta=fit.beta, spec=fit.spec,
                         iterations=fit.iterations, max_abs_score=fit.max_abs_score)
    with pytest.raises(SolverError, match="refusing to clamp"):
        Analysis(observed, broken)


@pytest.mark.parametrize("sample", ["A", "B"])
class TestSelectionFloor:
    """A fitted selection probability below PI_B_FLOOR on one sample's row stops the analysis."""

    def test_analysis_refuses_to_clamp(self, sample):
        observed, _ = draw_samples(floored_population(sample), 7)
        x_in, x_out = (observed.x_a, observed.x_b) if sample == "A" else (observed.x_b, observed.x_a)
        # The fit without the moved units shows that only sample `sample` falls below the floor.
        in_a, in_b = np.abs(observed.x_a[:, 1]) < 50, np.abs(observed.x_b[:, 1]) < 50
        clean = ObservedData(n_population=observed.n_population, design=observed.design,
                             x_a=observed.x_a[in_a], pi_a=observed.pi_a[in_a],
                             x_b=observed.x_b[in_b], y_b=observed.y_b[in_b])
        reference = fit_nuisance(clean, FLOOR_SCENARIO.model_spec)
        assert reference.pi_b(x_in).min() < 1e-8 < 1e-3 < reference.pi_b(x_out).min()
        with pytest.raises(SolverError, match="refusing to clamp"):
            Analysis(observed, fit_nuisance(observed, FLOOR_SCENARIO.model_spec)).point(K.DR1)

    def test_replicate_fails_with_the_solver_error(self, sample):
        record = _replicate_record(FLOOR_SCENARIO, floored_population(sample), 0)
        assert record.startswith("SolverError:") and "refusing to clamp" in record

    def test_estimate_exits_3(self, sample, tmp_path, capsys):
        observed, _ = draw_samples(floored_population(sample), 7)
        write_sample_csvs(observed, tmp_path)
        config = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        config["output_dir"] = str(tmp_path / "out")
        config["inputs"] = {"sample_a": str(tmp_path / "sample_a.csv"),
                            "sample_b": str(tmp_path / "sample_b.csv"), "n_population": observed.n_population}
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(config))
        assert main(["estimate", "--config", str(tmp_path / "config.yaml")]) == 3
        assert "refusing to clamp" in capsys.readouterr().err

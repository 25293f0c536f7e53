"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Every Monte Carlo criterion reads a session-scoped repeated-sampling
study (population 10^4, thousands of replicates) whose scenario definitions
live in conftest.py.
"""

import itertools
import time

import numpy as np
import yaml

from surveyblend import (
    Analysis,
    DesignKind,
    EstimatorKind,
    FitMethod,
    ModelSpec,
    NuisanceFit,
    Regime,
    ResidualVarianceModel,
    draw_samples,
    fit_nuisance,
    generate_population,
    regression_adjustment,
    residual_variance,
    variance,
)
from surveyblend.cli import main
from surveyblend.designs import design_weights
from surveyblend.nuisance import (
    KH_TOL,
    SELECTION_TOL,
    score_and_jacobian_calibration,
    score_and_jacobian_kh,
    score_and_jacobian_outcome_logistic,
    score_and_jacobian_pml,
)
from conftest import SCENARIO_KH, default_fit, make_observed, summary_row

K = EstimatorKind
R = Regime


def _report(num, desc, checks):
    ok = all(passed for passed, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    for passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed"


def test_criterion_1_exact_enumeration_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(314)
    big_n, n = 6, 3
    z = rng.normal(size=big_n)
    w = rng.normal(size=big_n)
    pi = n / big_n
    samples = list(itertools.combinations(range(big_n), n))
    assert len(samples) == 20

    def ht(values, s):
        return sum(values[i] for i in s) / pi / big_n

    checks = []
    for label, u, v in (("variance", z, z), ("covariance", z, w)):
        t_u = [ht(u, s) for s in samples]
        t_v = [ht(v, s) for s in samples]
        exact = float(np.mean([(a - np.mean(t_u)) * (b - np.mean(t_v))
                               for a, b in zip(t_u, t_v)]))
        weights = design_weights(DesignKind.SRSWOR, np.full(n, pi), big_n)
        mean_est = float(np.mean([weights.cov(u[list(s)], v[list(s)]) for s in samples]))
        err = abs(mean_est - exact)
        checks.append((err <= 1e-15 + 1e-13 * abs(exact),
                       f"{label}: |mean estimate - exact| = {err:.2e}"))
    elapsed = time.perf_counter() - started
    checks.append((elapsed <= 1.0, f"enumeration finished in {elapsed:.3f}s"))
    _report(1, "SRSWOR enumeration shows exact design unbiasedness", checks)


def test_criterion_2_double_robustness(mc_both_correct, mc_outcome_wrong,
                                        mc_selection_wrong, mc_both_wrong):
    checks = []
    for summary, scenario, rows in (
            (mc_both_correct, "both correct", ("DR1/both_correct", "DR2/both_correct")),
            (mc_outcome_wrong, "outcome wrong", ("DR1/selection_correct", "DR2/selection_correct")),
            (mc_selection_wrong, "selection wrong", ("DR1", "DR2"))):
        for name in rows:
            row = summary_row(summary, name)
            t = abs(row.mc_bias) / row.mc_bias_se
            checks.append((t < 3.0, f"{scenario}: {name} |bias|/se = {t:.2f} < 3"))
    for name in ("DR1", "DR2"):
        row = summary_row(mc_both_wrong, name)
        t = abs(row.mc_bias) / row.mc_bias_se
        checks.append((t > 5.0, f"both wrong: {name} |bias|/se = {t:.1f} > 5 (check has power)"))
    _report(2, "DR estimators unbiased when either model is correct", checks)


def test_criterion_3_variance_validity(mc_both_correct, mc_ipw, mc_outcome_wrong,
                                        mc_kim_haziza):
    plan = (
        (mc_both_correct, ("HT", "Hajek", "DR1/both_correct", "DR2/both_correct")),
        (mc_ipw, ("IPW1/selection_correct", "IPW2/selection_correct")),
        (mc_outcome_wrong, ("DR1/selection_correct", "DR2/selection_correct")),
        (mc_kim_haziza, ("DR1/kh_doubly_robust",)),
    )
    checks = []
    for summary, names in plan:
        for name in names:
            row = summary_row(summary, name)
            checks.append((abs(row.rel_var_bias) <= 0.10,
                           f"{name}: relative variance bias {row.rel_var_bias:+.3f} within 10%"))
            checks.append((0.93 <= row.coverage <= 0.97,
                           f"{name}: coverage {row.coverage:.3f} in [0.93, 0.97]"))
    _report(3, "variance estimators track the Monte Carlo variance", checks)


def test_criterion_4_kh_doubly_robust_variance(mc_kim_haziza):
    row = summary_row(mc_kim_haziza, "DR1/kh_doubly_robust")
    checks = [
        (abs(row.rel_var_bias) <= 0.10,
         f"variance bias {row.rel_var_bias:+.3f} within 10% under a wrong outcome model"),
        (0.93 <= row.coverage <= 0.97, f"coverage {row.coverage:.3f} in [0.93, 0.97]"),
    ]
    # C-term identity on one desk-scale replicate: linear model with
    # intercept plus a constant residual-variance estimate force the
    # correction to vanish.
    population = generate_population(SCENARIO_KH)
    observed, _ = draw_samples(population, 424242)
    fit = fit_nuisance(observed, SCENARIO_KH.model_spec)
    s2_a, s2_b = residual_variance(Analysis(observed, fit), ResidualVarianceModel.CONSTANT)
    pi_b = fit.pi_b(observed.x_b)
    correction = float((np.sum(s2_a / observed.pi_a) - np.sum(s2_b / pi_b))
                       / observed.n_population**2)
    checks.append((abs(correction) <= 1e-10, f"|C| = {abs(correction):.2e} <= 1e-10"))
    _report(4, "Kim-Haziza variance estimator is doubly robust", checks)


def test_criterion_5_covariance_non_independence(mc_both_correct):
    row = summary_row(mc_both_correct, "cov(DR2/both_correct,Hajek)")
    t = abs(row.emp_cov) / row.emp_cov_se
    rel = row.mean_cov_estimate / row.emp_cov - 1.0
    checks = [
        (t > 3.0, f"empirical covariance t-statistic {t:.1f} > 3 (estimates are dependent)"),
        (abs(rel) <= 0.15, f"covariance estimator relative bias {rel:+.3f} within 15%"),
    ]
    _report(5, "DR and probability-sample estimates covary as estimated", checks)


def test_criterion_6_pooling_efficiency(mc_both_correct):
    pooled = summary_row(mc_both_correct, "pooled(DR2/both_correct,Hajek)")
    dr = summary_row(mc_both_correct, "DR2/both_correct")
    prob = summary_row(mc_both_correct, "Hajek")
    floor = min(dr.emp_variance, prob.emp_variance)
    margin = 2.0 * (pooled.emp_variance_se / pooled.emp_variance
                    + min(dr.emp_variance_se / dr.emp_variance,
                          prob.emp_variance_se / prob.emp_variance))
    checks = [
        (pooled.emp_variance <= floor * (1.0 + margin),
         f"pooled MC variance {pooled.emp_variance:.3e} <= min(components) "
         f"{floor:.3e} * (1 + {margin:.3f})"),
        (0.93 <= pooled.coverage <= 0.97,
         f"pooled coverage {pooled.coverage:.3f} in [0.93, 0.97]"),
    ]
    _report(6, "optimal pooling does not lose efficiency against either input", checks)


def test_criterion_7_reduction_identities():
    checks = []
    worst_point, worst_var, worst_adj = 0.0, 0.0, 0.0
    for seed in range(100):
        observed = make_observed(seed=20_000 + seed)
        fit = default_fit(observed)
        zero = NuisanceFit(alpha=fit.alpha, beta=np.zeros_like(fit.beta), spec=fit.spec,
                           iterations=fit.iterations, max_abs_score=fit.max_abs_score)
        for ipw_kind, dr_kind in ((K.IPW1, K.DR1), (K.IPW2, K.DR2)):
            a = Analysis(observed, fit).point(ipw_kind)
            b = Analysis(observed, zero).point(dr_kind)
            worst_point = max(worst_point, abs(a - b) / max(1.0, abs(a)))
            va = variance(ipw_kind, R.SELECTION_CORRECT, Analysis(observed, fit))
            vb = variance(dr_kind, R.SELECTION_CORRECT, Analysis(observed, zero))
            worst_var = max(worst_var, abs(va - vb) / max(abs(va), 1e-12))
        for ipw_kind, dr_kind in ((K.IPW1, K.DR1), (K.IPW2, K.DR2)):
            raw = regression_adjustment(ipw_kind, Analysis(observed, fit))
            red = regression_adjustment(dr_kind, Analysis(observed, zero))
            scale = max(1.0, float(np.max(np.abs(raw))))
            worst_adj = max(worst_adj, float(np.max(np.abs(raw - red))) / scale)
    checks.append((worst_point <= 1e-12, f"IPW vs zero-model DR points: worst rel diff {worst_point:.2e}"))
    checks.append((worst_var <= 1e-12, f"IPW vs zero-model DR variances: worst rel diff {worst_var:.2e}"))
    checks.append((worst_adj <= 1e-12, f"adjustment coefficient reductions: worst rel diff {worst_adj:.2e}"))
    _report(7, "IPW formulas equal DR formulas with a zero outcome model", checks)


def test_criterion_8_solver_contracts():
    checks = []
    worst_resid = {"pml": 0.0, "calibration": 0.0, "kim_haziza": 0.0}
    for seed in range(20):
        observed = make_observed(seed=30_000 + seed)
        for method, key, tol in ((FitMethod.PSEUDO_ML, "pml", SELECTION_TOL),
                                 (FitMethod.CALIBRATION, "calibration", SELECTION_TOL),
                                 (FitMethod.KIM_HAZIZA, "kim_haziza", KH_TOL)):
            fit = default_fit(observed, method=method)
            worst_resid[key] = max(worst_resid[key], fit.max_abs_score)
    for key, tol in (("pml", SELECTION_TOL), ("calibration", SELECTION_TOL),
                     ("kim_haziza", KH_TOL)):
        checks.append((worst_resid[key] <= tol,
                       f"{key}: worst estimating-equation residual {worst_resid[key]:.2e} <= {tol:g}"))

    def fd_jacobian(func, x, h=1e-6):
        x = np.asarray(x, dtype=float)
        f0 = func(x)
        jac = np.zeros((f0.size, x.size))
        for j in range(x.size):
            step = h * (1.0 + abs(x[j]))
            e = np.zeros(x.size)
            e[j] = step
            jac[:, j] = (func(x + e) - func(x - e)) / (2.0 * step)
        return jac

    rng = np.random.default_rng(777)
    worst_fd = 0.0
    n_points = 0
    observed = make_observed(seed=90)
    binary = np.asarray(observed.y_b > np.median(observed.y_b), dtype=float)
    from surveyblend import ObservedData

    observed_bin = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a,
                                x_b=observed.x_b, y_b=binary)
    cols = np.arange(observed.n_covariates)
    kh_spec = ModelSpec(fit_method=FitMethod.KIM_HAZIZA)
    systems = (
        score_and_jacobian_pml(observed, cols),
        score_and_jacobian_calibration(observed, cols),
        score_and_jacobian_outcome_logistic(observed_bin, cols),
        score_and_jacobian_kh(observed, kh_spec),
    )
    sizes = (cols.size, cols.size, cols.size, 2 * cols.size)
    for system, size in zip(systems, sizes):
        for _ in range(13):
            if n_points >= 50:
                break
            point = rng.normal(scale=0.5, size=size)
            _, jac = system(point)
            fd = fd_jacobian(lambda v: system(v)[0], point)
            rel = float(np.max(np.abs(jac - fd))) / max(1.0, float(np.max(np.abs(jac))))
            worst_fd = max(worst_fd, rel)
            n_points += 1
    checks.append((n_points >= 50, f"checked {n_points} random points"))
    checks.append((worst_fd <= 1e-5,
                   f"worst jacobian vs finite-difference relative error {worst_fd:.2e} <= 1e-5"))
    _report(8, "solver residual and jacobian contracts hold", checks)


def test_criterion_9_cli_reproducibility(tmp_path):
    def config(out, parallel):
        cfg = {
            "mode": "simulate",
            "output_dir": str(tmp_path / out),
            "scenario": {
                "n_population": 2000,
                "covariates": [{"kind": "normal"}, {"kind": "normal"}],
                "beta_true": [1.0, 1.0, 1.0],
                "alpha_true": [-1.8, 0.4, 0.4],
                "sample_a_size": 200,
                "replicates": 24,
                "seed": 90210,
                "plan": {
                    "prob_points": ["HT", "Hajek"],
                    "var_pairs": [["DR1", "both_correct"], ["DR2", "both_correct"]],
                    "cov_pairs": [["DR2", "both_correct", "Hajek"]],
                    "pooled": [["DR2", "both_correct", "Hajek"]],
                },
            },
        }
        path = tmp_path / f"{out}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    assert main(["simulate", "--config", str(config("serial_1", False))]) == 0
    assert main(["simulate", "--config", str(config("serial_2", False))]) == 0
    assert main(["simulate", "--config", str(config("parallel_1", True)), "--workers", "3"]) == 0
    s1 = (tmp_path / "serial_1" / "summary.csv").read_bytes()
    s2 = (tmp_path / "serial_2" / "summary.csv").read_bytes()
    p1 = (tmp_path / "parallel_1" / "summary.csv").read_bytes()
    checks = [
        (s1 == s2, "two serial runs with one config+seed are byte-identical"),
        (s1 == p1, "parallel run is byte-identical to serial"),
    ]
    _report(9, "identical config and seed reproduce bit-identical outputs", checks)

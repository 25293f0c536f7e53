"""Finite-population generator and repeated-sampling Monte Carlo harness.

One population (the frame of covariates and design probabilities) is
generated per scenario and held fixed; each replicate then redraws the
outcomes from the superpopulation model (optionally held fixed for
diagnostics), redraws both samples, refits the nuisance models, and
evaluates every requested estimator, variance, covariance, and pooled
report. Replicate RNG streams are indexed by (master seed, replicate),
so serial and parallel execution produce bit-identical summaries.

Misspecification never touches the generating mechanism: toggling
``outcome_wrong``/``selection_wrong`` only drops a covariate column from
the corresponding analysis model.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng
from scipy.special import expit

from .combiner import pool, z_score
from .estimators import PROB_KINDS, Analysis, EstimatorKind
from .nuisance import fit_nuisance
from .types import (
    DesignDescriptor,
    DesignKind,
    FinitePopulation,
    FitMethod,
    ModelSpec,
    ObservedData,
    OutcomeFamily,
    ValidationError,
    plain_data,
)
from .uncertainty import (Regime, ResidualVarianceModel, check_supported, cov_estimate,
                          var_prob_estimate, variance)

__all__ = [
    "Covariate",
    "EvalPlan",
    "MonteCarloSummary",
    "ReplicateTruth",
    "ScenarioConfig",
    "SimulationError",
    "SummaryRow",
    "draw_samples",
    "generate_population",
    "run_replications",
]

_POP_STREAM = 0
_REP_STREAM = 1
_MAX_FAILURE_FRACTION = 0.01
_DRAW_ATTEMPTS = 10


class SimulationError(RuntimeError):
    """A scenario could not be simulated or too many replicates failed."""


@dataclass(frozen=True)
class Covariate:
    """One generated covariate column.

    kinds: ``normal`` (mean, sd), ``uniform`` (low, high), ``bernoulli``
    (p), ``square_of`` (1-based index of an earlier generated column).
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if self.kind not in ("normal", "uniform", "bernoulli", "square_of"):
            raise ValidationError(f"unknown covariate kind {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "Covariate":
        return cls(kind=d["kind"], params=tuple(d.get("params", ())))


@dataclass(frozen=True)
class EvalPlan:
    """Which estimators, variances, covariances and pooled rows to evaluate."""

    prob_points: tuple[EstimatorKind, ...] = ()
    point_only: tuple[EstimatorKind, ...] = ()
    var_pairs: tuple[tuple[EstimatorKind, Regime], ...] = ()
    cov_pairs: tuple[tuple[EstimatorKind, Regime, EstimatorKind], ...] = ()
    pooled: tuple[tuple[EstimatorKind, Regime, EstimatorKind], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prob_points", tuple(self.prob_points))
        object.__setattr__(self, "point_only", tuple(self.point_only))
        object.__setattr__(self, "var_pairs", tuple((k, r) for k, r in self.var_pairs))
        object.__setattr__(self, "cov_pairs", tuple((k, r, p) for k, r, p in self.cov_pairs))
        object.__setattr__(self, "pooled", tuple((k, r, p) for k, r, p in self.pooled))
        for kind in self.prob_points:
            if kind not in PROB_KINDS:
                raise ValidationError(f"{kind.value} is not a probability-sample estimator")
        for _, _, prob in tuple(self.cov_pairs) + tuple(self.pooled):
            if prob not in PROB_KINDS:
                raise ValidationError(f"{prob.value} is not a probability-sample estimator")

    @classmethod
    def from_dict(cls, d: dict) -> "EvalPlan":
        return cls(
            prob_points=tuple(EstimatorKind(v) for v in d.get("prob_points", ())),
            point_only=tuple(EstimatorKind(v) for v in d.get("point_only", ())),
            var_pairs=tuple((EstimatorKind(k), Regime(r)) for k, r in d.get("var_pairs", ())),
            cov_pairs=tuple((EstimatorKind(k), Regime(r), EstimatorKind(p))
                            for k, r, p in d.get("cov_pairs", ())),
            pooled=tuple((EstimatorKind(k), Regime(r), EstimatorKind(p))
                         for k, r, p in d.get("pooled", ())),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate, sample, analyze and score one scenario."""

    n_population: int
    covariates: tuple[Covariate, ...]
    beta_true: tuple[float, ...]
    alpha_true: tuple[float, ...]
    outcome_family: OutcomeFamily = OutcomeFamily.LINEAR_GAUSSIAN
    noise_sd: float = 1.0
    noise_sd_coef: tuple[float, ...] | None = None
    design_kind: DesignKind = DesignKind.POISSON
    sample_a_size: int = 500
    pi_a_coef: tuple[float, ...] | None = None
    fit_method: FitMethod = FitMethod.PSEUDO_ML
    outcome_wrong: bool = False
    selection_wrong: bool = False
    misspec_drop_col: int = -1
    outcome_cols_override: tuple[int, ...] | None = None
    selection_cols_override: tuple[int, ...] | None = None
    collect_y_on_a: bool = True
    redraw_y: bool = True
    replicates: int = 1000
    level: float = 0.95
    sigma_model: ResidualVarianceModel = ResidualVarianceModel.CONSTANT
    plan: EvalPlan = field(default_factory=EvalPlan)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "beta_true", tuple(float(v) for v in self.beta_true))
        object.__setattr__(self, "alpha_true", tuple(float(v) for v in self.alpha_true))
        if self.replicates < 2:
            raise ValidationError("at least two replicates are required")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("confidence level outside (0, 1)")
        if self.sample_a_size >= self.n_population:
            raise ValidationError("target sample size must be below the population size")
        p = self.n_covariate_columns
        if len(self.beta_true) != p or len(self.alpha_true) != p:
            raise ValidationError(f"true coefficient vectors must have length {p} (intercept included)")
        for j, cov in enumerate(self.covariates, start=1):
            if cov.kind == "square_of":
                src = int(cov.params[0]) if cov.params else 0
                if not 1 <= src < j:
                    raise ValidationError("square_of must reference an earlier covariate column")
        plan = self.plan
        for kind, regime, *_ in plan.var_pairs + plan.cov_pairs + plan.pooled:
            check_supported(kind, regime, self.fit_method)

    @property
    def n_covariate_columns(self) -> int:
        return 1 + len(self.covariates)

    def model_spec(self) -> ModelSpec:
        p = self.n_covariate_columns
        drop = self.misspec_drop_col if self.misspec_drop_col >= 0 else p - 1
        full = tuple(range(p))
        wrong = tuple(c for c in full if c != drop)

        if self.outcome_cols_override is not None:
            outcome_cols = tuple(self.outcome_cols_override)
        else:
            outcome_cols = wrong if self.outcome_wrong else None
        if self.selection_cols_override is not None:
            selection_cols = tuple(self.selection_cols_override)
        else:
            selection_cols = wrong if self.selection_wrong else None
        return ModelSpec(outcome_family=self.outcome_family, fit_method=self.fit_method,
                         outcome_cols=outcome_cols, selection_cols=selection_cols)

    def to_dict(self) -> dict:
        return plain_data(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        def _tup(v):
            return None if v is None else tuple(v)

        return cls(
            n_population=int(d["n_population"]),
            covariates=tuple(Covariate.from_dict(c) for c in d["covariates"]),
            beta_true=tuple(d["beta_true"]),
            alpha_true=tuple(d["alpha_true"]),
            outcome_family=OutcomeFamily(d.get("outcome_family", "linear_gaussian")),
            noise_sd=float(d.get("noise_sd", 1.0)),
            noise_sd_coef=_tup(d.get("noise_sd_coef")),
            design_kind=DesignKind(d.get("design_kind", "poisson")),
            sample_a_size=int(d.get("sample_a_size", 500)),
            pi_a_coef=_tup(d.get("pi_a_coef")),
            fit_method=FitMethod(d.get("fit_method", "pseudo_ml")),
            outcome_wrong=bool(d.get("outcome_wrong", False)),
            selection_wrong=bool(d.get("selection_wrong", False)),
            misspec_drop_col=int(d.get("misspec_drop_col", -1)),
            outcome_cols_override=_tup(d.get("outcome_cols_override")),
            selection_cols_override=_tup(d.get("selection_cols_override")),
            collect_y_on_a=bool(d.get("collect_y_on_a", True)),
            redraw_y=bool(d.get("redraw_y", True)),
            replicates=int(d.get("replicates", 1000)),
            level=float(d.get("level", 0.95)),
            sigma_model=ResidualVarianceModel(d.get("sigma_model", "constant")),
            plan=EvalPlan.from_dict(d.get("plan", {})),
            seed=int(d.get("seed", 0)),
        )


@dataclass(frozen=True)
class ReplicateTruth:
    """Ground-truth sidecar for one replicate (simulation only)."""

    y_bar: float
    a_index: np.ndarray
    b_index: np.ndarray


def _draw_outcomes(x: np.ndarray, config: ScenarioConfig, rng) -> np.ndarray:
    eta = x @ np.asarray(config.beta_true)
    if config.outcome_family is OutcomeFamily.LOGISTIC_BINARY:
        return (rng.random(x.shape[0]) < expit(eta)).astype(float)
    if config.noise_sd_coef is not None:
        sd = np.abs(x @ np.asarray(config.noise_sd_coef))
    else:
        sd = config.noise_sd
    return eta + rng.normal(size=x.shape[0]) * sd


def generate_population(config: ScenarioConfig, seed=None) -> FinitePopulation:
    """Draw covariates, true selection probabilities, design probabilities and outcomes."""
    entropy = config.seed if seed is None else seed
    rng = default_rng(SeedSequence(entropy=entropy, spawn_key=(_POP_STREAM,)))
    n = config.n_population
    columns: list[np.ndarray] = []
    for cov in config.covariates:
        if cov.kind == "normal":
            mu, sd = (cov.params + (0.0, 1.0))[:2] if cov.params else (0.0, 1.0)
            columns.append(rng.normal(mu, sd, n))
        elif cov.kind == "uniform":
            lo, hi = cov.params if cov.params else (0.0, 1.0)
            columns.append(rng.uniform(lo, hi, n))
        elif cov.kind == "bernoulli":
            p = cov.params[0] if cov.params else 0.5
            columns.append((rng.random(n) < p).astype(float))
        else:  # square_of
            columns.append(columns[int(cov.params[0]) - 1] ** 2)
    x = np.column_stack([np.ones(n)] + columns) if columns else np.ones((n, 1))

    pi_b = expit(x @ np.asarray(config.alpha_true))
    if np.any(pi_b <= 0.0) or np.any(pi_b >= 1.0):
        raise ValidationError("true selection probabilities reach 0 or 1; rescale alpha_true")

    if config.design_kind is DesignKind.SRSWOR:
        design = DesignDescriptor(DesignKind.SRSWOR, n=config.sample_a_size)
        pi_a = np.full(n, config.sample_a_size / n)
    else:
        design = DesignDescriptor(DesignKind.POISSON)
        if config.pi_a_coef is not None:
            shape = expit(x @ np.asarray(config.pi_a_coef))
        else:
            shape = np.ones(n)
        pi_a = shape * (config.sample_a_size / float(np.sum(shape)))
        if np.any(pi_a > 1.0):
            raise ValidationError("design probabilities exceed 1; lower the target size or flatten pi_a_coef")

    y = _draw_outcomes(x, config, rng)
    return FinitePopulation(x=x, y=y, pi_a=pi_a, pi_b_true=pi_b, design=design)


def redraw_outcomes(population: FinitePopulation, config: ScenarioConfig, seed) -> FinitePopulation:
    """New outcome vector from the superpopulation model, frame held fixed."""
    ss = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    y = _draw_outcomes(population.x, config, default_rng(ss))
    return dataclasses.replace(population, y=y)


def draw_samples(population: FinitePopulation, seed, *,
                 collect_y_on_a: bool = True) -> tuple[ObservedData, ReplicateTruth]:
    """Draw sample A by the design and sample B by independent Bernoulli selection.

    The two samples come from independent RNG streams. Degenerate draws
    (either sample smaller than the covariate dimension + 1) are redrawn,
    up to ten attempts in all.
    """
    ss = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    n = population.size
    need = population.x.shape[1] + 1
    for _ in range(_DRAW_ATTEMPTS):
        a_ss, b_ss = ss.spawn(2)
        rng_a, rng_b = default_rng(a_ss), default_rng(b_ss)
        if population.design.kind is DesignKind.SRSWOR:
            a_idx = np.sort(rng_a.choice(n, population.design.n, replace=False))
        else:
            a_idx = np.flatnonzero(rng_a.random(n) < population.pi_a)
        b_idx = np.flatnonzero(rng_b.random(n) < population.pi_b_true)
        if a_idx.size >= need and b_idx.size >= need:
            observed = ObservedData(
                n_population=n,
                design=population.design,
                x_a=population.x[a_idx],
                pi_a=population.pi_a[a_idx],
                y_a=population.y[a_idx] if collect_y_on_a else None,
                x_b=population.x[b_idx],
                y_b=population.y[b_idx],
            )
            truth = ReplicateTruth(y_bar=float(np.mean(population.y)), a_index=a_idx, b_index=b_idx)
            return observed, truth
    raise SimulationError(f"could not draw usable samples after {_DRAW_ATTEMPTS} attempts")


def _label(kind: EstimatorKind, regime: Regime | None = None) -> str:
    return kind.value if regime is None else f"{kind.value}/{regime.value}"


def _replicate_record(config: ScenarioConfig, population: FinitePopulation,
                      rep_index: int, raise_errors: bool = False) -> dict[str, float] | None:
    """All requested metrics for one replicate; None when the replicate fails."""
    try:
        ss = SeedSequence(entropy=config.seed, spawn_key=(_REP_STREAM, rep_index))
        y_ss, sample_ss = ss.spawn(2)
        pop = redraw_outcomes(population, config, y_ss) if config.redraw_y else population
        observed, truth = draw_samples(pop, sample_ss, collect_y_on_a=config.collect_y_on_a)
        analysis = Analysis(observed, fit_nuisance(observed, config.model_spec()))
        z = z_score(config.level)
        y_bar = truth.y_bar
        rec: dict[str, float] = {"_ybar": y_bar}

        def add_point(label: str, kind: EstimatorKind) -> float:
            est = analysis.point(kind)
            rec[f"{label};est"] = est
            rec[f"{label};err"] = est - y_bar
            return est

        def add_cover(label: str, est: float, var: float) -> None:
            rec[f"{label};var"] = var
            half = z * np.sqrt(max(var, 0.0))
            rec[f"{label};cover"] = 1.0 if est - half <= y_bar <= est + half else 0.0

        for kind in config.plan.prob_points:
            label = _label(kind)
            est = add_point(label, kind)
            add_cover(label, est, var_prob_estimate(kind, analysis))
        for kind in config.plan.point_only:
            add_point(_label(kind), kind)
        for kind, regime in config.plan.var_pairs:
            label = _label(kind, regime)
            est = add_point(label, kind)
            add_cover(label, est, variance(kind, regime, analysis, sigma_model=config.sigma_model))
        for kind, regime, prob in config.plan.cov_pairs:
            for member, member_regime in ((kind, regime), (prob, None)):
                member_label = _label(member, member_regime)
                if f"{member_label};est" not in rec:
                    add_point(member_label, member)
            label = f"cov({_label(kind, regime)},{prob.value})"
            rec[f"{label};covest"] = cov_estimate(kind, regime, prob, analysis)
        for kind, regime, prob in config.plan.pooled:
            report = pool(analysis, kind, regime, prob, config.level, sigma_model=config.sigma_model)
            label = f"pooled({_label(kind, regime)},{prob.value})"
            rec[f"{label};w"] = report.w
            rec[f"{label};est"] = report.pooled_estimate
            rec[f"{label};err"] = report.pooled_estimate - y_bar
            rec[f"{label};var"] = report.pooled_variance
            rec[f"{label};cover"] = 1.0 if report.ci_low <= y_bar <= report.ci_high else 0.0
        return rec
    except Exception:
        if raise_errors:
            raise
        return None


_WORKER_STATE: dict = {}


def _worker_init(config: ScenarioConfig, population: FinitePopulation) -> None:
    _WORKER_STATE["args"] = (config, population)


def _worker_run(rep_index: int):
    config, population = _WORKER_STATE["args"]
    return _replicate_record(config, population, rep_index)


@dataclass(frozen=True)
class SummaryRow:
    """One aggregated line of a Monte Carlo study."""

    name: str
    row_type: str
    n_used: int
    mc_mean: float | None = None
    mc_bias: float | None = None
    mc_bias_se: float | None = None
    emp_variance: float | None = None
    emp_variance_se: float | None = None
    mean_var_estimate: float | None = None
    mean_var_estimate_se: float | None = None
    rel_var_bias: float | None = None
    coverage: float | None = None
    coverage_se: float | None = None
    emp_cov: float | None = None
    emp_cov_se: float | None = None
    mean_cov_estimate: float | None = None
    mean_cov_estimate_se: float | None = None
    rel_cov_bias: float | None = None
    mean_w: float | None = None


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated repeated-sampling results for one scenario."""

    rows: tuple[SummaryRow, ...]
    n_replicates: int
    n_failed: int
    y_bar_mean: float

    def row(self, name: str) -> SummaryRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _column(mat, col, key):
    return mat[:, col[key]]


def _point_row(label: str, mat, col, *, row_type: str = "point", has_var: bool) -> SummaryRow:
    err = _column(mat, col, f"{label};err")
    est = _column(mat, col, f"{label};est")
    ok = np.isfinite(err)
    n = int(np.sum(ok))
    err, est = err[ok], est[ok]
    bias = float(np.mean(err))
    bias_se = float(np.std(err, ddof=1) / np.sqrt(n))
    emp_var = float(np.var(err, ddof=1))
    m4 = float(np.mean((err - np.mean(err)) ** 4))
    emp_var_se = float(np.sqrt(max(m4 - emp_var**2, 0.0) / n))
    extra: dict = {}
    if has_var:
        var = _column(mat, col, f"{label};var")[ok]
        cover = _column(mat, col, f"{label};cover")[ok]
        mean_var = float(np.mean(var))
        coverage = float(np.mean(cover))
        extra = {
            "mean_var_estimate": mean_var,
            "mean_var_estimate_se": float(np.std(var, ddof=1) / np.sqrt(n)),
            "rel_var_bias": mean_var / emp_var - 1.0 if emp_var > 0 else None,
            "coverage": coverage,
            "coverage_se": float(np.sqrt(coverage * (1.0 - coverage) / n)),
        }
    if row_type == "pooled":
        extra["mean_w"] = float(np.mean(_column(mat, col, f"{label};w")[ok]))
    return SummaryRow(name=label, row_type=row_type, n_used=n, mc_mean=float(np.mean(est)),
                      mc_bias=bias, mc_bias_se=bias_se, emp_variance=emp_var,
                      emp_variance_se=emp_var_se, **extra)


def _cov_row(name: str, dr_label: str, prob_label: str, mat, col) -> SummaryRow:
    e1 = _column(mat, col, f"{dr_label};err")
    e2 = _column(mat, col, f"{prob_label};err")
    cov_est = _column(mat, col, f"{name};covest")
    ok = np.isfinite(e1)
    n = int(np.sum(ok))
    e1, e2, cov_est = e1[ok], e2[ok], cov_est[ok]
    d = (e1 - np.mean(e1)) * (e2 - np.mean(e2))
    emp_cov = float(np.sum(d) / (n - 1))
    emp_cov_se = float(np.std(d, ddof=1) / np.sqrt(n))
    mean_cov = float(np.mean(cov_est))
    return SummaryRow(
        name=name, row_type="cov", n_used=n,
        emp_cov=emp_cov, emp_cov_se=emp_cov_se,
        mean_cov_estimate=mean_cov,
        mean_cov_estimate_se=float(np.std(cov_est, ddof=1) / np.sqrt(n)),
        rel_cov_bias=mean_cov / emp_cov - 1.0 if emp_cov != 0.0 else None,
    )


def run_replications(config: ScenarioConfig, *, parallel: bool = False,
                     max_workers: int | None = None) -> MonteCarloSummary:
    """Run the full repeated-sampling study described by ``config``."""
    population = generate_population(config)
    n_rep = config.replicates
    if parallel:
        with ProcessPoolExecutor(max_workers=max_workers, initializer=_worker_init,
                                 initargs=(config, population)) as executor:
            records = list(executor.map(_worker_run, range(n_rep), chunksize=max(1, n_rep // 64)))
    else:
        records = [_replicate_record(config, population, r) for r in range(n_rep)]

    n_failed = sum(r is None for r in records)
    if n_failed > _MAX_FAILURE_FRACTION * n_rep:
        # Surface the underlying error from the first failing replicate.
        first_bad = next(i for i, r in enumerate(records) if r is None)
        try:
            _replicate_record(config, population, first_bad, raise_errors=True)
        except Exception as exc:
            raise SimulationError(f"{n_failed} of {n_rep} replicates failed; first error: {exc}") from exc
        raise SimulationError(f"{n_failed} of {n_rep} replicates failed")
    first = next(r for r in records if r is not None)
    keys = list(first.keys())
    col = {k: i for i, k in enumerate(keys)}
    mat = np.full((n_rep, len(keys)), np.nan)
    for i, rec in enumerate(records):
        if rec is not None:
            mat[i] = [rec[k] for k in keys]

    rows: list[SummaryRow] = []
    for kind in config.plan.prob_points:
        rows.append(_point_row(_label(kind), mat, col, has_var=True))
    for kind in config.plan.point_only:
        rows.append(_point_row(_label(kind), mat, col, has_var=False))
    for kind, regime in config.plan.var_pairs:
        rows.append(_point_row(_label(kind, regime), mat, col, has_var=True))
    for kind, regime, prob in config.plan.cov_pairs:
        name = f"cov({_label(kind, regime)},{prob.value})"
        rows.append(_cov_row(name, _label(kind, regime), _label(prob), mat, col))
    for kind, regime, prob in config.plan.pooled:
        name = f"pooled({_label(kind, regime)},{prob.value})"
        rows.append(_point_row(name, mat, col, row_type="pooled", has_var=True))

    ybar = _column(mat, col, "_ybar")
    return MonteCarloSummary(rows=tuple(rows), n_replicates=n_rep, n_failed=n_failed,
                             y_bar_mean=float(np.nanmean(ybar)))

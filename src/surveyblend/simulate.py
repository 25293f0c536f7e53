"""Finite-population generator and repeated-sampling Monte Carlo harness.

One population (the frame of covariates and design probabilities) is
generated and checked once per scenario and held fixed; each replicate
then draws new outcomes from the superpopulation model, redraws both
samples, refits the nuisance models, and returns by row name the values
of the scenario's :class:`EvalPlan` from :func:`evaluate`, which the
``estimate`` command uses too. A replicate that fails with a domain error
(a ValidationError, such as a sample too small to fit, or a SolverError)
is left out of the summary; any other exception stops the study.
Replicate RNG streams are indexed by (master seed, replicate), so serial
and parallel execution produce bit-identical summaries.

Misspecification never touches the generating mechanism: a model is wrong
when ``outcome_cols_override``/``selection_cols_override`` leave out a
column the truth uses, so only the analysis model changes.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .combiner import PooledReport, pool, z_score
from .estimators import Analysis, EstimatorKind
from .nuisance import SolverError, expit, fit_nuisance
from .types import (DesignKind, FinitePopulation, FitMethod, IntAtLeast2, Level, ModelSpec, NonNegativeFloat,
                    NonNegativeInt, ObservedData, OutcomeFamily, PositiveInt, ValidationError, config_int,
                    typed_fields)
from .uncertainty import Regime, cell_label, check_supported, cov_estimate, variance

__all__ = [
    "Covariate",
    "EvalPlan",
    "MonteCarloSummary",
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
# Each covariate kind's accepted param counts, default params, and draw(rng, params, n, earlier columns).
_COVARIATE_KINDS = {
    "normal": ((0, 2), (0.0, 1.0), lambda rng, params, n, columns: rng.normal(*params, n)),
    "uniform": ((0, 2), (0.0, 1.0), lambda rng, params, n, columns: rng.uniform(*params, n)),
    "bernoulli": ((0, 1), (0.5,), lambda rng, params, n, columns: (rng.random(n) < params[0]).astype(float)),
    "square_of": ((1,), (), lambda rng, params, n, columns: columns[int(params[0]) - 1] ** 2),
}


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
        typed_fields(self)
        if self.kind not in _COVARIATE_KINDS:
            raise ValidationError(f"unknown covariate kind {self.kind!r}")
        params, counts = list(self.params), _COVARIATE_KINDS[self.kind][0]
        if len(params) not in counts:
            raise ValidationError(f"a {self.kind} covariate takes {' or '.join(map(str, counts))} params, "
                                  f"not {params}")
        width = params[1] - params[0] if self.kind == "uniform" and params else 0.0  # inf past the float range
        if not np.all(np.isfinite(params + [width])):
            raise ValidationError(f"covariates take finite params, and a uniform one a finite width, not {params}")
        if (self.kind == "bernoulli" and params and not 0.0 <= params[0] <= 1.0
                or len(params) == 2 and params[1] < (params[0] if self.kind == "uniform" else 0.0)):
            raise ValidationError(f"{self.kind} covariate parameters {params} describe no distribution")


@dataclass(frozen=True)
class EvalPlan:
    """Which estimators, variances, covariances and pooled rows to evaluate.

    Estimators and regimes may be given as enum members or as their values, in any case.
    """

    prob_points: tuple[EstimatorKind, ...] = ()
    point_only: tuple[EstimatorKind, ...] = ()
    var_pairs: tuple[tuple[EstimatorKind, Regime], ...] = ()
    cov_pairs: tuple[tuple[EstimatorKind, Regime, EstimatorKind], ...] = ()
    pooled: tuple[tuple[EstimatorKind, Regime, EstimatorKind], ...] = ()

    def __post_init__(self):
        typed_fields(self)

    def check(self, fit_method: FitMethod) -> None:
        """Reject an interval, covariance or pooled entry that has no variance formula under ``fit_method``."""
        pairs = [(kind, None) for kind in self.prob_points + tuple(p for *_, p in self.cov_pairs + self.pooled)]
        pairs += [(kind, regime) for kind, regime, *_ in self.var_pairs + self.cov_pairs + self.pooled]
        for kind, regime in pairs:
            check_supported(kind, regime, fit_method)


class EvalRow(NamedTuple):
    """One evaluated plan entry on one dataset, under its summary name.

    ``values`` holds the numbers a replicate record keeps: the estimate
    ``est``; an interval's ``var``, ``lo`` and ``hi``; a covariance's ``cov``
    and probability-sample estimate ``prob_est``; a pooled row's weight ``w``.
    """

    name: str
    kind: EstimatorKind
    regime: Regime | None
    prob: EstimatorKind | None
    values: dict[str, float]
    pooled: PooledReport | None = None


def evaluate(plan: EvalPlan, analysis: Analysis, level: float) -> list[EvalRow]:
    """Every point, interval, covariance and pooled report of ``plan`` on one analysed dataset.

    Rows come in plan order: probability-sample points with their
    intervals, point-only estimators, variance pairs, covariances, pooled
    rows. Each quantity is computed once and kept on ``analysis``.
    """
    z = z_score(level)

    def interval(kind: EstimatorKind, regime: Regime | None) -> EvalRow:
        var, est = variance(kind, regime, analysis), analysis.point(kind)  # the variance first, as a failure names it
        half = z * float(np.sqrt(var))
        return EvalRow(cell_label(kind, regime), kind, regime, None,
                       {"est": est, "var": var, "lo": est - half, "hi": est + half})

    rows = [interval(kind, None) for kind in plan.prob_points]
    rows += [EvalRow(cell_label(kind), kind, None, None, {"est": analysis.point(kind)}) for kind in plan.point_only]
    rows += [interval(kind, regime) for kind, regime in plan.var_pairs]
    for kind, regime, prob in plan.cov_pairs:
        rows.append(EvalRow(f"cov({cell_label(kind, regime)},{prob.value})", kind, regime, prob,
                            {"est": analysis.point(kind), "prob_est": analysis.point(prob),
                             "cov": cov_estimate(kind, regime, prob, analysis)}))
    for kind, regime, prob in plan.pooled:
        report = pool(analysis, kind, regime, prob, level)
        rows.append(EvalRow(f"pooled({cell_label(kind, regime)},{prob.value})", kind, regime, prob,
                            {"est": report.pooled_estimate, "var": report.pooled_variance,
                             "lo": report.ci_low, "hi": report.ci_high, "w": report.w}, report))
    return rows


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate, sample, analyze and score one scenario."""

    n_population: int
    covariates: tuple[Covariate, ...]
    beta_true: tuple[float, ...]
    alpha_true: tuple[float, ...]
    outcome_family: OutcomeFamily = OutcomeFamily.LINEAR_GAUSSIAN
    noise_sd: NonNegativeFloat = 1.0
    noise_sd_coef: tuple[float, ...] | None = None
    design_kind: DesignKind = DesignKind.POISSON
    sample_a_size: PositiveInt = 500
    pi_a_coef: tuple[float, ...] | None = None
    fit_method: FitMethod = FitMethod.PSEUDO_ML
    outcome_cols_override: tuple[int, ...] | None = None
    selection_cols_override: tuple[int, ...] | None = None
    replicates: IntAtLeast2 = 1000
    level: Level = 0.95
    plan: EvalPlan = field(default_factory=EvalPlan)
    seed: NonNegativeInt = 0

    def __post_init__(self):
        typed_fields(self)
        p = self.n_covariate_columns
        for name in ("beta_true", "alpha_true", "noise_sd_coef", "pi_a_coef"):
            if getattr(self, name) is not None and len(getattr(self, name)) != p:
                raise ValidationError(f"{name} must have length {p}, the intercept and one per entry of covariates")
        if self.pi_a_coef is not None and self.design_kind is DesignKind.SRSWOR:
            raise ValidationError("pi_a_coef shapes Poisson design rates; an srswor design has none")
        if self.noise_sd_coef is not None and self.noise_sd != 1.0:
            raise ValidationError(f"noise_sd {self.noise_sd} is unread beside noise_sd_coef, which sets the noise")
        if self.outcome_family is OutcomeFamily.LOGISTIC_BINARY and (self.noise_sd_coef, self.noise_sd) != (None, 1.0):
            raise ValidationError("noise_sd and noise_sd_coef are unread: a logistic_binary outcome draws no noise")
        if self.sample_a_size >= self.n_population:
            raise ValidationError("sample_a_size must be below n_population")
        if self.design_kind is DesignKind.SRSWOR and self.sample_a_size < p + 1:  # validate's underdetermined fit
            raise ValidationError(f"an srswor sample_a_size must be at least {p + 1}, the covariate columns + 1")
        for j, cov in enumerate(self.covariates, start=1):
            if cov.kind == "square_of" and not 1 <= config_int("square_of params", cov.params[0]) < j:
                raise ValidationError("square_of must reference an earlier covariate column")
        for which in ("outcome", "selection"):
            self.model_spec.columns(which, p)  # checks the range of the column overrides
        self.plan.check(self.fit_method)

    @property
    def n_covariate_columns(self) -> int:
        return 1 + len(self.covariates)

    @cached_property  # a pickled config carries it to the workers, so a study builds it once
    def model_spec(self) -> ModelSpec:
        return ModelSpec(outcome_family=self.outcome_family, fit_method=self.fit_method,
                         outcome_cols=self.outcome_cols_override, selection_cols=self.selection_cols_override)


# The generator lets a value past the float range become inf or NaN unwarned; the checks on the result report it.
@np.errstate(over="ignore", invalid="ignore")
def _draw_outcomes(x: np.ndarray, config: ScenarioConfig, rng) -> np.ndarray:
    eta = x @ np.asarray(config.beta_true)
    if config.outcome_family is OutcomeFamily.LOGISTIC_BINARY:
        return (rng.random(x.shape[0]) < expit(eta)).astype(float)
    if config.noise_sd_coef is not None:
        sd = np.abs(x @ np.asarray(config.noise_sd_coef))
    else:
        sd = config.noise_sd
    return eta + rng.normal(size=x.shape[0]) * sd


@np.errstate(over="ignore", invalid="ignore")
def generate_population(config: ScenarioConfig) -> FinitePopulation:
    """Draw covariates, true selection probabilities, design probabilities and outcomes."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(_POP_STREAM,)))
    n = config.n_population
    columns: list[np.ndarray] = []
    try:  # numpy refuses a size past its largest dimension (ValueError), or one it cannot allocate
        for cov in config.covariates:
            _, defaults, draw = _COVARIATE_KINDS[cov.kind]
            columns.append(draw(rng, cov.params or defaults, n, columns))
        x = np.column_stack([np.ones(n), *columns])
    except (ValueError, MemoryError) as exc:
        raise SimulationError(f"n_population {n} is too large to hold the frame in memory: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite covariate value; change the covariates' params")

    # written so that NaN fails: every comparison with NaN is False
    pi_b = expit(x @ np.asarray(config.alpha_true))
    if not np.all((pi_b > 0.0) & (pi_b < 1.0)):
        raise ValidationError("true selection probabilities outside (0, 1); rescale alpha_true")

    if config.design_kind is DesignKind.SRSWOR:
        pi_a = np.full(n, config.sample_a_size / n)
    else:
        shape = expit(x @ np.asarray(config.pi_a_coef)) if config.pi_a_coef is not None else np.ones(n)
        total = float(np.sum(shape))  # 0 when pi_a_coef sends every rate to 0: pi_a = shape fails the check below
        pi_a = shape * (config.sample_a_size / total) if total > 0.0 else shape
        if not np.all((pi_a > 0.0) & (pi_a <= 1.0)):
            raise ValidationError("design probabilities outside (0, 1]; change sample_a_size or pi_a_coef")

    y = _draw_outcomes(x, config, rng)
    if not np.all(np.isfinite(y)):
        raise ValidationError("non-finite outcome; change beta_true, noise_sd or noise_sd_coef")
    return FinitePopulation(x=x, y=y, pi_a=pi_a, pi_b_true=pi_b, design=config.design_kind)


def redraw_outcomes(population: FinitePopulation, config: ScenarioConfig, seed) -> np.ndarray:
    """A new outcome vector ``y`` for the frame of ``population``, drawn from the superpopulation model."""
    return _draw_outcomes(population.x, config, np.random.default_rng(seed))


def draw_samples(population: FinitePopulation, seed, y: np.ndarray | None = None) -> tuple[ObservedData, float]:
    """Draw sample A by the design (SRSWOR: pi_a N units) and sample B by independent Bernoulli selection.

    Both samples observe the outcome vector ``y`` (by default
    ``population.y``), which must hold one finite value per unit. Returns
    the observed data and ``y_bar``, the population mean of ``y``.

    The two samples come from independent RNG streams, the two children of
    ``seed``, and are drawn once: a sample too small to fit fails
    :class:`ObservedData`'s own checks (``empty sample``, ``underdetermined
    fit``) with a :class:`ValidationError`, as any other invalid sample does.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n = population.size
    y = population.y if y is None else np.asarray(y, dtype=float)
    y_bar = float(np.mean(y))
    if y.shape != (n,) or not np.isfinite(y_bar):
        raise ValidationError(f"the outcome vector must hold {n} finite values")
    rng_a, rng_b = (np.random.default_rng(child) for child in ss.spawn(2))
    if population.design is DesignKind.SRSWOR:
        a_idx = np.sort(rng_a.choice(n, round(population.pi_a[0] * n), replace=False))
    else:
        a_idx = np.flatnonzero(rng_a.random(n) < population.pi_a)
    b_idx = np.flatnonzero(rng_b.random(n) < population.pi_b_true)
    observed = ObservedData(n_population=n, design=population.design, x_a=population.x[a_idx],
                            pi_a=population.pi_a[a_idx], y_a=y[a_idx], x_b=population.x[b_idx], y_b=y[b_idx])
    return observed, y_bar


def _replicate_record(config: ScenarioConfig, population: FinitePopulation,
                      rep_index: int) -> tuple[float, dict[str, dict[str, float]]] | str:
    """One replicate's population mean ``y_bar`` and its evaluated rows' values by row name.

    A replicate that fails with a domain error returns the error's type and
    message instead; any other exception propagates.
    """
    try:
        # the two children that spawn(2) gives SeedSequence(entropy=config.seed, spawn_key=(_REP_STREAM, rep_index))
        y_ss, sample_ss = (np.random.SeedSequence(entropy=config.seed, spawn_key=(_REP_STREAM, rep_index, i))
                           for i in (0, 1))
        observed, y_bar = draw_samples(population, sample_ss, redraw_outcomes(population, config, y_ss))
        analysis = Analysis(observed, fit_nuisance(observed, config.model_spec))
        rows = evaluate(config.plan, analysis, config.level)
    except (ValidationError, SolverError) as exc:
        return f"{type(exc).__name__}: {exc}"
    record: dict[str, dict[str, float]] = {}
    for row in rows:  # rows of one name (a point listed with and without its interval) pool their values
        record.setdefault(row.name, {}).update(row.values)
    return y_bar, record


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


def _summary_row(name: str, columns: dict[str, np.ndarray], ybar: np.ndarray) -> SummaryRow:
    """Aggregate one row's values over the replicates; errors and coverage are taken against ``ybar``."""
    err = columns["est"] - ybar
    ok = np.isfinite(err)
    n = int(np.sum(ok))
    err, ybar = err[ok], ybar[ok]

    def column(field: str) -> np.ndarray | None:
        return columns[field][ok] if field in columns else None

    def se(values: np.ndarray) -> float:
        return float(np.std(values, ddof=1) / np.sqrt(n))

    cov_est = column("cov")
    if cov_est is not None:
        prob_err = column("prob_est") - ybar
        d = (err - np.mean(err)) * (prob_err - np.mean(prob_err))
        emp_cov = float(np.sum(d) / (n - 1))
        mean_cov = float(np.mean(cov_est))
        return SummaryRow(
            name=name, row_type="cov", n_used=n,
            emp_cov=emp_cov, emp_cov_se=se(d),
            mean_cov_estimate=mean_cov, mean_cov_estimate_se=se(cov_est),
            rel_cov_bias=mean_cov / emp_cov - 1.0 if emp_cov != 0.0 else None,
        )
    emp_var = float(np.var(err, ddof=1))
    m4 = float(np.mean((err - np.mean(err)) ** 4))
    extra: dict = {}
    var = column("var")
    if var is not None:
        mean_var = float(np.mean(var))
        coverage = float(np.mean(((column("lo") <= ybar) & (ybar <= column("hi"))).astype(float)))
        extra = {
            "mean_var_estimate": mean_var,
            "mean_var_estimate_se": se(var),
            "rel_var_bias": mean_var / emp_var - 1.0 if emp_var > 0 else None,
            "coverage": coverage,
            "coverage_se": float(np.sqrt(coverage * (1.0 - coverage) / n)),
        }
    w = column("w")
    if w is not None:
        extra["mean_w"] = float(np.mean(w))
    return SummaryRow(name=name, row_type="point" if w is None else "pooled", n_used=n,
                      mc_mean=float(np.mean(column("est"))), mc_bias=float(np.mean(err)),
                      mc_bias_se=se(err), emp_variance=emp_var,
                      emp_variance_se=float(np.sqrt(max(m4 - emp_var**2, 0.0) / n)), **extra)


def run_replications(config: ScenarioConfig, *, parallel: bool = False,
                     max_workers: int | None = None) -> MonteCarloSummary:
    """Run the full repeated-sampling study described by ``config``.

    Under ``parallel``, a process pool of ``max_workers`` runs the replicates
    (all cores when ``max_workers`` is None), in chunks of 1/64 of them and
    with no worker past the chunk count. Where that comes to one worker, or
    without ``parallel``, every replicate runs in this process. The CLI
    passes its one count as ``max_workers``; both keywords stay because the
    benchmark harness passes them. Raises :class:`SimulationError` when more
    than 1% of the replicates fail, with the error of the failed replicate of
    lowest index.
    """
    population = generate_population(config)
    n_rep = config.replicates
    chunk = max(1, n_rep // 64)
    workers = min(max_workers or os.cpu_count() or 1, -(-n_rep // chunk)) if parallel else 1  # none past the chunks
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                                    initargs=(config, population)) as executor:
            records = list(executor.map(_worker_run, range(n_rep), chunksize=chunk))
    else:
        records = [_replicate_record(config, population, r) for r in range(n_rep)]

    failed = [(i, r) for i, r in enumerate(records) if isinstance(r, str)]
    if len(failed) > _MAX_FAILURE_FRACTION * n_rep:
        index, error = failed[0]
        raise SimulationError(f"{len(failed)} of {n_rep} replicates failed; "
                              f"first error (replicate {index}): {error}")
    records = [r for r in records if not isinstance(r, str)]  # a failed replicate is left out of every row
    ybar = np.array([y_bar for y_bar, _ in records])
    rows = tuple(_summary_row(name, {f: np.array([r[1][name][f] for r in records]) for f in values}, ybar)
                 for name, values in records[0][1].items())
    return MonteCarloSummary(rows=rows, n_replicates=n_rep, n_failed=len(failed), y_bar_mean=float(np.mean(ybar)))

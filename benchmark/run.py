#!/usr/bin/env python3
"""surveyblend benchmark: Monte Carlo replicate throughput and `estimate` CLI latency.

Run from the repository root:

    python3 benchmark/run.py --workload study-dr --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and benchmark/NOTES.md for why each exists):

* ``study-dr``    default desk study (N=10^4, Poisson A, pseudo-ML, linear
                  outcome, DR1/DR2 variances, DR2-Hajek covariance, one
                  pooled row) through ``run_replications``;
* ``study-kh``    Kim-Haziza fit, SRSWOR sample A, logistic-binary outcome,
                  ``DR1/kh_doubly_robust`` variance;
* ``estimate-1m`` ``python -m surveyblend estimate`` in a fresh process on
                  N=10^6 sample CSVs made during set-up.

A task is one replicate (studies) or one ``estimate`` process (estimate-1m).
With ``--trace 0`` the run measures, with tracing off, ``setup_s`` (median
of several set-ups), ``task_ms`` (one worker), ``task_ms_2w`` (two
workers: ``parallel=True, max_workers=2`` for the studies, two ``estimate``
processes started together for estimate-1m) and ``peak_rss_mb``. With
``--trace 1`` it measures part of the time untraced and part traced, and
reports the per-layer metrics of ``benchmark/tracing.py``. Every time is
scaled to a reference host speed measured by ``calibration_s``; the raw
times are kept in the result file.

Every run checks outputs: each study summary against the first serial one
and the two-worker one byte for byte, every ``report.json`` against the same
report computed in process, and, at the reference seed, both against
``benchmark/reference.json`` within a tight relative tolerance. A wrong
output counts as a failed task and makes the command exit with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
including the environment block, and traced spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread per process keeps the two-worker runs at nproc busy threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import dataclasses
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("study-dr", "study-kh", "estimate-1m")
REFERENCE_SEED = 20240
BLOCK_REPLICATES = 500      # replicates per timed study block
WARMUP_REPLICATES = 20
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
RTOL = 1e-9
ATOL = 1e-12
# Seconds calibration_s() takes at the reference host speed; every reported
# time is scaled to that speed (see calibration_s and NOTES.md).
CALIBRATION_REF_S = 0.030

# Estimator list of configs/estimate_example.yaml, fixed here so the
# workload does not move when the example changes.
ESTIMATE_CONFIG = """\
mode: estimate
output_dir: {output_dir}
level: 0.95
inputs:
  sample_a: {sample_a}
  sample_b: {sample_b}
  n_population: {n_population}
design:
  kind: poisson
analysis:
  fit_method: pseudo_ml
  outcome_family: linear_gaussian
  sigma_model: constant
estimators:
  points: [HT, Hajek, IPW1, IPW2, DR1, DR2]
  variances:
    - {{kind: DR1, regime: both_correct}}
    - {{kind: DR2, regime: both_correct}}
    - {{kind: DR2, regime: selection_correct}}
  covariances:
    - {{kind: DR2, regime: both_correct, prob: Hajek}}
  pooled:
    - {{kind: DR2, regime: both_correct, prob: Hajek}}
"""

IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "import surveyblend.cli\n"
                "sys.stdout.write(repr(time.perf_counter() - t))\n")

perf = time.perf_counter


def _load_program():
    """Import the checkout's own surveyblend, never an installed copy."""
    if not (SRC / "surveyblend" / "__init__.py").is_file():
        sys.exit(f"benchmark: no surveyblend sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import surveyblend
    import surveyblend.cli

    if Path(surveyblend.__file__).resolve().parent != SRC / "surveyblend":
        sys.exit(f"benchmark: imported surveyblend from {surveyblend.__file__}, not from {SRC}")
    return surveyblend


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Workload inputs, all made from the seed


def study_config(sb, workload: str, seed: int, replicates: int):
    K, R = sb.EstimatorKind, sb.Regime
    if workload == "study-dr":
        # scripts/run_default_study.default_scenario (SCENARIO_BOTH_CORRECT's shape),
        # fixed here so the workload does not move when the script changes.
        return sb.ScenarioConfig(
            n_population=10_000,
            covariates=(sb.Covariate("normal"), sb.Covariate("normal")),
            beta_true=(1.0, 1.0, 1.0),
            alpha_true=(-2.35, 0.5, 0.5),
            noise_sd=1.0,
            sample_a_size=500,
            pi_a_coef=(0.0, 0.4, 0.0),
            replicates=replicates,
            plan=sb.EvalPlan(
                prob_points=(K.HT, K.HAJEK),
                var_pairs=((K.DR1, R.BOTH_CORRECT), (K.DR2, R.BOTH_CORRECT)),
                cov_pairs=((K.DR2, R.BOTH_CORRECT, K.HAJEK),),
                pooled=((K.DR2, R.BOTH_CORRECT, K.HAJEK),),
            ),
            seed=seed,
        )
    # The SCENARIO_KH frame of tests/conftest.py with SRSWOR sample A and a
    # logistic-binary outcome, so the logistic Newton and KH j22 paths run.
    return sb.ScenarioConfig(
        n_population=10_000,
        covariates=(sb.Covariate("normal"), sb.Covariate("square_of", (1,))),
        beta_true=(-0.5, 1.0, 0.7),
        alpha_true=(-2.2, 0.5, 0.0),
        outcome_family=sb.OutcomeFamily.LOGISTIC_BINARY,
        design_kind=sb.DesignKind.SRSWOR,
        sample_a_size=500,
        fit_method=sb.FitMethod.KIM_HAZIZA,
        outcome_cols_override=(0, 1),
        selection_cols_override=(0, 1),
        replicates=replicates,
        plan=sb.EvalPlan(var_pairs=((K.DR1, R.KH_DOUBLY_ROBUST),)),
        seed=seed,
    )


def estimate_scenario(sb, seed: int):
    """N=10^6, four normal covariates, n_a about 50k (Poisson), n_b about 108k."""
    normal = sb.Covariate("normal")
    return sb.ScenarioConfig(
        n_population=1_000_000,
        covariates=(normal, normal, normal, normal),
        beta_true=(1.0, 1.0, 1.0, 0.5, -0.5),
        alpha_true=(-2.3, 0.5, 0.5, 0.0, 0.0),
        noise_sd=1.0,
        sample_a_size=50_000,
        pi_a_coef=(0.0, 0.4, 0.0, 0.0, 0.0),
        replicates=2,
        seed=seed,
    )


def estimate_inputs(sb, seed: int, directory: Path):
    """Observed data for estimate-1m and the CLI config that reads it back."""
    population = sb.generate_population(estimate_scenario(sb, seed))
    observed, _ = sb.draw_samples(population, seed)
    config_path = directory / "config.yaml"
    config_path.write_text(ESTIMATE_CONFIG.format(
        output_dir=json.dumps(str(directory / "out")),
        sample_a=json.dumps(str(directory / "sample_a.csv")),
        sample_b=json.dumps(str(directory / "sample_b.csv")),
        n_population=observed.n_population))
    return observed, config_path


def in_process_report(sb, observed, config_path: Path) -> dict:
    """The report the CLI must write, computed without CSV files."""
    config = sb.cli.load_config(config_path, "estimate")
    report = sb.cli.build_estimate_report(config, sb.validate(observed))
    return json.loads(json.dumps(report))


# ---------------------------------------------------------------------------
# Output checks


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between two JSON-like values; numbers within RTOL/ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(got) and math.isnan(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def summary_json(summary) -> dict:
    return {"n_replicates": summary.n_replicates, "n_failed": summary.n_failed,
            "y_bar_mean": summary.y_bar_mean,
            "rows": [dataclasses.asdict(row) for row in summary.rows]}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Child processes


def import_probe() -> float:
    """Start a fresh interpreter that imports surveyblend.cli; returns the import's own seconds."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout)


class Launcher:
    """Client of benchmark/launcher.py, which starts the CLI processes.

    Children are started from that small process so that their peak RSS is
    their own and not the benchmark's (see launcher.py).
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, commands: list[list[str]], log_dir: Path) -> tuple[float, list[int], list[float]]:
        """Start the commands together; (wall seconds until the last exits, exit codes, peak RSS MB)."""
        request = {"commands": commands, "logs": [str(log_dir / f"child{i}.stderr") for i in range(len(commands))],
                   "env": child_env(), "cwd": str(ROOT), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("benchmark launcher exited")
        reply = json.loads(reply)
        return reply["wall_s"], reply["codes"], reply["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Measurement


def calibration_s() -> float:
    """Seconds a fixed kernel of the benchmark's own takes: the host's current speed.

    The shared host's speed drifts by tens of percent over minutes, and the
    program's times drift with it (NOTES.md). Each timed unit is therefore
    run between two calibrations and scaled by CALIBRATION_REF_S over their
    mean. The kernel mixes interpreted Python with small numpy solves, as
    the program does, but never calls the program, so a change to the
    program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y, w = rng.normal(size=(1500, 3)), rng.normal(size=1500), rng.uniform(1.0, 3.0, size=1500)
    start = perf()
    total = 0
    for i in range(40_000):
        total += i * 3 % 7
    beta = np.zeros(3)
    for _ in range(400):
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        hessian = (x * (w * p * (1.0 - p))[:, None]).T @ x
        beta = beta + 0.01 * np.linalg.solve(hessian + np.eye(3), x.T @ (w * (y - p)))
    return perf() - start


CALIBRATIONS: list[float] = []


def at_reference_speed(unit):
    """Run ``unit`` between two calibrations; (its result, the factor that scales its times)."""
    before = calibration_s()
    result = unit()
    after = calibration_s()
    CALIBRATIONS.extend((before, after))
    return result, 2.0 * CALIBRATION_REF_S / (before + after)


class Tally:
    """Attempts, failures and wrong outputs of one run.

    A failed replicate is a failure the program reports itself; a wrong
    output (a mismatch or a non-zero CLI exit) is also a failure and makes
    the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, attempts: int, failures: int = 0, wrong: str | None = None) -> None:
        self.attempted += attempts
        self.failed += failures
        if wrong:
            self.wrong.append(wrong)


def alternate(units: dict, seconds: float) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Run the serial and two-worker units in turn for ``seconds``; (scaled, raw) times.

    Each runs at least once; no unit starts if its last duration would
    carry the phase past its end.
    """
    times: dict[str, list[float]] = {name: [] for name in units}
    raw: dict[str, list[float]] = {name: [] for name in units}
    last: dict[str, float] = {}
    deadline = perf() + seconds
    while True:
        for name, unit in units.items():
            if all(times.values()) and perf() + last[name] > deadline:
                return times, raw
            start = perf()
            value, scale = at_reference_speed(unit)
            last[name] = perf() - start
            times[name].append(value * scale)
            raw[name].append(value)


class StudyWorkload:
    """study-dr and study-kh: blocks of BLOCK_REPLICATES replicates."""

    tasks_per_block = BLOCK_REPLICATES
    rows = 0  # no CSV rows are parsed

    def __init__(self, sb, name: str, seed: int, tally: Tally, out: Path):
        self.sb, self.name, self.seed, self.tally, self.out = sb, name, seed, tally, out
        self.config = study_config(sb, name, seed, BLOCK_REPLICATES)
        self.first_csv: bytes | None = None
        self.first_summary = None
        # Bound before any tracing is installed, so the check is never traced.
        self.write_csv = sb.cli.summary_to_csv

    def setup_once(self) -> dict:
        start = perf()
        import_s = import_probe()
        self.sb.generate_population(self.config)
        self.sb.run_replications(study_config(self.sb, self.name, self.seed, WARMUP_REPLICATES))
        return {"setup_s": perf() - start, "import_s": import_s}

    def _check(self, summary, label: str) -> None:
        """Every block of a run must write the same summary.csv as the first serial one."""
        path = self.out / "summary.csv"
        self.write_csv(summary, path)
        data = path.read_bytes()
        wrong = None
        if self.first_csv is None:
            self.first_csv, self.first_summary = data, summary
            # Coverage of a 95% interval over 500 replicates has a standard error near 0.01.
            bad = [r.name for r in summary.rows if r.coverage is not None and not 0.85 <= r.coverage <= 1.0]
            if bad:
                wrong = f"{label}: coverage outside [0.85, 1] for {bad}"
        elif data != self.first_csv:
            wrong = f"{label}: summary.csv differs from the first serial block"
        self.tally.add(BLOCK_REPLICATES, BLOCK_REPLICATES if wrong else summary.n_failed, wrong)

    def _timed_block(self, **parallel):
        start = perf()
        summary = self.sb.run_replications(self.config, **parallel)
        return perf() - start, summary

    def _block(self, label: str, **parallel) -> float:
        wall, summary = self._timed_block(**parallel)
        self._check(summary, label)
        return wall / BLOCK_REPLICATES * 1e3

    def serial(self) -> float:
        return self._block("serial block")

    def two_workers(self) -> float:
        return self._block("two-worker block", parallel=True, max_workers=2)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def check_reference(self) -> None:
        want = load_reference()[self.name]
        if self.seed == want["seed"]:
            summary = self.first_summary
        else:
            summary = self.sb.run_replications(study_config(self.sb, self.name, want["seed"], BLOCK_REPLICATES))
            self.tally.add(BLOCK_REPLICATES, summary.n_failed)
        diff = mismatches(summary_json(summary), want["summary"])
        if diff:
            self.tally.add(0, BLOCK_REPLICATES, f"reference seed {want['seed']}: " + "; ".join(diff[:3]))

    def traced(self, tracer, seconds: float, spans_out) -> tuple[list, list[float], list[float]]:
        """Traced serial blocks: (per-block analyses, task ms, unattributed fractions)."""
        from tracing import analyse

        analyses, task_ms, unattributed = [], [], []
        deadline = perf() + seconds
        while not analyses or perf() + task_ms[-1] * BLOCK_REPLICATES / 1e3 < deadline:
            (wall, summary), scale = at_reference_speed(self._timed_block)
            spans, counts = tracer.take()
            self._check(summary, "traced block")
            result = analyse(spans, counts)
            result["scale"] = scale
            analyses.append(result)
            task_ms.append(wall * scale / BLOCK_REPLICATES * 1e3)
            unattributed.append((wall - result["root_s"]) / wall)
            write_spans(spans_out, len(analyses) - 1, spans)
        return analyses, task_ms, unattributed


class EstimateWorkload:
    """estimate-1m: fresh `python -m surveyblend estimate` processes."""

    tasks_per_block = 1

    def __init__(self, sb, name: str, seed: int, tally: Tally, out: Path):
        self.sb, self.name, self.seed, self.tally, self.out = sb, name, seed, tally, out
        self.expected: dict | None = None
        self.rows = 0
        self.rss: list[float] = []
        self.config_path: Path | None = None
        self.launcher = Launcher()

    def close(self) -> None:
        self.launcher.close()

    def setup_once(self) -> dict:
        start = perf()
        import_s = import_probe()
        observed, self.config_path = estimate_inputs(self.sb, self.seed, self.out)
        export_start = perf()
        self.sb.cli.write_sample_csvs(observed, self.out)
        export_s = perf() - export_start
        setup_s = perf() - start
        if self.expected is None:
            self.expected = in_process_report(self.sb, observed, self.config_path)
            self.rows = observed.n_a + observed.n_b
        return {"setup_s": setup_s, "import_s": import_s, "export_s": export_s}

    def _command(self, slot: int, traced_json: Path | None = None) -> list[str]:
        out_dir = self.out / f"run{slot}"
        args = ["estimate", "--config", str(self.config_path), "--output-dir", str(out_dir)]
        if traced_json is None:
            return [sys.executable, "-m", "surveyblend", *args]
        return [sys.executable, str(BENCH_DIR / "traced_estimate.py"), str(traced_json), *args]

    def _run(self, commands: list[list[str]], label: str) -> float:
        wall, codes, rss = self.launcher.run(commands, self.out)
        for slot, code in enumerate(codes):
            error = None
            if code != 0:
                error = f"{label}: exit code {code}"
            else:
                try:
                    report = json.loads((self.out / f"run{slot}" / "report.json").read_text())
                except (OSError, ValueError) as exc:
                    report, error = None, f"{label}: unreadable report.json: {exc}"
                diff = [] if report is None else mismatches(report, self.expected)
                if diff:
                    error = f"{label}: report.json differs: " + "; ".join(diff[:3])
            self.tally.add(1, error is not None, error)
        if label == "serial":
            self.rss.extend(rss)
        return wall

    def serial(self) -> float:
        return self._run([self._command(0)], "serial") * 1e3

    def two_workers(self) -> float:
        return self._run([self._command(0), self._command(1)], "two processes") * 1e3 / 2

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss)

    def check_reference(self) -> None:
        want = load_reference()[self.name]
        if self.seed == want["seed"]:
            report = self.expected
        else:
            directory = self.out / "reference"
            directory.mkdir(exist_ok=True)
            observed, config_path = estimate_inputs(self.sb, want["seed"], directory)
            report = in_process_report(self.sb, observed, config_path)
        diff = mismatches(report, want["report"])
        self.tally.add(1, bool(diff), f"reference seed {want['seed']}: " + "; ".join(diff[:3]) if diff else None)

    def traced(self, tracer, seconds: float, spans_out) -> tuple[list, list[float], list[float]]:
        """Traced CLI processes: (per-process analyses, task ms, unattributed fractions)."""
        from tracing import analyse

        analyses, task_ms, unattributed = [], [], []
        deadline = perf() + seconds
        spans_json = self.out / "spans.json"
        while not analyses or perf() + task_ms[-1] / 1e3 < deadline:
            spans_json.unlink(missing_ok=True)
            wall, scale = at_reference_speed(lambda: self._run([self._command(0, spans_json)], "traced"))
            child = json.loads(spans_json.read_text())
            spans = [tuple(s) for s in child["spans"]]
            result = analyse(spans, child["counts"])
            result["scale"] = scale
            analyses.append(result)
            task_ms.append(wall * scale * 1e3)
            unattributed.append((wall - result["root_s"]) / wall)
            write_spans(spans_out, len(analyses) - 1, spans)
        return analyses, task_ms, unattributed


def write_spans(fh, block: int, spans: list) -> None:
    fh.writelines(f"{block},{name},{start:.9f},{end:.9f},{parent},{'' if rep is None else rep}\n"
                  for name, start, end, parent, rep in spans)


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# ---------------------------------------------------------------------------
# Runs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(workload, analyses: list, traced_ms: list[float], unattributed: list[float],
                      untraced: dict, setups: list[dict]) -> dict:
    from tracing import COUNT_METRICS, TIME_BUCKETS

    tasks = workload.tasks_per_block
    metrics = {}
    for bucket in TIME_BUCKETS:
        per_task = [a["self_s"][bucket] * a["scale"] / tasks * 1e3 for a in analyses]
        metrics[bucket] = metric(statistics.median(per_task), "ms")
    fits = sorted(v * a["scale"] * 1e3 for a in analyses for v in a["fit_by_rep"].values()) \
        or sorted(a["self_s"]["nuisance.fit_ms"] * a["scale"] * 1e3 for a in analyses)
    p99 = statistics.quantiles(fits, n=100, method="inclusive")[98] if len(fits) > 1 else fits[0]
    metrics["nuisance.fit_ms_p99"] = metric(p99, "ms")
    first = analyses[0]["counts"]
    for name in COUNT_METRICS:
        metrics[name] = metric(first[name] / tasks, "count")
    for a in analyses[1:]:
        if a["counts"] != first:
            workload.tally.add(0, tasks, "traced blocks gave different exact counts")
    parse_s = metrics["cli.parse_ms"]["value"] / 1e3
    metrics["cli.parse_rows_per_s"] = metric(workload.rows / parse_s if parse_s > 0 else 0.0, "1/s")
    metrics["cli.import_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
    metrics["cli.export_s"] = metric(statistics.median(s.get("export_s", 0.0) for s in setups), "s")
    serial_ms = statistics.median(untraced["serial"])
    metrics["parallel_efficiency"] = metric(serial_ms / (2.0 * statistics.median(untraced["two_workers"])), "ratio")
    metrics["trace.overhead_frac"] = metric(statistics.median(traced_ms) / serial_ms - 1.0, "ratio")
    metrics["trace.unattributed_frac"] = metric(statistics.median(unattributed), "ratio")
    metrics["host.calibration_ms"] = metric(statistics.median(CALIBRATIONS) * 1e3, "ms")
    return metrics


def run(args) -> int:
    sb = _load_program()
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env_block = environment()
    env_block["loadavg_start"] = os.getloadavg()
    tally = Tally()
    cls = EstimateWorkload if args.workload == "estimate-1m" else StudyWorkload
    workload = cls(sb, args.workload, args.seed, tally, out)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            raw_setup, scale = at_reference_speed(workload.setup_once)
            setups.append({**{k: v * scale for k, v in raw_setup.items()}, "raw": raw_setup, "scale": scale})
        units = {"serial": workload.serial, "two_workers": workload.two_workers}
        measure_s = args.seconds if not args.trace else args.seconds / 2.0
        untraced, raw_untraced = alternate(units, measure_s)
        workload.check_reference()

        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(sb)
            spans_path = out / f"spans-seed{args.seed}.csv.gz"
            with gzip.open(spans_path, "wt", compresslevel=1) as spans_out:
                spans_out.write("block,name,start,end,parent,replicate\n")
                analyses, traced_ms, unattributed = workload.traced(tracer, measure_s, spans_out)
            metrics = per_layer_metrics(workload, analyses, traced_ms, unattributed, untraced, setups)
        else:
            metrics = {
                "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
                "task_ms": metric(statistics.median(untraced["serial"]), "ms"),
                "task_ms_2w": metric(statistics.median(untraced["two_workers"]), "ms"),
                "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
            }
    finally:
        workload.close()

    env_block["loadavg_end"] = os.getloadavg()
    correct = not tally.wrong
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_block, "setups": setups, "samples": untraced, "raw_samples": raw_untraced,
        "calibrations": CALIBRATIONS, "wrong": tally.wrong,
        "samples_count": {k: len(v) for k, v in untraced.items()},
    }
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    for wrong in tally.wrong[:10]:
        print(f"wrong output: {wrong}")
    print("environment: " + json.dumps(env_block))
    print("samples: " + json.dumps(detail["samples_count"]))
    print("raw medians (not scaled to the reference speed): " + json.dumps(
        {"setup_s": statistics.median(s["raw"]["setup_s"] for s in setups),
         **{k: statistics.median(v) for k, v in raw_untraced.items()}}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_reference() -> int:
    """Recompute benchmark/reference.json at REFERENCE_SEED from the current program."""
    sb = _load_program()
    reference = {}
    for name in ("study-dr", "study-kh"):
        summary = sb.run_replications(study_config(sb, name, REFERENCE_SEED, BLOCK_REPLICATES))
        reference[name] = {"seed": REFERENCE_SEED, "summary": summary_json(summary)}
    directory = OUT / "reference"
    directory.mkdir(parents=True, exist_ok=True)
    observed, config_path = estimate_inputs(sb, REFERENCE_SEED, directory)
    reference["estimate-1m"] = {"seed": REFERENCE_SEED,
                                "report": in_process_report(sb, observed, config_path)}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute benchmark/reference.json and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven command line front end.

Two subcommands, each driven by one declarative YAML file and each
evaluating one :class:`~surveyblend.simulate.EvalPlan` with
:func:`~surveyblend.simulate.evaluate`:

* ``estimate`` reads sample CSVs, validates them, fits the nuisance
  models once, and writes the plan its ``estimators`` section describes
  (human-readable table plus JSON).
* ``simulate`` runs a repeated-sampling study of the scenario's ``plan``
  and writes the summary as CSV plus a run manifest.

CSV schemas (intercept never stored; x_0 = 1 is added internally):

* ``sample_a.csv``: id, x_1..x_p, pi_a[, y]
* ``sample_b.csv``: id, x_1..x_p, y

Each sample is read with one bulk ``np.loadtxt`` of every column. When that
parse fails (text ids, quoted fields) or finds rows of another width, the
row scanner reads the file with ``csv`` instead; it is the reader that names
the file and line of any failure, a value that a row rule rejects
included. The two accept one grammar by construction: the scanner strips
each field as ``str.strip`` does, which is what loadtxt strips, and reads
fields of any length, as loadtxt does, so both give the same values. Either
reader's table holds the intercept in place of ``id``, so the covariates are
a view of it, and a sample is held as that one parsed table plus the one
copy ``ObservedData`` keeps. Sample B is read first, then sample A. When the
platform forks and both files are at least ``_FORK_FLOOR`` (1 MiB), a forked
child reads sample A and pickles its table, or the error, back through a
pipe while the process reads sample B; below that size the fork costs more
than the overlap saves, and sample A is read in process after B.

Sample CSVs are written with CRLF line ends, as ``csv`` writes. The export
formats every row before it opens a file. When the platform forks and the
two samples hold at least ``_FORK_FLOOR`` bytes of values, a forked child
formats the rows after the midpoint of the value count while the process
formats those before it; the bytes are those of the in-process export. The
reader and the export fork through one helper, which runs the work in
process when it does not fork. Every output file is written under a
temporary name in its directory and renamed when whole, so a failed or
interrupted write never leaves a short file at an output's name.

Exit codes: 0 success, 2 validation failure (a config key missing or unread,
a null section, a value of the wrong type or outside its annotated bound and
an empty path included), 3 solver/simulation failure, 4 I/O or parse failure
(bytes that are not UTF-8 included); any other exception is a bug and
propagates. ``max_workers`` (``--workers N``) is a study's one worker
setting: 1 runs every replicate in process, N >= 2 runs a pool of N. All
numbers carry 17 significant digits, so re-ingestion is lossless.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import pickle
import signal
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

if sys.platform == "win32":  # no fcntl; the system frees an msvcrt lock, too, when its process ends
    import msvcrt
    _try_lock = lambda fd: msvcrt.locking(fd, msvcrt.LK_NBLCK, 1)
else:
    import fcntl
    _try_lock = lambda fd: fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)

import numpy as np
import yaml

from . import __version__
from .estimators import PROB_KINDS, Analysis, EstimatorKind
from .nuisance import SolverError, fit_nuisance
from .simulate import (EvalPlan, MonteCarloSummary, ScenarioConfig, SimulationError, SummaryRow, evaluate,
                       run_replications)
from .types import (DesignKind, Level, ModelSpec, ObservedData, PositiveInt, ValidationError,
                    config_dataclass, config_section, config_value, field_names, plain_data, typed_fields)
from .uncertainty import Regime, ResidualVarianceModel

__all__ = ["CsvParseError", "RunConfig", "console_main", "main", "read_samples",
           "run_estimate", "run_simulate", "write_sample_csvs"]

_FORK_FLOOR = 1 << 20  # bytes in each sample file, or of the export's values, from which a fork pays
_EXPORT_BLOCK = 8192  # rows the export formats in one C-level %

MODE_KEYS = {"estimate": ("level", "inputs", "design", "analysis", "estimators"),
             "simulate": ("max_workers", "scenario")}
INPUT_KEYS = ("sample_a", "sample_b", "n_population")

SUMMARY_COLUMNS = field_names(SummaryRow)


class CsvParseError(Exception):
    """A CSV input could not be parsed; the message names file and line."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for one CLI run."""

    output_dir: Path
    level: Level = 0.95
    # estimate mode
    sample_a_path: Path | None = None
    sample_b_path: Path | None = None
    n_population: PositiveInt | None = None
    design: DesignKind = DesignKind.POISSON
    model: ModelSpec = field(default_factory=ModelSpec)
    plan: EvalPlan = field(default_factory=EvalPlan)
    # simulate mode
    scenario: ScenarioConfig | None = None
    max_workers: PositiveInt = 1

    def __post_init__(self):
        typed_fields(self)


@dataclass(frozen=True)
class _Interval:
    """An entry of an estimate config's ``estimators.variances``."""

    kind: EstimatorKind
    regime: Regime

    def __post_init__(self):
        typed_fields(self)


@dataclass(frozen=True)
class _Paired(_Interval):
    """An entry of an estimate config's ``estimators.covariances`` or ``estimators.pooled``."""

    prob: EstimatorKind


def load_config(path: str | Path, mode: str) -> RunConfig:
    """Read and check a YAML config; a malformed value raises a :class:`ValidationError` naming its key."""
    with open(path, "rb") as fh:  # yaml decodes bytes itself, so invalid UTF-8 is a YAMLError naming the file
        return _parse_config(yaml.safe_load(fh), mode)


def _parse_config(raw, mode: str) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a mapping")
    cfg_mode = raw.get("mode", mode)
    if cfg_mode != mode:
        raise ValidationError(f"config is for mode {cfg_mode!r}, command expects {mode!r}")
    if mode == "simulate" and "level" in raw:
        raise ValidationError("a simulate config sets its level as scenario.level, not at the top level")
    config_section(raw, "top level", ("mode", "output_dir") + MODE_KEYS[mode],
                   ("inputs",) if mode == "estimate" else ("scenario",))
    output_dir = raw.get("output_dir", "out")
    given = {key: raw[key] for key in ("level", "max_workers") if key in raw}  # the rest keep defaults

    if mode == "simulate":
        return RunConfig(output_dir, scenario=config_dataclass(ScenarioConfig, "scenario", raw["scenario"]), **given)

    inputs = config_section(raw["inputs"], "inputs", INPUT_KEYS, INPUT_KEYS)
    inputs = {key: config_value(f"inputs.{key}", hint, inputs[key])
              for key, hint in zip(INPUT_KEYS, (Path, Path, PositiveInt))}
    design = config_section(raw.get("design", {}), "design", ("kind",))  # SRSWOR's size is sample A's row count
    given.update({"design": config_value("design.kind", DesignKind, design["kind"])} if design else {})
    analysis = config_section(raw.get("analysis", {}), "analysis", field_names(ModelSpec) + ("sigma_model",))
    if "sigma_model" in analysis:  # the residual variance has one model, so the key is checked, then unread
        config_value("analysis.sigma_model", ResidualVarianceModel, analysis["sigma_model"])
    # a mask lists covariate numbers, x_j as j; the intercept, column 0, is always kept
    model = config_dataclass(ModelSpec, "analysis", {
        key: (0, *value) if key.endswith("_cols") and isinstance(value, list) else value
        for key, value in analysis.items() if key != "sigma_model"})
    est = config_section(raw.get("estimators", {}), "estimators", ("points", "variances", "covariances", "pooled"))
    points, variances, covariances, pooled = (
        config_value(f"estimators.{key}", hint, est.get(key, ())) for key, hint in (
            ("points", tuple[EstimatorKind, ...]), ("variances", tuple[_Interval, ...]),
            ("covariances", tuple[_Paired, ...]), ("pooled", tuple[_Paired, ...])))
    # Every listed point is a point-only row, in the listed order; the
    # probability-sample ones also get their design-variance interval.
    plan = EvalPlan(prob_points=tuple(k for k in points if k in PROB_KINDS), point_only=points,
                    var_pairs=tuple(map(dataclasses.astuple, variances)),
                    cov_pairs=tuple(map(dataclasses.astuple, covariances)),
                    pooled=tuple(map(dataclasses.astuple, pooled)))
    plan.check(model.fit_method)
    return RunConfig(output_dir, sample_a_path=inputs["sample_a"], sample_b_path=inputs["sample_b"],
                     n_population=inputs["n_population"], model=model, plan=plan, **given)


# ---------------------------------------------------------------------------
# CSV input and output


@contextlib.contextmanager
def _csv_reader(path: Path):
    """A csv reader over ``path``, its field size unlimited; OS, decoding and csv errors become a CsvParseError."""
    limit = csv.field_size_limit(2**31 - 1)  # the largest limit csv takes on every platform, until the block ends
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark at the start is skipped
            yield csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvParseError(f"{path}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _header(path: Path, fields: list[str], expected_tail: tuple[str, ...],
            optional_tail: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """The covariate count and the trailing column names of a sample CSV's header row."""
    header = [h.strip() for h in fields]
    if not header:
        raise CsvParseError(f"{path} line 1: empty file")
    if header[0] != "id":
        raise CsvParseError(f"{path} line 1: first column must be 'id'")
    n_x = 0
    while 1 + n_x < len(header) and header[1 + n_x] == f"x_{n_x + 1}":
        n_x += 1
    if n_x == 0:
        raise CsvParseError(f"{path} line 1: expected covariate columns x_1..x_p")
    tail = tuple(header[1 + n_x:])
    if tail != expected_tail and tail != expected_tail + optional_tail:
        raise CsvParseError(f"{path} line 1: trailing columns {list(tail)} do not match "
                            f"{list(expected_tail)} (+ optional {list(optional_tail)})")
    return n_x, tail


def _scan_rows(path: Path, expected_tail: tuple[str, ...],
               optional_tail: tuple[str, ...]) -> tuple[list[int], np.ndarray]:
    """The row scanner: the line number of each data row, and its values with the intercept 1 in place of ``id``.

    csv reads the file one record at a time, so the scanner takes what the
    bulk parse refuses (text ids, quoted fields) and is the one reader that
    names the file and line of a failure. Each field is stripped as loadtxt
    strips it before ``float`` reads it.
    """
    with _csv_reader(path) as reader:
        n_x, tail = _header(path, next(reader, []), expected_tail, optional_tail)
        width = 1 + n_x + len(tail)
        linenos, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise CsvParseError(f"{path} line {reader.line_num}: expected {width} fields, got {len(row)}")
            try:
                rows.append([1.0, *map(float, map(str.strip, row[1:]))])
            except ValueError as exc:
                raise CsvParseError(f"{path} line {reader.line_num}: {exc}") from None
            linenos.append(reader.line_num)
        if not rows:
            raise CsvParseError(f"{path}: no data rows")
    return linenos, np.asarray(rows)


def _bulk_rows(path: Path, width: int) -> np.ndarray | None:
    """Every row after the header in one ``np.loadtxt``; None when it fails, finds no data rows or another width."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns when the file has no data rows
            values = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except (ValueError, UserWarning):
        return None
    return values if values.shape[1] == width else None


def _read_rows(path: Path, expected_tail: tuple[str, ...], optional_tail: tuple[str, ...] = ()):
    """Parse a sample CSV: (its table, with the intercept in place of ``id``; covariate count; tail column names).

    One ``np.loadtxt`` parses the body; the row scanner reads the file only
    when that finds no table of the header's width. The table is one contiguous
    array, which a forked reader sends without a copy.
    """
    with _csv_reader(path) as reader:
        n_x, tail = _header(path, next(reader, []), expected_tail, optional_tail)
        values = _bulk_rows(path, 1 + n_x + len(tail))
    if values is None:
        values = _scan_rows(path, expected_tail, optional_tail)[1]
    values[:, 0] = 1.0  # the intercept in place of id
    return values, n_x, tail


def _child_main(sink, work):
    """A forked child: pickle (True, ``work()``) or (False, its exception) into ``sink``, then ``os._exit``.

    Each ``work`` parses or formats only, so the child starts no thread and makes no BLAS call.
    """
    code = 1
    try:
        try:
            outcome = True, work()
        except Exception as exc:
            outcome = False, exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # the parent gets the repr of what it could not be sent
                outcome = False, RuntimeError(repr(exc))
        with sink:
            pickle.dump(outcome, sink, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(work, path: Path, role: str, fork: bool):
    """Run ``work()`` in a forked child while the with-block runs; the block calls the yielded ``result()``.

    ``result()`` returns what ``work`` returned or raises what it raised.
    Without ``fork``, or on a platform that does not fork, ``result()`` runs
    ``work`` in this process. A child that ends without a result raises a
    ChildProcessError naming ``path``, the file its work was for. The child
    is reaped on every path, and killed first if the block ends before the
    result is in.
    """
    if not (fork and hasattr(os, "fork")):
        yield work
        return
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        with open(write_end, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                pipe.close()  # so that the child's writes fail, not block, if the parent is gone
                _child_main(sink, work)
        status = None

        def result():
            nonlocal status
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            status = os.waitpid(pid, 0)[1]
            if outcome is None:
                raise ChildProcessError(f"{path}: the {role} process ended without a result "
                                        f"(exit code {os.waitstatus_to_exitcode(status)})")
            if not outcome[0]:
                raise outcome[1]
            return outcome[1]

        try:
            yield result
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None = None):
    """Open ``path`` for text under a temporary name in its directory; rename it to ``path`` once written whole.

    On a failure or an interrupt the temporary file is removed, and a file already at ``path`` stays as it was.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", newline=newline) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        if isinstance(exc, OSError) and str(exc.filename) == str(temporary):  # name the output, not its stand-in
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def read_samples(config: RunConfig) -> ObservedData:
    """Read both sample CSVs into an ObservedData, checked as it is built and by ``config.model.check_outcomes``.

    Sample B is read first, then sample A. When both files are at least ``_FORK_FLOOR`` bytes, a forked child reads
    sample A while this process reads sample B. Either way, when both fail, sample A's error is raised. The error of
    a row rule of either check is raised again naming the file and line of its row.
    """
    path_a, path_b = config.sample_a_path, config.sample_b_path
    schemas = {"A": (path_a, ("pi_a",), ("y",)), "B": (path_b, ("y",), ())}  # each file's trailing columns
    fork = False
    with contextlib.suppress(OSError):  # a file that cannot be read fails in _read_rows, with its message
        fork = min(os.path.getsize(path_a), os.path.getsize(path_b)) >= _FORK_FLOOR
    with _forked(lambda: _read_rows(*schemas["A"]), path_a, "reader", fork) as sample_a:
        try:
            table_b = _read_rows(*schemas["B"])
        except Exception:
            sample_a()  # raises sample A's error, if it has one, in place of B's
            raise
        table_a = sample_a()
    (x_a, tails_a), (x_b, tails_b) = ((values[:, :1 + n_x], dict(zip(tail, values[:, 1 + n_x:].T)))
                                      for values, n_x, tail in (table_a, table_b))
    try:
        return config.model.check_outcomes(ObservedData(
            n_population=config.n_population, design=config.design, x_a=x_a, pi_a=tails_a["pi_a"], y_a=tails_a.get("y"),
            x_b=x_b, y_b=tails_b["y"]))
    except ValidationError as exc:
        if exc.row is None:
            raise
        lineno = _scan_rows(*schemas[exc.sample])[0][exc.row]
        raise ValidationError(f"{schemas[exc.sample][0]} line {lineno}: {exc}", exc.sample, exc.row) from None


def _format_block(block: np.ndarray) -> str:
    """Rows of an export table as CSV text, in one C-level %: the id with %d, each value with %.17g, CRLF ends."""
    row_fmt = ",".join(["%d"] + ["%.17g"] * (block.shape[1] - 1)) + "\r\n"
    return row_fmt * len(block) % tuple(block.ravel().tolist())


def write_sample_csvs(observed: ObservedData, directory: str | Path) -> tuple[Path, Path]:
    """Export an ObservedData to the CLI's CSV schemas (17 significant digits, CRLF line ends).

    The rows are formatted in blocks, A's then B's, and nothing is written
    until all of their text is in hand. When the two tables hold at least
    ``_FORK_FLOOR`` (1 MiB) of values, a forked child formats the blocks
    after the midpoint of the value count while this process formats those
    before it; the bytes are those of the in-process export. Only this
    process opens or writes a file, so a child that ends without its text
    leaves no file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    x_names = [f"x_{j}" for j in range(1, observed.n_covariates)]
    tails_a = [observed.pi_a] + ([] if observed.y_a is None else [observed.y_a])
    files = [(directory / "sample_a.csv", x_names + ["pi_a", "y"][:len(tails_a)]),
             (directory / "sample_b.csv", x_names + ["y"])]
    tables = [np.column_stack([np.arange(1, observed.n_a + 1), observed.x_a[:, 1:], *tails_a]),
              np.column_stack([np.arange(1, observed.n_b + 1), observed.x_b[:, 1:], observed.y_b])]
    blocks = [(i, table[start:start + _EXPORT_BLOCK])
              for i, table in enumerate(tables) for start in range(0, len(table), _EXPORT_BLOCK)]
    ends = np.cumsum([block.size for _, block in blocks])
    cut = 1 + int(np.argmin(abs(ends[:-1] - ends[-1] / 2)))  # the block boundary nearest the middle value
    with _forked(lambda: [_format_block(block) for _, block in blocks[cut:]], files[blocks[cut][0]][0], "writer",
                 sum(table.nbytes for table in tables) >= _FORK_FLOOR) as rest:
        text = [_format_block(block) for _, block in blocks[:cut]] + rest()
    for i, (path, names) in enumerate(files):
        with _replacing(path, newline="") as fh:
            fh.write(",".join(["id"] + names) + "\r\n")
            fh.writelines(t for (j, _), t in zip(blocks, text) if j == i)
    return files[0][0], files[1][0]


# ---------------------------------------------------------------------------
# Reports


def build_estimate_report(config: RunConfig, observed: ObservedData) -> dict:
    """Evaluate the config's plan on validated data and arrange its rows into the report's sections."""
    plan = config.plan
    needs_fit = any(k not in PROB_KINDS for k in plan.point_only) or plan.var_pairs \
        or plan.cov_pairs or plan.pooled
    analysis = Analysis(observed, fit_nuisance(observed, config.model) if needs_fit else None)
    report: dict = {
        "mode": "estimate",
        "n_population": observed.n_population,
        "design": {"kind": observed.design.value, "n": observed.n_a if observed.design is DesignKind.SRSWOR else None},
        "model": plain_data(config.model),
        "level": config.level,
        "points": [],
        "variances": [],
        "covariances": [],
        "pooled": [],
    }
    for row in evaluate(plan, analysis, config.level):
        values = row.values
        head = {"estimator": row.kind.value, "regime": row.regime.value if row.regime else None}
        if row.pooled is not None:
            report["pooled"].append({**head, "prob_estimator": row.prob.value, **plain_data(row.pooled)})
        elif "cov" in values:
            report["covariances"].append({**head, "prob_estimator": row.prob.value, "covariance": values["cov"]})
        elif "var" in values:
            report["variances"].append({**head, "estimate": values["est"], "variance": values["var"],
                                        "ci_low": values["lo"], "ci_high": values["hi"]})
        else:
            report["points"].append({"estimator": row.kind.value, "estimate": values["est"]})
    # The report lists the probability-sample variances after the regime ones.
    report["variances"].sort(key=lambda entry: entry["regime"] is None)
    return report


# Each section of report.txt: its report key, its heading and the line of one entry.
_REPORT_SECTIONS = (
    ("points", "point estimates", lambda r: f"{r['estimator']:<6} {_fmt(r['estimate'])}"),
    ("variances", "variance estimates",
     lambda r: f"{r['estimator']:<6} {r['regime'] or '-':<20} est {_fmt(r['estimate'])} "
               f"var {_fmt(r['variance'])} ci [{_fmt(r['ci_low'])}, {_fmt(r['ci_high'])}]"),
    ("covariances", "covariances with probability-sample estimators",
     lambda r: f"{r['estimator']}/{r['regime']} ~ {r['prob_estimator']}: {_fmt(r['covariance'])}"),
    ("pooled", "pooled estimates",
     lambda r: f"{r['estimator']}/{r['regime']} + {r['prob_estimator']}: w {_fmt(r['w'])} "
               f"est {_fmt(r['pooled_estimate'])} var {_fmt(r['pooled_variance'])} "
               f"ci [{_fmt(r['ci_low'])}, {_fmt(r['ci_high'])}]"
               + (" (fallback weight)" if r["fallback_used"] else "")),
)


def _report_text(report: dict) -> str:
    lines = [f"surveyblend estimate report (level {_fmt(report['level'])})", ""]
    for key, heading, entry in _REPORT_SECTIONS:
        if report[key]:
            lines += [heading, *(f"  {entry(row)}" for row in report[key]), ""]
    return "\n".join(lines)


def summary_to_csv(summary: MonteCarloSummary, path: Path) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in summary.rows:
            writer.writerow([_fmt(getattr(row, c)) if c not in ("name", "row_type") else getattr(row, c)
                             for c in SUMMARY_COLUMNS])


# ---------------------------------------------------------------------------
# Run modes


@contextlib.contextmanager
def _output_lock(directory: Path):
    """Make ``directory`` and hold the kernel's lock on its ``.lock`` for the block: one run per directory.

    The lock ends with its process, which a forked child does not share; the file stays, with the holder's pid.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / ".lock"
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        try:
            _try_lock(fd)
        except (BlockingIOError, PermissionError):
            raise FileExistsError(f"{path}: another run holds the lock on this output directory") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        os.close(fd)


def run_estimate(config: RunConfig) -> dict:
    """Estimate mode: CSVs in, report files out. Returns the report dict."""
    with _output_lock(config.output_dir):
        observed = read_samples(config)
        report = build_estimate_report(config, observed)
        with _replacing(config.output_dir / "report.json") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        with _replacing(config.output_dir / "report.txt") as fh:
            fh.write(_report_text(report))
    return report


def run_simulate(config: RunConfig) -> MonteCarloSummary:
    """Simulate mode: scenario in, summary.csv and manifest.json out."""
    with _output_lock(config.output_dir):
        started = time.perf_counter()
        summary = run_replications(config.scenario, parallel=True, max_workers=config.max_workers)  # 1 runs in process
        summary_to_csv(summary, config.output_dir / "summary.csv")
        manifest = {
            "mode": "simulate",
            "scenario": plain_data(config.scenario),
            "seed": config.scenario.seed,
            "max_workers": config.max_workers,
            "n_replicates": summary.n_replicates,
            "n_failed": summary.n_failed,
            "y_bar_mean": summary.y_bar_mean,
            "versions": {
                "surveyblend": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "wall_time_seconds": time.perf_counter() - started,
        }
        with _replacing(config.output_dir / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="surveyblend",
                                     description="Blend nonprobability and probability survey samples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("estimate", "estimate from sample CSVs"),
                            ("simulate", "run a repeated-sampling study")):
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)  # an option not given is unset
        cmd.add_argument("--config", required=True, help="YAML configuration file")
        cmd.add_argument("--output-dir", help="override the configured output directory")
        if name == "simulate":
            cmd.add_argument("--workers", dest="max_workers", type=int, metavar="N",
                             help="override the configured worker count (1: no process pool)")
    overrides = vars(parser.parse_args(argv))  # the options given, each named as its RunConfig field
    command, path = overrides.pop("command"), overrides.pop("config")

    try:
        config = dataclasses.replace(load_config(path, command), **overrides)  # RunConfig checks each bound
        (run_estimate if command == "estimate" else run_simulate)(config)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, SimulationError) as exc:
        print(f"{'solver' if isinstance(exc, SolverError) else 'simulation'} error: {exc}", file=sys.stderr)
        return 3
    except (CsvParseError, OSError, yaml.YAMLError) as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())

"""Command-line front end: config parsing, file formats, exit codes, round trips."""

import copy
import csv
import errno
import functools
import json
import math
import operator
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surveyblend import (
    Analysis,
    DesignKind,
    EstimatorKind,
    ModelSpec,
    ObservedData,
    Regime,
    ValidationError,
    fit_nuisance,
    pool,
    variance,
)
from surveyblend import cli
from surveyblend.cli import main, read_samples, load_config, write_sample_csvs
from surveyblend.types import PI_A_FLOOR
from conftest import make_observed

K = EstimatorKind
SMALLEST_PI_A = float(np.nextafter(PI_A_FLOOR, 1.0))  # a subnormal, the smallest pi_a with a finite inverse


def package_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``, for child interpreters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def estimate_config(tmp_path, observed, out="out", **analysis):
    write_sample_csvs(observed, tmp_path)
    cfg = {
        "mode": "estimate",
        "output_dir": str(tmp_path / out),
        "level": 0.95,
        "inputs": {
            "sample_a": str(tmp_path / "sample_a.csv"),
            "sample_b": str(tmp_path / "sample_b.csv"),
            "n_population": observed.n_population,
        },
        "design": {"kind": observed.design.value},
        "analysis": {"fit_method": "pseudo_ml", "outcome_family": "linear_gaussian", **analysis},
        "estimators": {
            "points": ["HT", "Hajek", "IPW1", "IPW2", "DR1", "DR2"],
            "variances": [{"kind": "DR1", "regime": "both_correct"},
                          {"kind": "DR2", "regime": "selection_correct"}],
            "covariances": [{"kind": "DR2", "regime": "both_correct", "prob": "Hajek"}],
            "pooled": [{"kind": "DR2", "regime": "both_correct", "prob": "Hajek"}],
        },
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def edited_config(tmp_path, mode, section, edit):
    """A config file for ``mode`` after ``edit`` changed its ``section`` (a dotted path; None: the top level)."""
    path = estimate_config(tmp_path, make_observed(seed=87)) if mode == "estimate" else simulate_config(tmp_path)
    cfg = yaml.safe_load(path.read_text())
    target = cfg
    for part in section.split(".") if section else ():
        target = target[int(part) if part.isdigit() else part]
    edit(target)
    path.write_text(yaml.safe_dump(cfg))
    return path


def simulate_config(tmp_path, out="sim", replicates=12, seed=7):
    cfg = {
        "mode": "simulate",
        "output_dir": str(tmp_path / out),
        "scenario": {
            "n_population": 1200,
            "covariates": [{"kind": "normal"}],
            "beta_true": [1.0, 1.0],
            "alpha_true": [-1.5, 0.4],
            "sample_a_size": 120,
            "replicates": replicates,
            "seed": seed,
            "plan": {
                "prob_points": ["Hajek"],
                "var_pairs": [["DR1", "both_correct"]],
                "pooled": [["DR1", "both_correct", "Hajek"]],
            },
        },
    }
    path = tmp_path / f"config_{out}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestEstimateMode:
    def test_happy_path(self, tmp_path, capsys):
        observed = make_observed(seed=80)
        config = estimate_config(tmp_path, observed)
        assert main(["estimate", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["points"]) == 6
        assert len(report["pooled"]) == 1
        assert (tmp_path / "out" / "report.txt").read_text().startswith("surveyblend")
        assert (tmp_path / "out" / ".lock").read_text() == str(os.getpid())

    def test_bad_probability_names_row(self, tmp_path, capsys):
        observed = make_observed(seed=81)
        config = estimate_config(tmp_path, observed)
        # corrupt one pi_a value in place (row 4 of the file, line 5 with header)
        path = tmp_path / "sample_a.csv"
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[-2] = "1.5"
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "1.5" in err

    # x_1 = 1e160 on one row of the selection fit's reference sample squares past the float range in its gram
    # matrix, which numpy once warned of (exit 1 under error::RuntimeWarning); the solve reports it instead
    @pytest.mark.parametrize("sample, fit_method", [("sample_a.csv", "pseudo_ml"), ("sample_a.csv", "kim_haziza"),
                                                    ("sample_b.csv", "calibration")])
    def test_a_covariate_whose_square_overflows_is_a_solver_error(self, tmp_path, capsys, sample, fit_method):
        config = estimate_config(tmp_path, make_observed(seed=82), fit_method=fit_method)
        path = tmp_path / sample
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "1e160"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", str(config)]) == 3
        assert re.fullmatch(r"solver error: [\w-]+ selection fit: no descent direction \(residual \S+\)\n",
                            capsys.readouterr().err)

    # A pi_a of 1e-300 passes validate, but its 1/pi_a^2 in a Poisson covariance coefficient overflows, and Hajek's
    # form meets 0 * inf; numpy once warned of both (exit 1 under error::RuntimeWarning). The variance's check
    # reports it.
    @pytest.mark.parametrize("point", ["HT", "Hajek"])
    def test_a_pi_a_whose_inverse_square_overflows_is_a_validation_error(self, tmp_path, capsys, point):
        config = estimate_config(tmp_path, make_observed(seed=83))
        cfg = yaml.safe_load(config.read_text())
        cfg["estimators"] = {"points": [point]}
        config.write_text(yaml.safe_dump(cfg))
        path = tmp_path / "sample_a.csv"
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-2] = "1e-300"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"validation error: non-finite variance {point}\n"

    def test_unparsable_float_is_io_error(self, tmp_path, capsys):
        observed = make_observed(seed=82)
        config = estimate_config(tmp_path, observed)
        path = tmp_path / "sample_b.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "not_a_number", 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--config", str(config)]) == 4
        assert "line 4" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        observed = make_observed(seed=83)
        separated = np.where(observed.x_b[:, 1] > 0, 1.0, 0.0)
        from surveyblend import ObservedData

        observed = ObservedData(n_population=observed.n_population, design=observed.design,
                                x_a=observed.x_a, pi_a=observed.pi_a, y_a=observed.y_a,
                                x_b=observed.x_b, y_b=separated)
        config = estimate_config(tmp_path, observed, outcome_family="logistic_binary")
        assert main(["estimate", "--config", str(config)]) == 3

    def test_singular_jacobian_exit_code(self, tmp_path, capsys):
        base = make_observed(seed=83)  # then x_2 again as x_3
        observed = ObservedData(n_population=base.n_population, design=base.design,
                                x_a=base.x_a[:, [0, 1, 2, 2]], pi_a=base.pi_a, y_a=base.y_a,
                                x_b=base.x_b[:, [0, 1, 2, 2]], y_b=base.y_b)
        config = estimate_config(tmp_path, observed)
        assert main(["estimate", "--config", str(config)]) == 3
        assert "solver error: pseudo-ML selection fit: singular jacobian" in capsys.readouterr().err

    def test_python_m_runs_estimate(self, tmp_path):
        # The way the benchmark starts an estimate: a fresh interpreter running the package.
        config = estimate_config(tmp_path, make_observed(seed=80))
        done = subprocess.run([sys.executable, "-m", "surveyblend", "estimate", "--config", str(config)],
                              capture_output=True, text=True, env=package_env())
        assert done.returncode == 0, done.stderr
        assert len(json.loads((tmp_path / "out" / "report.json").read_text())["points"]) == 6

    def test_pooling_ht_of_a_constant_srswor_outcome_succeeds(self, tmp_path):
        # The HT variance of a constant outcome under SRSWOR is 0 exactly, with no warning; pooling takes it.
        base = make_observed(seed=55, n_population=200, design_kind=DesignKind.SRSWOR, srswor_n=37)
        observed = ObservedData(n_population=200, design=base.design, x_a=base.x_a, pi_a=base.pi_a,
                                y_a=np.ones(base.n_a), x_b=base.x_b, y_b=base.y_b)
        config = estimate_config(tmp_path, observed)
        cfg = yaml.safe_load(config.read_text())
        cfg["estimators"]["pooled"] = [{"kind": "DR1", "regime": "both_correct", "prob": "HT"}]
        config.write_text(yaml.safe_dump(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {(row["estimator"], row["variance"]) for row in report["variances"] if row["regime"] is None} == {
            ("HT", 0.0), ("Hajek", 0.0)}
        assert report["pooled"][0]["var_prob"] == 0.0

    def test_srswor_pi_a_that_is_not_n_over_n_is_a_validation_error(self, tmp_path, capsys):
        # The files state pi_a = 37/200; a config that sets N = 300 makes them another design's.
        observed = make_observed(seed=55, n_population=200, design_kind=DesignKind.SRSWOR, srswor_n=37)
        config = estimate_config(tmp_path, observed)
        cfg = yaml.safe_load(config.read_text())
        cfg["inputs"]["n_population"] = 300
        config.write_text(yaml.safe_dump(cfg))
        assert main(["estimate", "--config", str(config)]) == 2
        assert "must be n/N = 37/300" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("design_kind, design", [(DesignKind.SRSWOR, {"kind": "srswor", "n": 37}),
                                                      (DesignKind.POISSON, {"kind": "poisson", "n": None})],
                             ids=["srswor", "poisson"])
    def test_report_states_the_srswor_size_as_sample_a_s_row_count(self, tmp_path, design_kind, design):
        observed = make_observed(seed=55, n_population=200, design_kind=design_kind, srswor_n=37)
        assert main(["estimate", "--config", str(estimate_config(tmp_path, observed))]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert list(report["design"].items()) == list(design.items())

    def test_a_config_that_states_an_srswor_size_is_validation_error(self, tmp_path, capsys):
        # The size is sample A's row count, so the design section takes its kind alone.
        observed = make_observed(seed=55, n_population=200, design_kind=DesignKind.SRSWOR, srswor_n=37)
        config = estimate_config(tmp_path, observed)
        cfg = yaml.safe_load(config.read_text())
        cfg["design"]["n"] = 37
        config.write_text(yaml.safe_dump(cfg))
        assert main(["estimate", "--config", str(config)]) == 2
        assert "validation error: config section design: unknown key 'n'" in capsys.readouterr().err

    def test_a_population_below_a_sample_size_states_the_sizes(self, tmp_path, capsys):
        observed = make_observed(seed=87)  # the data edited_config writes
        path = edited_config(tmp_path, "estimate", "inputs", lambda inputs: inputs.update(n_population=50))
        assert main(["estimate", "--config", str(path)]) == 2
        assert ("validation error: population size smaller than a sample size "
                f"(N 50, n_A {observed.n_a}, n_B {observed.n_b})") in capsys.readouterr().err

    @pytest.mark.parametrize("estimators", [{}, {"points": [], "variances": [], "covariances": [], "pooled": []}],
                             ids=["no-keys", "empty-lists"])
    def test_an_empty_estimators_section_writes_an_empty_report(self, tmp_path, estimators):
        path = edited_config(tmp_path, "estimate", None, lambda cfg: cfg.update(estimators=estimators))
        assert main(["estimate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [report[key] for key in ("points", "variances", "covariances", "pooled")] == [[], [], [], []]
        assert len((tmp_path / "out" / "report.txt").read_text().splitlines()) == 1  # the heading alone

    def test_missing_config_key_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump({"mode": "estimate", "inputs": {}}))
        assert main(["estimate", "--config", str(path)]) == 2

    def test_round_trip_matches_in_process_exactly(self, tmp_path):
        observed = make_observed(seed=85)
        config_path = estimate_config(tmp_path, observed)
        assert main(["estimate", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())

        # independent in-process computation on the same observed data
        config = load_config(config_path, "estimate")
        reread = read_samples(config)
        np.testing.assert_array_equal(reread.x_a, observed.x_a)
        np.testing.assert_array_equal(reread.pi_a, observed.pi_a)
        np.testing.assert_array_equal(reread.y_b, observed.y_b)

        spec = ModelSpec()
        fit = fit_nuisance(observed, spec)
        by_kind = {row["estimator"]: row["estimate"] for row in report["points"]}
        for kind in (K.HT, K.HAJEK, K.IPW1, K.IPW2, K.DR1, K.DR2):
            assert by_kind[kind.value] == Analysis(observed, fit).point(kind)
        var_rows = {(row["estimator"], row["regime"]): row for row in report["variances"]}
        assert var_rows[("DR1", "both_correct")]["variance"] == variance(
            K.DR1, Regime.BOTH_CORRECT, Analysis(observed, fit))
        assert var_rows[("HT", None)]["variance"] == variance(K.HT, None, Analysis(observed))
        pooled = report["pooled"][0]
        expected = pool(Analysis(observed, fit), K.DR2, Regime.BOTH_CORRECT, K.HAJEK, 0.95)
        assert pooled["pooled_estimate"] == expected.pooled_estimate
        assert pooled["pooled_variance"] == expected.pooled_variance
        assert pooled["w"] == expected.w


    @pytest.mark.parametrize("section, entry, fit_method, message", [
        ("variances", {"kind": "DR1", "regime": "kh_doubly_robust"}, "pseudo_ml",
         "DR1/kh_doubly_robust has no variance formula under a pseudo_ml fit"),
        ("covariances", {"kind": "DR2", "regime": "both_correct", "prob": "DR1"}, "pseudo_ml",
         "DR1 has no variance formula under a pseudo_ml fit"),
        ("pooled", {"kind": "DR2", "regime": "both_correct", "prob": "DR1"}, "pseudo_ml",
         "DR1 has no variance formula under a pseudo_ml fit"),
        ("variances", {"kind": "IPW2", "regime": "selection_correct"}, "kim_haziza",
         "IPW2/selection_correct has no variance formula under a kim_haziza fit; IPW2 has none there"),
    ], ids=["variances", "covariances", "pooled", "ipw2-kim-haziza"])
    def test_unsupported_pair_rejected_before_reading_csvs(self, tmp_path, capsys, section, entry, fit_method,
                                                           message):
        observed = make_observed(seed=86)
        config_path = estimate_config(tmp_path, observed, fit_method=fit_method)
        cfg = yaml.safe_load(config_path.read_text())
        cfg["estimators"][section] = [entry]
        config_path.write_text(yaml.safe_dump(cfg))
        (tmp_path / "sample_a.csv").unlink()
        (tmp_path / "sample_b.csv").unlink()
        assert main(["estimate", "--config", str(config_path)]) == 2
        assert message in capsys.readouterr().err

    def test_interleaved_points_keep_the_listed_order(self, tmp_path):
        config_path = estimate_config(tmp_path, make_observed(seed=88))
        cfg = yaml.safe_load(config_path.read_text())
        cfg["estimators"]["points"] = ["DR1", "HT", "Hajek", "DR2"]
        config_path.write_text(yaml.safe_dump(cfg))
        assert main(["estimate", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [row["estimator"] for row in report["points"]] == ["DR1", "HT", "Hajek", "DR2"]
        assert [(row["estimator"], row["regime"]) for row in report["variances"]] == [
            ("DR1", "both_correct"), ("DR2", "selection_correct"), ("HT", None), ("Hajek", None)]

    def test_config_names_match_in_any_case(self, tmp_path):
        observed = make_observed(seed=95)
        for name in ("exact", "mixed"):
            (tmp_path / name).mkdir()
            estimate_config(tmp_path / name, observed, sigma_model="constant")
        path = tmp_path / "mixed" / "config.yaml"
        cfg = yaml.safe_load(path.read_text())
        cfg["design"]["kind"] = "Poisson"
        cfg["analysis"] = {"fit_method": "Pseudo_ML", "outcome_family": "LINEAR_gaussian", "sigma_model": "Constant"}
        cfg["estimators"] = {
            "points": ["ht", "HAJEK", "ipw1", "Ipw2", "dr1", "Dr2"],
            "variances": [{"kind": "dr1", "regime": "Both_Correct"}, {"kind": "DR2", "regime": "SELECTION_CORRECT"}],
            "covariances": [{"kind": "dr2", "regime": "Both_correct", "prob": "hajek"}],
            "pooled": [{"kind": "Dr2", "regime": "BOTH_CORRECT", "prob": "Hajek"}],
        }
        path.write_text(yaml.safe_dump(cfg))
        for name in ("exact", "mixed"):
            assert main(["estimate", "--config", str(tmp_path / name / "config.yaml")]) == 0
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "exact" / "out" / name).read_bytes() == (tmp_path / "mixed" / "out" / name).read_bytes()

    def test_probability_sample_points_alone_fit_no_model(self, tmp_path, monkeypatch):
        config_path = estimate_config(tmp_path, make_observed(seed=88))
        cfg = yaml.safe_load(config_path.read_text())
        cfg["estimators"] = {"points": ["HT", "Hajek"]}
        config_path.write_text(yaml.safe_dump(cfg))
        monkeypatch.setattr(cli, "fit_nuisance", None)  # calling it would raise a TypeError
        assert main(["estimate", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [(row["estimator"], row["regime"]) for row in report["variances"]] == [("HT", None), ("Hajek", None)]


# A process inside _output_lock until it is killed, which prints its pid and, when it forks, its child's pid.
LOCK_HOLDER = """\
import os, sys, time
from pathlib import Path
from surveyblend.cli import _output_lock
with _output_lock(Path(sys.argv[1])):
    child = os.fork() if sys.argv[2] == "fork" else None
    if child == 0:
        time.sleep(60)
        os._exit(0)
    print("held", os.getpid(), child, flush=True)
    time.sleep(60)
"""


@pytest.fixture
def lock_holder():
    """Start a process that holds the lock on a directory; return it and the pid of its forked child, if any.

    A ``lockf`` lock belongs to its process, which takes it again at will, so only another process can hold it.
    """
    holders = []

    def hold(directory, fork=False):
        holder = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(directory), "fork" if fork else ""],
                                  stdout=subprocess.PIPE, text=True, env=package_env())
        holders.append(holder)
        word, pid, child = holder.stdout.readline().split()
        assert (word, pid) == ("held", str(holder.pid))
        return holder, None if child == "None" else int(child)

    yield hold
    for holder in holders:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()


class TestOutputLock:
    @pytest.mark.parametrize("content", ["", "not a pid", "-1", str(2**80), "1", "reaped"])
    def test_a_lock_file_nobody_holds_does_not_block(self, tmp_path, capsys, content):
        if content == "reaped":  # the pid of an exited child, which may come round again
            child = subprocess.Popen([sys.executable, "-c", "pass"])
            child.wait(timeout=10)
            content = str(child.pid)
        config = estimate_config(tmp_path, make_observed(seed=84))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / ".lock").write_text(content)
        assert main(["estimate", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / ".lock").read_text() == str(os.getpid())

    def test_a_held_lock_blocks_runs_until_its_holder_is_killed(self, tmp_path, capsys, lock_holder):
        config = estimate_config(tmp_path, make_observed(seed=84))
        holder, _ = lock_holder(tmp_path / "out")
        assert main(["estimate", "--config", str(config)]) == 4
        lock = tmp_path / "out" / ".lock"
        message = f"{lock}: another run holds the lock on this output directory"
        assert capsys.readouterr().err == f"input/output error: {message}\n"
        assert not (tmp_path / "out" / "report.json").exists()
        holder.kill()
        holder.wait(timeout=10)
        assert main(["estimate", "--config", str(config)]) == 0
        assert lock.read_text() == str(os.getpid())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform does not fork")
    def test_a_forked_child_of_the_holder_does_not_keep_the_lock(self, tmp_path, lock_holder):
        # A flock lock would stay with the child, as it does with the orphaned workers of a killed pool.
        config = estimate_config(tmp_path, make_observed(seed=84))
        holder, child = lock_holder(tmp_path / "out", fork=True)
        try:
            assert main(["estimate", "--config", str(config)]) == 4
            holder.kill()
            holder.wait(timeout=10)
            os.kill(child, 0)  # the child runs on
            assert main(["estimate", "--config", str(config)]) == 0
        finally:
            os.kill(child, signal.SIGKILL)


class TestSimulateMode:
    def test_smoke_run_emits_rows_and_manifest(self, tmp_path):
        config = simulate_config(tmp_path, replicates=2)
        assert main(["simulate", "--config", str(config)]) == 0
        rows = (tmp_path / "sim" / "summary.csv").read_text().splitlines()
        assert len(rows) >= 2  # header + at least one row
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["n_replicates"] == 2
        assert manifest["seed"] == 7
        assert "wall_time_seconds" in manifest

    def test_wall_time_is_measured_on_a_monotonic_clock(self, tmp_path, monkeypatch):
        # a wall clock stepped back during the run does not make the run's duration negative
        stepped_back = iter(range(10**9, 0, -1000))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(stepped_back)))
        assert main(["simulate", "--config", str(simulate_config(tmp_path, replicates=2))]) == 0
        assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["wall_time_seconds"] >= 0.0

    def test_same_config_and_seed_identical_summaries(self, tmp_path):
        c1 = simulate_config(tmp_path, out="sim1")
        c2 = simulate_config(tmp_path, out="sim2")
        assert main(["simulate", "--config", str(c1)]) == 0
        assert main(["simulate", "--config", str(c2)]) == 0
        b1 = (tmp_path / "sim1" / "summary.csv").read_bytes()
        b2 = (tmp_path / "sim2" / "summary.csv").read_bytes()
        assert b1 == b2

    def test_parallel_summary_is_bit_identical_to_serial(self, tmp_path):
        serial = simulate_config(tmp_path, out="ser", replicates=16)
        parallel = simulate_config(tmp_path, out="par", replicates=16)
        assert main(["simulate", "--config", str(serial)]) == 0
        assert main(["simulate", "--config", str(parallel), "--workers", "2"]) == 0
        assert ((tmp_path / "ser" / "summary.csv").read_bytes()
                == (tmp_path / "par" / "summary.csv").read_bytes())

    def test_output_dir_override(self, tmp_path):
        config = simulate_config(tmp_path, replicates=2)
        assert main(["simulate", "--config", str(config),
                     "--output-dir", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "summary.csv").exists()

    def test_mode_mismatch_is_validation_error(self, tmp_path, capsys):
        config = simulate_config(tmp_path)
        assert main(["estimate", "--config", str(config)]) == 2

    def test_estimator_names_match_in_any_case(self, tmp_path):
        exact = simulate_config(tmp_path, out="exact")
        lower = simulate_config(tmp_path, out="lower")
        cfg = yaml.safe_load(lower.read_text())
        cfg["scenario"]["plan"] = {"prob_points": ["hajek"], "var_pairs": [["dr1", "both_correct"]],
                                   "pooled": [["dr1", "both_correct", "HAJEK"]]}
        lower.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(exact)]) == 0
        assert main(["simulate", "--config", str(lower)]) == 0
        assert ((tmp_path / "exact" / "summary.csv").read_bytes()
                == (tmp_path / "lower" / "summary.csv").read_bytes())

    def test_config_names_match_in_any_case(self, tmp_path):
        exact = simulate_config(tmp_path, out="exact")
        mixed = simulate_config(tmp_path, out="mixed")
        cfg = yaml.safe_load(mixed.read_text())
        cfg["scenario"].update(design_kind="POISSON", fit_method="Pseudo_ML", outcome_family="Linear_Gaussian")
        cfg["scenario"]["plan"]["var_pairs"] = [["DR1", "Both_Correct"]]
        cfg["scenario"]["plan"]["pooled"] = [["DR1", "BOTH_CORRECT", "Hajek"]]
        mixed.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(exact)]) == 0
        assert main(["simulate", "--config", str(mixed)]) == 0
        assert ((tmp_path / "exact" / "summary.csv").read_bytes()
                == (tmp_path / "mixed" / "summary.csv").read_bytes())

    @pytest.mark.parametrize("fit_method, pair, message", [
        ("pseudo_ml", ["DR1", "kh_doubly_robust"],
         "DR1/kh_doubly_robust has no variance formula under a pseudo_ml fit"),
        ("kim_haziza", ["IPW2", "selection_correct"],
         "IPW2/selection_correct has no variance formula under a kim_haziza fit"),
    ], ids=["dr1-kh-regime", "ipw2-kim-haziza"])
    def test_unsupported_pair_rejected_before_any_replicate(self, tmp_path, capsys, fit_method, pair, message):
        path = simulate_config(tmp_path, replicates=50)
        cfg = yaml.safe_load(path.read_text())
        cfg["scenario"].update(fit_method=fit_method, plan={"var_pairs": [pair]})
        path.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("mode, section, key, value", [
    ("estimate", "analysis", "fit_method", "bogus"),
    ("estimate", None, "level", "abc"),
    ("simulate", "scenario", "design_kind", "bogus"),
    # a misspecification flag, which the column overrides spell
    ("simulate", "scenario", "outcome_wrong", "false"),
    # keys that nothing reads, in every section, and null sections
    ("estimate", None, "estimator", {"points": ["HT"]}),
    ("estimate", "inputs", "sample_c", "c.csv"),
    ("estimate", "design", "size", 80),
    ("estimate", "design", "n", 100.5),
    ("estimate", "analysis", "fitmethod", "calibration"),
    ("estimate", "estimators", "point", ["HT"]),
    ("estimate", "estimators.variances.0", "prob", "HT"),
    ("estimate", None, "estimators", None),
    ("simulate", None, "level", 0.5),
    ("simulate", "scenario", "replicatez", 3),
    ("simulate", "scenario.plan", "var_pair", []),
    ("simulate", "scenario.covariates.0", "mean", 1.0),
    ("simulate", "scenario", "plan", None),
    # worker counts below 1
    ("simulate", None, "max_workers", 0),
    ("simulate", None, "max_workers", "two"),
    # the removed worker flag, which max_workers alone spells
    ("simulate", None, "parallel", False),
    # values that used to fail only once the study ran, with a traceback
    ("simulate", "scenario", "seed", -1),
    ("simulate", "scenario", "pi_a_coef", [0.5]),
    ("simulate", "scenario", "noise_sd_coef", [1.0]),
    ("simulate", "scenario.covariates.0", "params", [1.0]),
    ("simulate", "scenario.covariates.0", "params", [0.0, -1.0]),
    # integers that int() would truncate
    ("simulate", "scenario", "replicates", 2.9),
    ("simulate", "scenario", "seed", 1.5),
    ("estimate", "inputs", "n_population", 1000.5),
    ("estimate", "analysis", "outcome_cols", [1.5]),
    ("simulate", "scenario", "outcome_cols_override", [0, 1.5]),
    ("simulate", "scenario", "replicates", float("inf")),
    # numbers that float() would take from a bool or a string
    ("simulate", "scenario", "noise_sd", True),
    ("simulate", "scenario", "level", "0.9"),
    ("estimate", None, "level", "0.9"),
    ("simulate", "scenario", "beta_true", [True, 1.0]),
    ("simulate", "scenario.covariates.0", "params", ["0", 1.0]),
    # outcome-mode keys that nothing reads
    ("simulate", "scenario", "redraw_y", False),
    ("simulate", "scenario", "collect_y_on_a", True),
    # confidence levels outside (0, 1)
    ("estimate", None, "level", 0),
    ("estimate", None, "level", 1.5),
    # a column mask past the scenario's two columns
    ("simulate", "scenario", "outcome_cols_override", [0, 2]),
    # a column named twice: x_1 twice, the intercept twice (an estimate mask always holds it), and an override
    ("estimate", "analysis", "outcome_cols", [1, 1]),
    ("estimate", "analysis", "outcome_cols", [0]),
    ("simulate", "scenario", "outcome_cols_override", [0, 0]),
    # study settings out of range
    ("simulate", "scenario", "replicates", 1),
    ("simulate", "scenario", "level", 1.5),
    ("simulate", "scenario", "sample_a_size", 1200),
    # values that give a frame the study cannot use: Covariate rejects the first, the frame checks the rest
    ("simulate", "scenario.covariates.0", "params", [0.0, float("inf")]),
    ("simulate", "scenario", "noise_sd", float("inf")),
    ("simulate", "scenario", "noise_sd", -1.0),
    ("simulate", "scenario", "sample_a_size", 0),
    ("simulate", "scenario", "alpha_true", [float("nan"), 0.4]),
    ("simulate", "scenario", "pi_a_coef", [float("nan"), 0.5]),
    # uniform params that crashed the generator inside numpy, and normal ones whose draws overflow to inf
    ("simulate", "scenario", "covariates", [{"kind": "uniform", "params": [0.0, float("inf")]}]),
    ("simulate", "scenario", "covariates", [{"kind": "uniform", "params": [float("nan"), 1.0]}]),
    ("simulate", "scenario", "covariates", [{"kind": "uniform", "params": [-1e308, 1e308]}]),
    ("simulate", "scenario.covariates.0", "params", [1e308, 1e308]),
    # a covariate kind the generator does not know
    ("simulate", "scenario.covariates.0", "kind", "gamma"),
    # names that no case of a member's value spells
    ("estimate", "analysis", "fit_method", "Pseudo-ML"),
    ("estimate", "analysis", "sigma_model", "Linear"),
    # the residual variance has one model: analysis.sigma_model takes only its name, and a scenario has no such key
    ("estimate", "analysis", "sigma_model", "linear_in_x"),
    ("simulate", "scenario", "sigma_model", "constant"),
    ("estimate", "design", "kind", "SRS"),
    ("simulate", "scenario", "outcome_family", "Logistic"),
    # a design whose every rate is 0, so that no sample_a_size can scale it
    ("simulate", "scenario", "pi_a_coef", [-800.0, 0.0]),
    # a list setting given as a scalar, and a plan entry of the wrong length
    ("simulate", "scenario", "covariates", 5),
    ("estimate", "analysis", "outcome_cols", 1),
    ("simulate", "scenario.plan", "var_pairs", [["DR1"]]),
    # the other misspecification flag
    ("simulate", "scenario", "selection_wrong", False),
    # finite settings whose products overflow the frame, its probabilities or its outcomes: numpy stays silent, so
    # pytest's error::RuntimeWarning filter does not turn them into a crash before the frame's checks name the key
    ("simulate", "scenario", "beta_true", [1e308, 1e308]),
    ("simulate", "scenario", "alpha_true", [1e308, 1e308]),
    ("simulate", "scenario", "alpha_true", [1e308, -1e308]),
    ("simulate", "scenario", "pi_a_coef", [1e308, 1e308]),
    ("simulate", "scenario", "noise_sd", 1e308),
    # a worker count that is no count
    ("simulate", None, "max_workers", None),
])
def test_malformed_config_value_is_validation_error(tmp_path, capsys, mode, section, key, value):
    path = edited_config(tmp_path, mode, section, lambda target: target.__setitem__(key, value))
    assert main([mode, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert re.search(rf"\b{key}\b", err) or str(value) in err


@pytest.mark.parametrize("edits, message", [
    ({"noise_sd_coef": [1.0, 0.5], "noise_sd": 2.0}, "noise_sd 2.0 is unread beside noise_sd_coef"),
    ({"outcome_family": "logistic_binary", "noise_sd": 2.0}, "a logistic_binary outcome draws no noise"),
    ({"outcome_family": "logistic_binary", "noise_sd_coef": [1.0, 0.5]}, "a logistic_binary outcome draws no noise"),
], ids=["noise_sd-beside-noise_sd_coef", "noise_sd-under-logistic", "noise_sd_coef-under-logistic"])
def test_a_noise_setting_the_outcome_model_does_not_read_is_validation_error(tmp_path, capsys, edits, message):
    path = edited_config(tmp_path, "simulate", "scenario", lambda target: target.update(edits))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err


def test_a_study_whose_every_variance_overflows_is_a_simulation_error(tmp_path, capsys):
    # outcomes near 1e200 square past the float range, so every replicate fails with a typed error and the study
    # exits 3, where it once aggregated rows over no finite replicate and divided by zero
    path = edited_config(tmp_path, "simulate", "scenario",
                         lambda scenario: scenario.update(replicates=4, beta_true=[1e200, 1e200]))
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "simulation error: 4 of 4 replicates failed" in err and "ValidationError: non-finite variance" in err


def test_a_study_whose_covariate_squares_overflow_is_a_simulation_error(tmp_path, capsys):
    # x_1 at sd 1e160 overflows each replicate's selection-fit gram matrix, which numpy once warned of, stopping
    # the study (exit 1 under error::RuntimeWarning); the solve reports it, so every replicate fails with exit 3
    path = edited_config(tmp_path, "simulate", "scenario", lambda scenario: scenario.update(
        replicates=4, covariates=[{"kind": "normal", "params": [0.0, 1e160]}], alpha_true=[-1.5, 0.0]))
    assert main(["simulate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "simulation error: 4 of 4 replicates failed" in err and "SolverError: pseudo-ML selection fit" in err


def test_an_outcome_whose_variance_overflows_is_validation_error(tmp_path, capsys):
    # sample B's y at 1e300 gives variances past the float range, which report.json once held as Infinity
    observed = make_observed(seed=87)
    path = estimate_config(tmp_path, ObservedData(
        n_population=observed.n_population, design=observed.design, x_a=observed.x_a, pi_a=observed.pi_a,
        y_a=observed.y_a, x_b=observed.x_b, y_b=np.full(observed.n_b, 1e300)))
    assert main(["estimate", "--config", str(path)]) == 2
    assert "validation error: non-finite variance DR1 both_correct" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("size", [1, 2, 3])
def test_an_srswor_sample_a_too_small_for_the_fit_is_validation_error(tmp_path, capsys, size):
    # Three covariate columns need 4 rows in each sample: every smaller SRSWOR draw would fail the fit's size check.
    def srswor(scenario, size):
        scenario.update(covariates=[{"kind": "normal"}] * 2, beta_true=[1.0] * 3, alpha_true=[-1.5, 0.4, 0.4],
                        design_kind="srswor", sample_a_size=size)

    assert main(["simulate", "--config", str(edited_config(tmp_path, "simulate", "scenario",
                                                           lambda scenario: srswor(scenario, size)))]) == 2
    assert "validation error: an srswor sample_a_size must be at least 4" in capsys.readouterr().err
    path = edited_config(tmp_path, "simulate", "scenario", lambda scenario: srswor(scenario, 4))
    assert load_config(path, "simulate").scenario.sample_a_size == 4


def test_a_frame_too_large_to_draw_is_a_simulation_error(tmp_path, capsys):
    path = edited_config(tmp_path, "simulate", "scenario", lambda target: target.__setitem__("n_population", 1e20))
    assert main(["simulate", "--config", str(path)]) == 3
    assert "simulation error: n_population 100000000000000000000 is too large" in capsys.readouterr().err


@pytest.fixture
def empty_cwd(tmp_path, monkeypatch):
    """An empty working directory, so that a test can see what a run writes there."""
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    return work


@pytest.mark.parametrize("mode, section, key, value, message", [
    ("estimate", "estimators", "points", ["HT", "Bogus"], "estimators.points: 'Bogus' is not a valid EstimatorKind"),
    ("estimate", "estimators.variances.0", "kind", "Bogus",
     "estimators.variances.kind: 'Bogus' is not a valid EstimatorKind"),
    ("simulate", "scenario.plan", "prob_points", ["Bogus"],
     "scenario.plan.prob_points: 'Bogus' is not a valid EstimatorKind"),
    ("simulate", "scenario.plan", "var_pairs", [["Bogus", "both_correct"]],
     "scenario.plan.var_pairs: 'Bogus' is not a valid EstimatorKind"),
    # a list of names given as one name, or as a mapping
    ("estimate", "estimators", "points", "HT", "estimators.points: 'HT' is not a list"),
    ("estimate", "estimators", "points", {"HT": 1}, "estimators.points: {'HT': 1} is not a list"),
    ("estimate", "analysis", "fit_method", "bogus", "analysis.fit_method: 'bogus' is not a valid FitMethod"),
    ("simulate", "scenario", "fit_method", "bogus", "scenario.fit_method: 'bogus' is not a valid FitMethod"),
    ("estimate", "inputs", "sample_a", 1, "inputs.sample_a must be a path, not 1"),
    ("simulate", "scenario.covariates.0", "kind", ["normal"], "scenario.covariates.kind must be a string"),
    # values past the bound their annotation states, and empty paths (Path("") is the working directory)
    ("estimate", "inputs", "n_population", 0, "inputs.n_population must be at least 1, not 0"),
    ("estimate", "inputs", "n_population", -1, "inputs.n_population must be at least 1, not -1"),
    ("estimate", None, "output_dir", "", "output_dir must be a path, not ''"),
    ("estimate", "inputs", "sample_a", "", "inputs.sample_a must be a path, not ''"),
    ("estimate", "inputs", "sample_b", "", "inputs.sample_b must be a path, not ''"),
    ("estimate", None, "level", 1.0, "level must be in (0, 1), not 1.0"),
    ("estimate", None, "level", float("nan"), "level must be in (0, 1), not nan"),
    ("simulate", None, "output_dir", "", "output_dir must be a path, not ''"),
    ("simulate", None, "max_workers", 0, "max_workers must be at least 1, not 0"),
    ("simulate", "scenario", "sample_a_size", 0, "scenario.sample_a_size must be at least 1, not 0"),
    ("simulate", "scenario", "level", 0, "scenario.level must be in (0, 1), not 0.0"),
    ("simulate", "scenario", "seed", -1, "scenario.seed must be at least 0, not -1"),
    ("simulate", "scenario", "replicates", 1, "scenario.replicates must be at least 2, not 1"),
    ("simulate", "scenario", "noise_sd", -0.5, "scenario.noise_sd must be finite and at least 0, not -0.5"),
    ("simulate", "scenario", "noise_sd", float("nan"), "scenario.noise_sd must be finite and at least 0, not nan"),
    ("simulate", "scenario", "noise_sd", float("inf"), "scenario.noise_sd must be finite and at least 0, not inf"),
    ("simulate", None, "max_workers", None, "max_workers must be an integer, not None"),
    ("simulate", None, "parallel", True, "config section top level: unknown key 'parallel'"),
    ("simulate", None, "scenario", None, "config section scenario: must be a mapping, not None"),
], ids=["points-item", "variances-kind", "prob_points-item", "var_pairs-item", "points-scalar", "points-mapping",
        "analysis-fit_method", "scenario-fit_method", "sample_a-number", "covariate-kind-list",
        "n_population-0", "n_population-negative", "output_dir-empty", "sample_a-empty", "sample_b-empty", "level-1",
        "level-nan", "simulate-output_dir-empty", "max_workers-0", "sample_a_size-0", "scenario-level-0",
        "seed-negative", "replicates-1", "noise_sd-negative", "noise_sd-nan", "noise_sd-inf", "max_workers-null",
        "parallel-removed", "scenario-null"])
def test_a_malformed_value_is_validation_error_naming_its_key(tmp_path, monkeypatch, capsys, empty_cwd, mode, section,
                                                              key, value, message):
    # the config is rejected as it loads: no sample is read, no replicate runs and no file is written
    for name in ("read_samples", "run_replications"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    path = edited_config(tmp_path, mode, section, lambda target: target.__setitem__(key, value))
    assert main([mode, "--config", str(path)]) == 2
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not list(empty_cwd.iterdir()) and not (tmp_path / "out").exists() and not (tmp_path / "sim").exists()


@pytest.mark.parametrize("mode", ["estimate", "simulate"])
def test_an_empty_output_dir_override_is_validation_error(tmp_path, capsys, empty_cwd, mode):
    path = edited_config(tmp_path, mode, None, lambda cfg: None)
    assert main([mode, "--config", str(path), "--output-dir", ""]) == 2
    assert "validation error: output_dir must be a path, not ''" in capsys.readouterr().err
    assert not list(empty_cwd.iterdir())


# YAML values of the wrong kind for almost every config setting
MALFORMED_VALUES = (None, [], {}, "x", "", True, -1, 0, 2.5, float("inf"), float("nan"), [1], ["x"], {"a": 1},
                    [[1, 2]], [{"a": 1}], "1.0e-3")


@pytest.mark.parametrize("mode", ["estimate", "simulate"])
def test_every_malformed_value_in_a_shipped_config_is_named_by_its_key(tmp_path, monkeypatch, capsys, empty_cwd, mode):
    """Each key and list item of a shipped config, set to each of ``MALFORMED_VALUES`` in turn, loads, or raises a
    ValidationError whose message names the key at least by its last part (list positions left out). A typing
    error names the whole dotted key (the cases above); a rule that a section checks across its keys, such as a
    coefficient list's length against ``covariates``, names the field. Any other exception fails the test.

    Each estimate edit that loads then runs on the data of ``scripts/make_example_data.py``, in the working
    directory the shipped config's relative paths read from. It exits 0, 3, or 4 for an input file that does not
    exist; never 2, which after a load is a config error found once the samples are read. It writes no file
    outside the directory its ``output_dir`` names, which is not the working directory itself."""
    loader, dumper = getattr(yaml, "CSafeLoader", yaml.SafeLoader), getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    monkeypatch.setattr(cli.yaml, "safe_load", functools.partial(yaml.load, Loader=loader))  # libyaml, for speed
    root = Path(__file__).resolve().parents[1]
    base = yaml.safe_load((root / "configs" / f"{mode}_example.yaml").read_bytes())
    if mode == "estimate":
        subprocess.run([sys.executable, str(root / "scripts" / "make_example_data.py"), "data"],
                       capture_output=True, env=package_env(), check=True)
    config, unnamed, misran = tmp_path / "config.yaml", [], []
    for path in key_paths(base):
        key = ".".join(part for part in path if isinstance(part, str))
        for value in MALFORMED_VALUES:
            cfg = copy.deepcopy(base)
            functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
            config.write_text(yaml.dump(cfg, Dumper=dumper))
            try:
                load_config(config, mode)
            except ValidationError as exc:
                if not re.search(rf"\b{key.rpartition('.')[2]}\b", str(exc)):
                    unnamed.append((key, value, str(exc)))
                continue
            if mode == "estimate":
                code, err = main([mode, "--config", str(config)]), capsys.readouterr().err
                files = (p.relative_to(empty_cwd) for p in empty_cwd.rglob("*") if p.is_file())
                written = [p for p in files if p.parts[0] != "data"]
                named = all(p.parent != Path(".") and p.is_relative_to(cfg["output_dir"]) for p in written)
                if not (code in (0, 3) or code == 4 and "No such file or directory" in err) or not named:
                    misran.append((key, value, code, err, written))
                for entry in empty_cwd.iterdir():
                    if entry.name != "data":
                        shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    assert not unnamed
    assert not misran


def test_a_value_error_from_a_bug_in_config_parsing_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "config_value", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["estimate", "--config", str(estimate_config(tmp_path, make_observed(seed=80)))])


@pytest.mark.parametrize("mode", ["estimate", "simulate"])
def test_config_that_is_not_a_mapping_is_validation_error(tmp_path, capsys, mode):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump([{"mode": mode}]))
    assert main([mode, "--config", str(path)]) == 2
    assert "validation error: config file must hold a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1.5, -0.2])
def test_bernoulli_probability_outside_the_unit_interval_is_validation_error(tmp_path, capsys, p):
    # such a p gives a constant column and a singular fit in every replicate: a config error, not exit 3
    path = edited_config(tmp_path, "simulate", "scenario.covariates.0",
                         lambda target: target.update(kind="bernoulli", params=[p]))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "describe no distribution" in capsys.readouterr().err


@pytest.mark.parametrize("mode, section, key", [
    ("estimate", "estimators.variances.0", "kind"),
    ("estimate", "inputs", "n_population"),
    ("simulate", "scenario", "covariates"),
    ("simulate", "scenario.covariates.0", "kind"),
    ("simulate", None, "scenario"),
])
def test_missing_config_key_names_section_and_key(tmp_path, capsys, mode, section, key):
    path = edited_config(tmp_path, mode, section, lambda target: target.pop(key))
    assert main([mode, "--config", str(path)]) == 2
    name = "top level" if section is None else section.removesuffix(".0")
    assert f"validation error: config section {name}: missing key '{key}'" in capsys.readouterr().err


def test_key_error_from_a_bug_propagates(tmp_path, monkeypatch):
    def broken(config, observed):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "build_estimate_report", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["estimate", "--config", str(estimate_config(tmp_path, make_observed(seed=80)))])


@pytest.mark.parametrize("config_workers, flags, pools", [
    (2, [], [2]),
    (1, [], []),
    (None, [], []),
    (2, ["--workers", "1"], []),
    (2, ["--workers", "3"], [3]),
    # a whole-number float is an integer setting, as scenario.replicates: 20.0 is
    (2.0, [], [2]),
], ids=["config-2", "config-1", "unset", "flag-1", "flag-3-over-config-2", "config-2.0"])
def test_the_worker_count_sizes_the_pool(tmp_path, pool_sizes, config_workers, flags, pools):
    def set_workers(cfg):
        if config_workers is not None:
            cfg["max_workers"] = config_workers

    path = edited_config(tmp_path, "simulate", None, set_workers)
    assert main(["simulate", "--config", str(path)] + flags) == 0
    assert pool_sizes == pools
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["max_workers"] == (pools or [1])[0] and type(manifest["max_workers"]) is int
    assert "parallel" not in manifest


def test_the_removed_parallel_flag_exits_2_naming_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(simulate_config(tmp_path)), "--parallel"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_config_with_invalid_utf8_is_io_error(tmp_path, capsys):
    path = simulate_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    assert main(["simulate", "--config", str(path)]) == 4
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("junk", [b"\xe9"], ids=["invalid-utf8"])
def test_unreadable_csv_bytes_are_io_error(tmp_path, capsys, junk):
    config = estimate_config(tmp_path, make_observed(seed=82))
    path = tmp_path / "sample_b.csv"
    lines = path.read_bytes().split(b"\n")
    lines[5] = lines[5][:4] + junk + lines[5][4:]
    path.write_bytes(b"\n".join(lines))
    assert main(["estimate", "--config", str(config)]) == 4
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("workers, message", [
    ("0", "validation error: max_workers must be at least 1, not 0"),
    ("-1", "validation error: max_workers must be at least 1, not -1"),
    ("two", "argument --workers: invalid int value: 'two'"),
    ("x", "argument --workers: invalid int value: 'x'"),
    ("2.0", "argument --workers: invalid int value: '2.0'"),
], ids=["0", "-1", "two", "x", "2.0"])
def test_worker_option_must_be_a_positive_integer(tmp_path, capsys, workers, message):
    # a count is held to the bound of the max_workers key, which RunConfig states; text argparse cannot read
    # as an int stops as it parses
    config = simulate_config(tmp_path)
    try:
        code = main(["simulate", "--config", str(config), "--workers", workers])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert f"{message}\n" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("name, mode", [("estimate_example.yaml", "estimate"),
                                        ("simulate_example.yaml", "simulate")])
def test_example_configs_load(name, mode):
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / name, mode)
    # an estimate config carries its plan at the top, a simulate config inside its scenario
    plan = config.plan if mode == "estimate" else config.scenario.plan
    assert (config.scenario is None) == (mode == "estimate")
    assert plan.var_pairs and plan.cov_pairs and plan.pooled


def test_import_loads_no_scipy_module():
    code = "import sys, surveyblend.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), check=True)
    assert done.stdout.strip() == "[]"


def test_estimate_loads_neither_the_random_module_nor_the_process_pool(tmp_path):
    config = estimate_config(tmp_path, make_observed(seed=94))
    code = ("import sys\n"
            "from surveyblend.cli import main\n"
            "code = main(['estimate', '--config', sys.argv[1]])\n"
            "unused = ('numpy.random', 'concurrent.futures.process', 'multiprocessing')\n"
            "print(code, [m for m in unused if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code, str(config)], capture_output=True, text=True,
                          env=package_env(), check=True)
    assert done.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "report.json").exists()


# ---------------------------------------------------------------------------
# Exit-code contract under malformed input

WRONG_VALUES = ("text", "0.9", 1.5, -1, True, [1], {"key": 1})
# Bytes no reader takes, a quote, a line longer than csv's default field limit, and every whitespace class
# the readers strip: a file separator, a tab, a no-break space and an ideographic space.
CSV_JUNK = (b"\xff", b"\xc3(", b"\x00", b'"', b"1" * 140_000,
            b"\x1c", b"\x1f", b"\t", b"\xc2\xa0", b"\xe3\x80\x80")
FUZZ_POPULATION = 760


def fuzz_configs(directory):
    """A small estimate config reading the sample CSVs in ``directory``, and a small simulate config."""
    estimate = {
        "mode": "estimate", "output_dir": "out", "level": 0.9,
        "inputs": {"sample_a": str(directory / "sample_a.csv"), "sample_b": str(directory / "sample_b.csv"),
                   "n_population": FUZZ_POPULATION},
        "design": {"kind": "poisson"},
        "analysis": {"fit_method": "pseudo_ml", "outcome_family": "linear_gaussian", "outcome_cols": [1, 2],
                     "sigma_model": "constant"},
        "estimators": {"points": ["HT", "DR1"], "variances": [{"kind": "DR1", "regime": "both_correct"}],
                       "covariances": [{"kind": "DR1", "regime": "both_correct", "prob": "HT"}],
                       "pooled": [{"kind": "DR1", "regime": "both_correct", "prob": "Hajek"}]},
    }
    simulate = {
        "mode": "simulate", "output_dir": "out", "max_workers": 1,
        "scenario": {"n_population": 300, "covariates": [{"kind": "normal", "params": [0.0, 1.0]},
                                                          {"kind": "uniform", "params": [0.0, 1.0]}],
                     "beta_true": [1.0, 1.0, 0.5], "alpha_true": [-1.0, 0.4, 0.2], "sample_a_size": 60,
                     "pi_a_coef": [0.0, 0.3, 0.0], "noise_sd_coef": [1.0, 0.1, 0.0],
                     "outcome_cols_override": [0, 1], "design_kind": "poisson", "fit_method": "pseudo_ml",
                     "replicates": 3, "level": 0.9, "seed": 5,
                     "plan": {"prob_points": ["HT"], "var_pairs": [["DR1", "both_correct"]],
                              "cov_pairs": [["DR1", "both_correct", "HT"]],
                              "pooled": [["DR2", "both_correct", "Hajek"]]}},
    }
    return {"estimate": estimate, "simulate": simulate}


def key_paths(node, prefix=()):
    """The path of every dict entry and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutated_csv(data, content: bytes) -> bytes:
    """``content`` with one line truncated, one field made non-numeric, or junk bytes inserted."""
    lines = content.split(b"\n")
    k = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["truncate", "non_numeric", "junk"]))
    cut = data.draw(st.integers(0, len(lines[k])))
    if how == "truncate":
        lines[k] = lines[k][:cut]
    elif how == "non_numeric":
        fields = lines[k].split(b",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = b"abc"
        lines[k] = b",".join(fields)
    else:
        lines[k] = lines[k][:cut] + data.draw(st.sampled_from(CSV_JUNK)) + lines[k][cut:]
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory with the sample CSVs (about 400 rows in sample A)."""
    directory = tmp_path_factory.mktemp("fuzz_inputs")
    write_sample_csvs(make_observed(seed=89, n_population=FUZZ_POPULATION), directory)
    return directory


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_malformed_input_maps_to_a_documented_exit_code(tmp_path_factory, fuzz_inputs, data):
    directory = tmp_path_factory.mktemp("fuzz")
    mode = data.draw(st.sampled_from(["estimate", "simulate"]))
    cfg = fuzz_configs(directory)[mode]
    for _ in range(data.draw(st.integers(1, 2))):
        how = data.draw(st.sampled_from(["drop", "null", "wrong", "unknown"]))
        # Without its replicate count a scenario runs the default 1000 replicates: valid, only slow.
        paths = [p for p in key_paths(cfg) if how != "drop" or p[-1] != "replicates"]
        if how == "unknown":
            paths = [p for p in paths if isinstance(functools.reduce(operator.getitem, p, cfg), dict)] + [()]
        path = data.draw(st.sampled_from(paths))
        target = functools.reduce(operator.getitem, path[:-1], cfg)
        if how == "drop":
            del target[path[-1]]
        elif how == "null":
            target[path[-1]] = None
        elif how == "wrong":
            target[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(WRONG_VALUES)))
        else:
            functools.reduce(operator.getitem, path, cfg)["surplus"] = 1
    files = {name: (fuzz_inputs / name).read_bytes() for name in ("sample_a.csv", "sample_b.csv")}
    if mode == "estimate" and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(sorted(files)))
        files[name] = mutated_csv(data, files[name])
    for name, content in files.items():
        (directory / name).write_bytes(content)
    config = directory / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    # The override keeps a config whose output_dir was dropped from writing to the working directory.
    assert main([mode, "--config", str(config), "--output-dir", str(directory / "out")]) in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# Sample CSV ingestion and export

SAMPLE_A = ["id,x_1,pi_a,y", "1,0.5,0.25,1.5", "2,-1.25,0.5,2", "3,2,0.125,-0.75", "4,0.75,1,3.5"]
SAMPLE_B = ["id,x_1,y", "1,0.25,1", "2,-0.5,2.5", "3,1.5,-1", "4,3,0.5"]
SAMPLE_B_ARRAYS = {"x_b": [0.25, -0.5, 1.5, 3.0], "y_b": [1.0, 2.5, -1.0, 0.5]}


def samples_config(directory, n_population=FUZZ_POPULATION, design=DesignKind.POISSON):
    """A RunConfig reading ``sample_a.csv`` and ``sample_b.csv`` in ``directory``."""
    return cli.RunConfig(output_dir=directory / "out", sample_a_path=directory / "sample_a.csv",
                         sample_b_path=directory / "sample_b.csv", n_population=n_population, design=design)


def read_outcome(config):
    """The arrays ``read_samples`` returns, or the type and message of the error it raises."""
    try:
        observed = read_samples(config)
    except (cli.CsvParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return {name: getattr(observed, name) for name in ("x_a", "pi_a", "y_a", "x_b", "y_b")}


def bitwise(outcome):
    """A ``read_outcome`` result with each array as its shape and bytes, so that == compares values bit for bit."""
    if isinstance(outcome, tuple):
        return outcome
    return {k: None if v is None else (v.shape, v.tobytes()) for k, v in outcome.items()}


# Inputs on which a bulk parse and the row scanner could part ways. The
# expected arrays, or error and message, are what the row scanner alone gives.
CSV_CASES = [
    ("sample_b.csv", lambda lines: [lines[0]] + [line + ",7" for line in lines[1:]],
     (cli.CsvParseError, "{path} line 2: expected 3 fields, got 4")),
    ("sample_b.csv", lambda lines: lines[:2] + ["2,-0.5,2.5,7"] + lines[3:],
     (cli.CsvParseError, "{path} line 3: expected 3 fields, got 4")),
    ("sample_b.csv", lambda lines: [lines[0], '"1,0.25,1', '2",-0.5,2.5'] + lines[3:],
     {"x_b": [-0.5, 1.5, 3.0], "y_b": [2.5, -1.0, 0.5]}),
    ("sample_b.csv", lambda lines: ['"id', '",x_1,y'] + lines[1:], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: lines[:2] + ["2," + "1" * 200_000 + ",2.5"] + lines[3:],
     (ValidationError, "{path} line 3: non-finite covariate in sample B")),
    ("sample_b.csv", lambda lines: lines[:2] + ["   "] + lines[2:],
     (cli.CsvParseError, "{path} line 3: expected 3 fields, got 1")),
    ("sample_b.csv", lambda lines: lines[:2] + ["", ""] + lines[2:] + [""], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: ["\r".join(lines)], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: [lines[0]] + ["abcd"[i] + line[1:] for i, line in enumerate(lines[1:])],
     SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: [lines[0], "1\x00" + lines[1][1:]] + lines[2:], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: lines[:2] + ["2,1_0,2.5"] + lines[3:],
     {"x_b": [0.25, 10.0, 1.5, 3.0], "y_b": SAMPLE_B_ARRAYS["y_b"]}),
    ("sample_b.csv", lambda lines: lines[:2] + ['2,"-0.5",2.5'] + lines[3:], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: lines[:2] + ["2,\x1c-0.5,2.5"] + lines[3:], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: [lines[0], "", ""],
     (cli.CsvParseError, "{path}: no data rows")),
    ("sample_a.csv", lambda lines: lines[:3] + ["", "3,2,1.5,-0.75"] + lines[4:],
     (ValidationError, "{path} line 5: inclusion probability 1.5 outside (0, 1] in sample A")),
    ("sample_b.csv", lambda lines: [lines[0], '"1', '",0.5,1.0', "2,0.5,1.0", "3,0.5,1.0", "4,abc,1.0"],
     (cli.CsvParseError, "{path} line 6: could not convert string to float: 'abc'")),
    ("sample_a.csv", lambda lines: [lines[0], '"1', '",0.5,0.25,1.5', lines[2], "3,2,1.5,-0.75", lines[4]],
     (ValidationError, "{path} line 5: inclusion probability 1.5 outside (0, 1] in sample A")),
    ("sample_b.csv", lambda lines: [lines[0] + ",w"] + [line + ",7" for line in lines[1:]],
     (cli.CsvParseError, "{path} line 1: trailing columns ['y', 'w'] do not match ['y'] (+ optional [])")),
    ("sample_b.csv", lambda lines: ["id,x_2,y"] + lines[1:],
     (cli.CsvParseError, "{path} line 1: expected covariate columns x_1..x_p")),
    ("sample_b.csv", lambda lines: ["\ufeff" + lines[0]] + lines[1:], SAMPLE_B_ARRAYS),
    ("sample_b.csv", lambda lines: lines[:2] + ["2,\ufeff-0.5,2.5"] + lines[3:],
     (cli.CsvParseError, "{path} line 3: could not convert string to float: '\\ufeff-0.5'")),
    # 1/pi_a overflows, which numpy once warned of in the selection fit (exit 1 under error::RuntimeWarning)
    ("sample_a.csv", lambda lines: lines[:3] + ["3,2,1e-320,-0.75"] + lines[4:],
     (ValidationError, f"{{path}} line 4: inclusion probability {1e-320:g} too small to invert in sample A")),
    # validate's row rules, each named by its file and line
    ("sample_a.csv", lambda lines: lines[:4] + ["4,nan,1,3.5"],
     (ValidationError, "{path} line 5: non-finite covariate in sample A")),
    ("sample_b.csv", lambda lines: lines[:3] + ["3,1.5,inf"] + lines[4:],
     (ValidationError, "{path} line 4: non-finite outcome on sample B")),
    ("sample_a.csv", lambda lines: lines[:2] + ["2,-1.25,0.5,nan"] + lines[3:],
     (ValidationError, "{path} line 3: non-finite outcome on sample A")),
    # every pi_a of an SRSWOR sample of 4 from 100 is 0.04
    ("sample_a.csv", lambda lines: [lines[0], "1,0.5,0.04,1.5", "2,-1.25,0.04,2", "3,2,0.05,-0.75", "4,0.75,0.04,3.5"],
     (ValidationError, "{path} line 4: SRSWOR inclusion probability 0.05 in sample A must be n/N = 4/100"),
     DesignKind.SRSWOR),
]
CSV_CASE_IDS = ["extra-field-every-row", "extra-field-one-row", "quote-in-id-spans-lines", "quoted-header-spans-lines",
                "field-over-csv-limit", "whitespace-only-line", "blank-lines", "cr-newlines", "text-ids", "nul-in-id",
                "underscore-digits", "quoted-number", "file-separator-byte", "no-data-rows", "pi_a-after-blank-line",
                "bad-field-after-line-break-in-quotes", "pi_a-after-line-break-in-quotes", "unknown-trailing-column",
                "no-x_1-column", "bom-at-file-start", "bom-inside-the-file", "subnormal-pi_a", "nan-covariate-on-a",
                "inf-outcome-on-b", "nan-outcome-on-a", "srswor-pi_a-off-n-over-n"]
SAMPLE_A_CASES = [(case, case_id) for case, case_id in zip(CSV_CASES, CSV_CASE_IDS) if case[0] == "sample_a.csv"]


# Sample A's cases also run through the forked reader, with the size floor at 0. A case reads a Poisson design
# unless it names another.
@pytest.mark.parametrize("case, forked",
                         [(case, False) for case in CSV_CASES] + [(case, True) for case, _ in SAMPLE_A_CASES],
                         ids=CSV_CASE_IDS + [f"{case_id}-forked" for _, case_id in SAMPLE_A_CASES])
def test_csv_inputs_read_as_the_row_scanner_reads_them(tmp_path, monkeypatch, case, forked):
    name, edit, expected, design = (*case, DesignKind.POISSON)[:4]
    if forked:
        monkeypatch.setattr(cli, "_FORK_FLOOR", 0)
    files = {"sample_a.csv": SAMPLE_A, "sample_b.csv": SAMPLE_B}
    files[name] = edit(files[name])
    for file_name, lines in files.items():
        (tmp_path / file_name).write_text("\n".join(lines) + "\n", newline="")
    config = samples_config(tmp_path, n_population=100, design=design)
    got = read_outcome(config)
    if isinstance(expected, tuple):
        assert got == (expected[0], expected[1].format(path=tmp_path / name))
    else:
        assert got["x_a"][:, 1].tolist() == [0.5, -1.25, 2.0, 0.75]
        assert (got["x_b"][:, 1].tolist(), got["y_b"].tolist()) == (expected["x_b"], expected["y_b"])
    monkeypatch.setattr(cli, "_bulk_rows", lambda path, width: None)
    assert bitwise(read_outcome(config)) == bitwise(got)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bulk_parse_matches_the_row_scanner(tmp_path_factory, fuzz_inputs, data):
    directory = tmp_path_factory.mktemp("differential")
    files = {name: (fuzz_inputs / name).read_bytes() for name in ("sample_a.csv", "sample_b.csv")}
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(sorted(files)))
        files[name] = mutated_csv(data, files[name])
    for name, content in files.items():
        (directory / name).write_bytes(content)
    config = samples_config(directory)
    # One bulk read in eight goes through the forked reader (size floor 0): a fork of the test process
    # costs about 20 ms, ten times a read of these files in process.
    forked = data.draw(st.sampled_from((False,) * 7 + (True,)))
    with mock.patch.object(cli, "_FORK_FLOOR", 0 if forked else cli._FORK_FLOOR):
        bulk = read_outcome(config)
    with mock.patch.object(cli, "_bulk_rows", lambda path, width: None):
        scanner = read_outcome(config)
    assert bitwise(bulk) == bitwise(scanner)


# Files the bulk parse takes whole: line endings, and every class of whitespace the two readers strip around
# a number, among them the bytes 0x1c-0x1f and a field over csv's default size limit.
BULK_HEAD = b"id,x_1,y\n1,0.25,1\n"
BULK_FILES = {
    "crlf-lines": BULK_HEAD.replace(b"\n", b"\r\n") + b"2,-0.5,2.5\r\n",
    "no-trailing-newline": BULK_HEAD + b"2,-0.5,2.5",
    **{f"byte-{byte:#x}": BULK_HEAD + b"2," + bytes([byte]) + b"-0.5" + bytes([byte]) + b",2.5\n"
       for byte in range(0x1C, 0x20)},
    "tab": BULK_HEAD + b"2,\t-0.5\t,2.5\n",
    "no-break-space": BULK_HEAD + b"2,\xc2\xa0-0.5\xc2\xa0,2.5\n",
    "ideographic-space": BULK_HEAD + b"2,\xe3\x80\x80-0.5\xe3\x80\x80,2.5\n",
    "field-over-csv-limit": BULK_HEAD + b"2,-0.5" + b"0" * 200_000 + b",2.5\n",
}


@pytest.mark.parametrize("content", BULK_FILES.values(), ids=BULK_FILES.keys())
def test_bulk_parse_takes_the_table_the_row_scanner_reads(tmp_path, content):
    path = tmp_path / "sample_b.csv"
    path.write_bytes(content)
    bulk = cli._bulk_rows(path, 3)
    assert bulk is not None
    linenos, scanned = cli._scan_rows(path, ("y",), ())
    assert linenos == [2, 3]
    assert scanned[:, 1:].tolist() == [[0.25, 1.0], [-0.5, 2.5]]
    assert bulk[:, 1:].tobytes() == scanned[:, 1:].tobytes()


@pytest.mark.parametrize("content", [b"id,x_1,y\n", b"id,x_1,y"], ids=["header-only", "header-only-without-newline"])
def test_no_data_rows_leave_the_bulk_parse_to_the_row_scanner(tmp_path, content):
    path = tmp_path / "sample_b.csv"
    path.write_bytes(content)
    assert cli._bulk_rows(path, 3) is None
    with pytest.raises(cli.CsvParseError, match="no data rows"):
        cli._scan_rows(path, ("y",), ())


@pytest.mark.parametrize("content", [b"id\n1\n", b"id\n\xff\n"], ids=["read", "decoding-error"])
def test_csv_reader_restores_the_field_size_limit(tmp_path, content):
    path = tmp_path / "sample_b.csv"
    path.write_bytes(content)
    before = csv.field_size_limit()
    try:
        with cli._csv_reader(path) as reader:
            assert csv.field_size_limit() == 2**31 - 1
            list(reader)
    except cli.CsvParseError:
        assert content == b"id\n\xff\n"
    assert csv.field_size_limit() == before


def test_read_samples_holds_each_sample_about_once(tmp_path, monkeypatch):
    observed = make_observed(seed=93, n_x=4, n_population=56_000)  # about 50k rows in the two samples
    write_sample_csvs(observed, tmp_path)
    config = samples_config(tmp_path, n_population=observed.n_population)
    # Both files are over the default size floor: an infinite floor reads them in process, 0 forks.
    for floor in (math.inf, 0):
        monkeypatch.setattr(cli, "_FORK_FLOOR", floor)
        tracemalloc.start()
        try:
            got = read_samples(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(got, name).nbytes for name in ("x_a", "pi_a", "y_a", "x_b", "y_b"))
        assert peak <= 2.5 * kept, floor


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked_io(monkeypatch):
    """The size floor at 0, so that every read and every export forks; afterwards no child may be left."""
    monkeypatch.setattr(cli, "_FORK_FLOOR", 0)
    yield
    assert_no_child()


BAD_FLOAT = "could not convert string to float: 'abc'"
BAD_LINE_3 = {"sample_a.csv": "2,abc,0.5,2", "sample_b.csv": "2,abc,2.5"}


@pytest.mark.parametrize("bad, expected", [
    (("sample_a.csv",), (cli.CsvParseError, "{dir}/sample_a.csv line 3: " + BAD_FLOAT)),
    (("sample_b.csv",), (cli.CsvParseError, "{dir}/sample_b.csv line 3: " + BAD_FLOAT)),
    (("sample_a.csv", "sample_b.csv"), (cli.CsvParseError, "{dir}/sample_a.csv line 3: " + BAD_FLOAT)),
], ids=["a", "b", "both"])
def test_forked_read_raises_the_error_the_in_process_read_raises(tmp_path, forked_io, bad, expected):
    for name, lines in (("sample_a.csv", SAMPLE_A), ("sample_b.csv", SAMPLE_B)):
        lines = lines[:2] + [BAD_LINE_3[name]] + lines[3:] if name in bad else lines
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert read_outcome(samples_config(tmp_path)) == (expected[0], expected[1].format(dir=tmp_path))


def test_forked_read_matches_the_read_without_fork(tmp_path, monkeypatch, forked_io):
    write_sample_csvs(make_observed(seed=95), tmp_path)
    config = samples_config(tmp_path)
    forked = read_outcome(config)
    monkeypatch.delattr(os, "fork")
    alone = read_outcome(config)
    assert {k: v.tobytes() for k, v in forked.items()} == {k: v.tobytes() for k, v in alone.items()}


def replace_read(monkeypatch, name, act):
    """Make the reader call ``act()`` in place of parsing the sample file ``name``; the other reads as before."""
    read_rows = cli._read_rows

    def reader(path, *tails):
        return act() if path.name == name else read_rows(path, *tails)

    monkeypatch.setattr(cli, "_read_rows", reader)


def raise_(exc):
    raise exc


def test_key_error_in_the_forked_reader_propagates(tmp_path, monkeypatch, forked_io):
    replace_read(monkeypatch, "sample_a.csv", lambda: raise_(KeyError("bug")))
    with pytest.raises(KeyError, match="bug"):
        main(["estimate", "--config", str(estimate_config(tmp_path, make_observed(seed=80)))])


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


def test_an_error_the_reader_cannot_send_arrives_as_its_repr(tmp_path, monkeypatch, forked_io):
    replace_read(monkeypatch, "sample_a.csv", lambda: raise_(Unpicklable("lost")))
    write_sample_csvs(make_observed(seed=96), tmp_path)
    with pytest.raises(RuntimeError, match=r"^Unpicklable\('lost'\)$"):
        read_samples(samples_config(tmp_path))


def test_a_reader_that_dies_is_an_io_error_naming_sample_a(tmp_path, monkeypatch, capsys, forked_io):
    replace_read(monkeypatch, "sample_a.csv", lambda: os._exit(3))
    assert main(["estimate", "--config", str(estimate_config(tmp_path, make_observed(seed=80)))]) == 4
    assert capsys.readouterr().err == (f"input/output error: {tmp_path / 'sample_a.csv'}: the reader process "
                                       "ended without a result (exit code 3)\n")


def test_an_interrupt_while_reading_sample_b_kills_the_reader(tmp_path, monkeypatch, forked_io):
    replace_read(monkeypatch, "sample_b.csv", lambda: raise_(KeyboardInterrupt()))
    write_sample_csvs(make_observed(seed=96), tmp_path)
    with pytest.raises(KeyboardInterrupt):
        read_samples(samples_config(tmp_path))


def reference_sample_csvs(observed, directory):
    """The csv.writer export that ``write_sample_csvs`` replaced, kept as its byte reference."""
    p = observed.n_covariates - 1
    with open(directory / "sample_a.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x_{j}" for j in range(1, p + 1)] + ["pi_a"]
                        + (["y"] if observed.y_a is not None else []))
        for i in range(observed.n_a):
            row = [str(i + 1)] + [cli._fmt(v) for v in observed.x_a[i, 1:]] + [cli._fmt(observed.pi_a[i])]
            if observed.y_a is not None:
                row.append(cli._fmt(observed.y_a[i]))
            writer.writerow(row)
    with open(directory / "sample_b.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x_{j}" for j in range(1, p + 1)] + ["y"])
        for i in range(observed.n_b):
            writer.writerow([str(i + 1)] + [cli._fmt(v) for v in observed.x_b[i, 1:]] + [cli._fmt(observed.y_b[i])])


def assert_export_matches_the_csv_writer(monkeypatch, observed, directory):
    """``write_sample_csvs`` writes the reference bytes both in process and with every export forked."""
    (directory / "reference").mkdir()
    reference_sample_csvs(observed, directory / "reference")
    for floor in (math.inf, 0):
        monkeypatch.setattr(cli, "_FORK_FLOOR", floor)
        write_sample_csvs(observed, directory / f"floor-{floor}")
        for name in ("sample_a.csv", "sample_b.csv"):
            assert (directory / f"floor-{floor}" / name).read_bytes() \
                == (directory / "reference" / name).read_bytes(), (floor, name)
    assert_no_child()


@pytest.mark.parametrize("y_on_a", [True, False])
def test_sample_csv_export_bytes_match_the_csv_writer(tmp_path, monkeypatch, y_on_a):
    base = make_observed(seed=90, y_on_a=y_on_a)
    # values that need all 17 digits, signed zeros and extremes; no valid ObservedData holds a non-finite one
    special = [-0.0, 0.1 + 0.2, 1 / 3, -2 / 3, 1e-300, 5e-324, 1.7976931348623157e308, 2.0**53 + 2, 1e22,
               123456789.12345679]
    x_a, x_b, y_b = base.x_a.copy(), base.x_b.copy(), base.y_b.copy()
    x_a[:len(special), 1] = special
    x_b[:len(special), 2] = special[::-1]
    y_b[:len(special)] = special
    pi_a = base.pi_a.copy()
    pi_a[:3] = [0.30000000000000004, 1.0, SMALLEST_PI_A]
    observed = ObservedData(n_population=base.n_population, design=base.design, x_a=x_a, pi_a=pi_a,
                            y_a=None if base.y_a is None else -base.y_a, x_b=x_b, y_b=y_b)
    assert_export_matches_the_csv_writer(monkeypatch, observed, tmp_path)


def test_sample_csv_export_matches_the_csv_writer_across_a_block_of_rows(tmp_path, monkeypatch):
    # The export formats 8192 rows at a time; both samples here are longer, with odd values on the seam.
    base = make_observed(seed=91, n_population=30_000)
    assert base.n_a > 8192 and base.n_b > 8192
    x_a, y_b = base.x_a.copy(), base.y_b.copy()
    x_a[8190:8194, 1] = [-0.0, 5e-324, 0.1 + 0.2, 1e22]
    y_b[8190:8194] = [1 / 3, -0.0, 2.0**53 + 2, -2 / 3]
    observed = ObservedData(n_population=base.n_population, design=base.design, x_a=x_a, pi_a=base.pi_a,
                            y_a=base.y_a, x_b=base.x_b, y_b=y_b)
    assert_export_matches_the_csv_writer(monkeypatch, observed, tmp_path)


# With blocks of 4 rows and one covariate, sample A's rows hold 4 values (id, x_1, pi_a, y) and B's 3. The
# export cuts at the block boundary nearest the middle value, forked or not: (sample, 0-based row) on either side.
@pytest.mark.parametrize("n_a, n_b, before, after", [
    (12, 4, ("a", 7), ("a", 8)),  # blocks of 16, 16, 16 | 12 values: the cut after 32 of 60
    (4, 4, ("a", 3), ("b", 0)),  # 16 | 12: the only boundary
    (4, 12, ("b", 3), ("b", 4)),  # 16 | 12, 12, 12: the cut after 28 of 52
], ids=["inside-a", "between-a-and-b", "inside-b"])
def test_forked_export_cut_keeps_the_bytes(tmp_path, monkeypatch, n_a, n_b, before, after):
    rng = np.random.default_rng(97)
    columns = {side: {"x": np.column_stack([np.ones(n), rng.normal(size=n)]), "y": rng.normal(size=n)}
               for side, n in (("a", n_a), ("b", n_b))}
    pi_a = rng.uniform(0.15, 0.9, n_a)
    for (side, row), (x_1, y) in ((before, (-0.0, 1e22)), (after, (5e-324, -0.0))):
        columns[side]["x"][row, 1], columns[side]["y"][row] = x_1, y
        if side == "a":
            pi_a[row] = SMALLEST_PI_A
    observed = ObservedData(n_population=100, design=DesignKind.POISSON, x_a=columns["a"]["x"],
                            pi_a=pi_a, y_a=columns["a"]["y"], x_b=columns["b"]["x"], y_b=columns["b"]["y"])
    monkeypatch.setattr(cli, "_EXPORT_BLOCK", 4)
    rests = {}
    forked = cli._forked

    def spy(work, path, role, fork):
        rows = "".join(work()).splitlines()  # the rows after the cut, which the yielded result() returns
        rests[fork] = (path.name, rows[0].split(",")[0], len(rows))
        return forked(work, path, role, fork)

    monkeypatch.setattr(cli, "_forked", spy)
    assert_export_matches_the_csv_writer(monkeypatch, observed, tmp_path)
    # (file, id of its first row, row count) of the rows after the cut: every row after `before`, from `after`
    # on, in process and forked alike; ids count from 1
    order = {"a": 0, "b": n_a}
    rest = (f"sample_{after[0]}.csv", str(after[1] + 1), n_a + n_b - 1 - order[before[0]] - before[1])
    assert rests == {False: rest, True: rest}


def test_a_sample_b_that_is_a_directory_fails_the_forked_export_as_it_fails_in_process(tmp_path, monkeypatch):
    observed = make_observed(seed=96)
    raised = {}
    for floor in (math.inf, 0):
        monkeypatch.setattr(cli, "_FORK_FLOOR", floor)
        directory = tmp_path / f"floor-{floor}"
        (directory / "sample_b.csv").mkdir(parents=True)
        with pytest.raises(OSError) as info:
            write_sample_csvs(observed, directory)
        raised[floor] = (type(info.value), info.value.errno, info.value.filename,
                         (directory / "sample_a.csv").read_bytes())
    assert raised[0][:2] == raised[math.inf][:2] == (IsADirectoryError, errno.EISDIR)
    assert raised[0][2:] == (str(tmp_path / "floor-0" / "sample_b.csv"), raised[math.inf][3])
    assert_no_child()


def format_in_child(monkeypatch, act):
    """Make the export's forked child call ``act()`` in place of formatting; this process formats as before."""
    format_block, parent = cli._format_block, os.getpid()

    def formatter(block):
        return format_block(block) if os.getpid() == parent else act()

    monkeypatch.setattr(cli, "_format_block", formatter)


def test_an_export_child_that_dies_fails_the_export_and_leaves_no_short_file(tmp_path, monkeypatch, forked_io):
    observed = make_observed(seed=96)
    format_in_child(monkeypatch, lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match=r"^.*/sample_b\.csv: the writer process ended without a result "
                                                r"\(exit code 3\)$"):
        write_sample_csvs(observed, tmp_path)
    # The export writes no file until it holds all of its text: neither sample file is left.
    assert not (tmp_path / "sample_a.csv").exists()
    assert not (tmp_path / "sample_b.csv").exists()


def test_an_interrupt_in_the_export_kills_the_formatting_child(tmp_path, monkeypatch, forked_io):
    parent = os.getpid()

    def formatter(block):  # the child sleeps for 60 s; this process is interrupted in its first block
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_format_block", formatter)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_sample_csvs(make_observed(seed=96), tmp_path)
    assert time.monotonic() - started < 30  # the child was killed rather than waited for


class FullDisk:
    """A text file that takes its first write and fails every later one, as a file on a disk that fills up does."""

    def __init__(self, fh, error):
        self.fh, self.error, self.writes = fh, error, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise self.error
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def output_run(tmp_path, kind, seed):
    """A run that writes the outputs of ``kind`` from data drawn with ``seed``, and their directory.

    The run's inputs, the sample CSVs an estimate reads included, are written before it is returned.
    """
    if kind == "sample-csvs":
        observed = make_observed(seed=seed)
        return lambda: write_sample_csvs(observed, tmp_path / "samples"), tmp_path / "samples"
    if kind == "estimate":
        config = load_config(estimate_config(tmp_path, make_observed(seed=seed)), "estimate")
        return lambda: cli.run_estimate(config), tmp_path / "out"
    config = load_config(simulate_config(tmp_path, replicates=3, seed=seed), "simulate")
    return lambda: cli.run_simulate(config), tmp_path / "sim"


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
@pytest.mark.parametrize("kind", ["sample-csvs", "estimate", "simulate"])
def test_a_write_that_fails_partway_leaves_the_earlier_files_whole(tmp_path, monkeypatch, kind, error):
    run, directory = output_run(tmp_path, kind, seed=97)
    run()
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    assert sorted(before) == {"sample-csvs": ["sample_a.csv", "sample_b.csv"],
                              "estimate": [".lock", "report.json", "report.txt"],
                              "simulate": [".lock", "manifest.json", "summary.csv"]}[kind]

    def full_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return FullDisk(fh, error) if "w" in mode else fh

    run, _ = output_run(tmp_path, kind, seed=98)
    monkeypatch.setattr(cli, "open", full_open, raising=False)
    with pytest.raises(type(error)):
        run()
    # No short file at an output's name, no temporary file left: each output is the earlier run's, byte for byte.
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before

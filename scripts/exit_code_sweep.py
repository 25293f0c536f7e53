#!/usr/bin/env python3
"""Run `surveyblend estimate` on one-value edits of the example CSVs and check each exit code.

The example data (scripts/make_example_data.py, seed 1) is written to a temporary directory. Each run puts one
value (1e155, +-1e300, +-1e308, the largest float, or a subnormal) into the first data row of one column of
sample_a.csv or sample_b.csv, and estimates under configs/estimate_example.yaml with each fit method and each
outcome family: 7 columns x 10 values x 3 fit methods x 2 families = 420 runs. For the logistic family, every
outcome is first thresholded to 1 above 1.0 and 0 otherwise. Each run is
`python -W error::RuntimeWarning -m surveyblend estimate`, so a numpy warning is a crash.

A documented exit code is 0, 2 (validation), 3 (solver) or 4 (I/O). A logistic run that edits a `y` column
(2 columns x 10 values x 3 fit methods = 60 runs) puts an outcome other than 0 or 1 in a binary column, so it
must exit 2. The script prints each run that exits otherwise, with the last line of its stderr, and exits 1 if
there is any. Run:
`python scripts/exit_code_sweep.py` (no options; a sweep takes about 75 s on 2 cores).
"""

import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "estimate_example.yaml"
VALUES = (1e155, 1e300, -1e300, 1e308, -1e308, sys.float_info.max, 5e-324, -5e-324, 1e-310, -1e-310)
FIT_METHODS = ("pseudo_ml", "calibration", "kim_haziza")
FAMILIES = ("linear_gaussian", "logistic_binary")
DOCUMENTED = (0, 2, 3, 4)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _config(fit_method: str, family: str) -> str:
    """The example config's text with its fit method and outcome family replaced."""
    text = re.sub(r"(?m)^(\s*fit_method:)\s*\w+", rf"\1 {fit_method}", CONFIG.read_text())
    return re.sub(r"(?m)^(\s*outcome_family:)\s*\w+", rf"\1 {family}", text)


def sweep():
    """Yield ``(family, fit_method, file, column, value, exit code, last stderr line)`` for every run."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)  # this checkout's package, installed or not
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "scripts" / "make_example_data.py"), str(work / "example")],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        data = work / "data"
        data.mkdir()
        for family in FAMILIES:
            tables = {name: _read(work / "example" / name) for name in ("sample_a.csv", "sample_b.csv")}
            if family == "logistic_binary":
                for rows in tables.values():
                    y = rows[0].index("y")
                    for row in rows[1:]:
                        row[y] = "1" if float(row[y]) > 1.0 else "0"
            for fit_method in FIT_METHODS:
                (work / "config.yaml").write_text(_config(fit_method, family))
                for name, rows in tables.items():
                    for column in range(1, len(rows[0])):  # every column but the id
                        for value in VALUES:
                            for other, other_rows in tables.items():
                                _write(data / other, other_rows)
                            edited = [list(row) for row in rows]
                            edited[1][column] = repr(value)
                            _write(data / name, edited)
                            run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "surveyblend",
                                                  "estimate", "--config", "config.yaml"],
                                                 cwd=work, env=env, capture_output=True, text=True)
                            last = (run.stderr.strip().splitlines() or [""])[-1]
                            yield family, fit_method, name, rows[0][column], value, run.returncode, last


def main() -> int:
    runs = undocumented = 0
    for family, fit_method, name, column, value, code, last in sweep():
        runs += 1
        if code not in DOCUMENTED or family == "logistic_binary" and column == "y" and code != 2:
            undocumented += 1
            print(f"{family} {fit_method} {name} {column}={value!r}: exit {code}: {last}")
    print(f"{undocumented} of {runs} runs exit outside {DOCUMENTED}, or a binary outcome's edit other than 2")
    return 1 if undocumented else 0


if __name__ == "__main__":
    sys.exit(main())

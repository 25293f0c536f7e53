"""Rules that hold for the package source and its documentation as a whole."""

import ast
import re
from pathlib import Path

from conftest import make_observed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "surveyblend"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants raise typed errors instead.
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/surveyblend: {found}"


def test_readme_quick_tour_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    observed = make_observed(seed=90, n_population=10_000)
    names = {name: getattr(observed, name) for name in ("x_a", "pi_a", "y_a", "x_b", "y_b")}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].ci_low <= names["report"].pooled_estimate <= names["report"].ci_high
    assert capsys.readouterr().out.strip()

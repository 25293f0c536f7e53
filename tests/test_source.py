"""Rules that hold for the package source and its documentation as a whole."""

import ast
import re
from pathlib import Path

from conftest import make_observed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "surveyblend"


def package_nodes():
    """(file name, node) for every syntax node of every module in the package."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants raise typed errors instead.
    found = [f"{name}:{node.lineno}" for name, node in package_nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/surveyblend: {found}"


def test_no_module_imports_scipy():
    # The runtime needs numpy and PyYAML only; scipy is the tests' oracle.
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if any(module.partition(".")[0] == "scipy" for module in imported(node))]
    assert not found, f"scipy imports in src/surveyblend: {found}"


def test_readme_quick_tour_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    observed = make_observed(seed=90, n_population=10_000)
    names = {name: getattr(observed, name) for name in ("x_a", "pi_a", "y_a", "x_b", "y_b")}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].ci_low <= names["report"].pooled_estimate <= names["report"].ci_high
    assert capsys.readouterr().out.strip()

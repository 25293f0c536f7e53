"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "surveyblend"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants raise typed errors instead.
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/surveyblend: {found}"

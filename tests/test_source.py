"""Properties of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hermlift"


def test_no_assert_statements():
    # an assert vanishes under python -O; checks in the package raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_weighted_bincount():
    # np.bincount sums weights in float64; exact sums are taken in int64
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bincount"
             and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))]
    assert found == []

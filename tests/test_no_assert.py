"""Invariants in the package must hold under `python -O`, which strips
assert statements, so the package itself uses none."""
import ast
from pathlib import Path

import cherednik

PACKAGE = Path(cherednik.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements (stripped by python -O): {found}"

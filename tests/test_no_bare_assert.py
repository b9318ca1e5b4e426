"""No check in the package is a bare `assert`: `python -O` would drop it."""

import ast
import pathlib

import heisenstab

PACKAGE = pathlib.Path(heisenstab.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found

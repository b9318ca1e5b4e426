"""No check in the package is a bare `assert`: `python -O` would drop it.
Nor does the package raise the interpreter's recursion limit to reach a
value: a long input must be walked in a loop or refused."""

import ast
import pathlib

import heisenstab

PACKAGE = pathlib.Path(heisenstab.__file__).parent


def _package_nodes():
    """(module file name, AST node) for every node of every module."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield from ((path.name, node) for node in ast.walk(tree))


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_never_sets_the_recursion_limit():
    # both `sys.setrecursionlimit(...)` and a bare imported `setrecursionlimit(...)`
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setrecursionlimit"]
    assert not found, found

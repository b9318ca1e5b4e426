"""No check in the package is a bare `assert`: `python -O` would drop it.
Nor does the package raise the interpreter's recursion limit to reach a
value: a long input must be walked in a loop or refused, and only the
functions listed below call themselves."""

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


# Every function of the package that calls itself by name, with why its
# depth stays small whatever the input's length.
SELF_CALLING = {
    # to depth 1: the table for a < b is the transpose of the one for (b, a)
    "_split_table",
    # reached only through character_vector and the Kronecker character
    # sum, whose vectors have p(n) entries, so only for an n far below the
    # recursion limit
    "_mn_vector",
}


def test_only_the_listed_functions_call_themselves():
    found = {node.name for _, node in _package_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id == node.name for call in ast.walk(node))}
    assert found == SELF_CALLING

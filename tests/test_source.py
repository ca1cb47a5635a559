"""Checks on the package source itself."""

import ast
import importlib
import itertools
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "foldcat"


def test_no_assert_statements():
    # checks must raise or report: python -O strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names; one that the package lost
    # would fail every traced run with AttributeError
    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("TIMED", "COUNTED", "CACHED")}
    assert sorted(lists) == ["CACHED", "COUNTED", "TIMED"]
    missing = []
    for path in itertools.chain(*lists.values()):
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"foldcat.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(path)
    assert missing == []


def calls_in_package(name):
    """(file name, enclosing function) of each call to name in the package,
    outside errors.py, where the guard and its error type live."""
    found = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (
                    getattr(func, "id", None), getattr(func, "attr", None)):
                found.append((path.name, owner))
            visit(child, path, getattr(child, "name", owner))

    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def test_range_guards_go_through_check_range():
    # the two size guards that are not a range of one value: eps must be
    # long enough for the size, and a suite that clamps --size needs only
    # size >= 1; every other guard raises through errors.check_range
    assert calls_in_package("SizeGuardError") == [
        ("cli.py", "_check_suite_sizes"), ("gf2sign.py", "general_eps_diag")]

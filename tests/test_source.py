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

"""Every exported name resolves, and every function the benchmark traces exists.

A deletion that leaves a stale export, or removes a function that
``perfbench/spans.py`` wraps, fails here instead of at import time for users
or at ``--trace 1`` for the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hyposym

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p.stem for p in (ROOT / "src" / "hyposym").glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hyposym.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"hyposym.{name}.__all__ names missing {export!r}"


def test_package_exports_are_module_exports():
    tree = ast.parse((ROOT / "src" / "hyposym" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hyposym.{node.module}")
        public = getattr(module, "__all__", None)  # errors.py exports every class
        for alias in node.names:
            assert public is None or alias.name in public, f"{alias.name} not in {node.module}.__all__"
            assert getattr(hyposym, alias.name) is getattr(module, alias.name)


def _traced_functions() -> dict:
    # read TIMED as a literal: importing the benchmark module is not needed
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TIMED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TIMED table")


def test_traced_functions_exist():
    timed = _traced_functions()
    assert timed
    for short, funcs in timed.items():
        module = importlib.import_module(f"hyposym.{short}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"hyposym.{short}.{func} is gone"
    for method in ("gain", "opnorm"):
        assert callable(getattr(hyposym.MatrixSymbol, method, None))

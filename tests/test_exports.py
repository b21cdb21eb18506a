"""Every exported name resolves, every function the benchmark traces exists,
and no public signature restates what its inputs carry.

The package loads each export on first access, so ``import hyposym`` alone
imports no submodule.

A deletion that leaves a stale export, or removes a function that
``perfbench/spans.py`` wraps, fails here instead of at import time for users
or at ``--trace 1`` for the benchmark.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
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


# the package's exports, pinned: removing or adding one is a deliberate API change
EXPORTED = """
    Certificate Classification Coefficient CoefficientField ContinuedFraction
    Counterexample Enclosure FrequencyIndex GainTable GrowthFit HyposymError
    MatrixSymbol MatrixTable NU NoFitError OrderEstimate ParsedSpec PellSolution
    PrecisionError PreconditionError RegularityReport SU2 SearchExhaustedError
    SpecFileError Su2DiagPoly Su2Label SubellipticReport Surd TORUS2 Torus2Label
    TorusGainResult TorusPoly TruncatedKernel Verdict Window
    WindowTooSmallError Witness apply_symbol best_alpha_constant
    build_counterexample build_symbol certify check_alpha check_beta
    classify_coefficient classify_regularity continued_fraction emit_spec
    enumerate_frequencies estimate_h estimate_order extremal_field fit_growth
    format_real frequency_for_label gain_table kernel_on_truncation
    liouville_witnesses parse_real parse_spec pell_solutions random_field
    singular_scan smallest_gain sobolev_norm
    torus_min_gain verdict
""".split()


def test_package_exports_are_module_exports():
    assert len(EXPORTED) == 67
    assert sorted(hyposym.__all__) == sorted(EXPORTED)
    assert sorted(n for names in hyposym._EXPORTS.values() for n in names) == sorted(EXPORTED)
    for short, names in hyposym._EXPORTS.items():
        module = importlib.import_module(f"hyposym.{short}")
        public = getattr(module, "__all__", None)  # errors.py exports every class
        for name in names:
            assert public is None or name in public, f"{name} not in {short}.__all__"
            assert getattr(hyposym, name) is getattr(module, name)


def test_import_loads_no_submodule():
    code = "import sys, hyposym; print(sorted(m for m in sys.modules if m.startswith('hyposym.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert proc.stdout.strip() == "[]"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyposym.no_such_name
    assert not hasattr(hyposym, "torus_lattice")  # public in spectral, not exported


def test_dir_lists_every_export():
    assert set(EXPORTED) <= set(dir(hyposym))
    from hyposym import cli, symbols  # submodules still import by name

    assert cli.main and symbols.gain_table is hyposym.gain_table


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


def _signatures():
    """``(name, signature)`` of each exported callable and of each public
    method, defined in the package, of the exported classes."""
    for name in EXPORTED:
        value = getattr(hyposym, name)
        if not callable(value):
            continue
        try:
            yield name, inspect.signature(value)
        except ValueError:  # an exception class that keeps the builtin constructor
            pass
        if inspect.isclass(value):
            for attr, member in inspect.getmembers(value, callable):
                if not attr.startswith("_") and getattr(member, "__module__", "").startswith(
                        "hyposym"):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_no_signature_restates_the_model():
    # the operator fixes the model, and the enumeration fixes nu = NU = 2:
    # symbols, tables, windows and kernels carry the model and the cutoff
    signatures = dict(_signatures())
    assert {"verdict", "check_alpha", "MatrixSymbol.gain", "CoefficientField.window"} <= set(
        signatures)
    for name, sig in signatures.items():
        assert "nu" not in sig.parameters, name
        if name not in ("Window", "enumerate_frequencies"):
            assert "model" not in sig.parameters, name
    assert "cutoff" not in signatures["verdict"].parameters
    assert "cutoff" not in signatures["check_alpha"].parameters
    # the model is its kind string, which a window checks
    assert hyposym.TORUS2 == hyposym.Window("torus2", 0).model == "torus2"
    with pytest.raises(hyposym.PreconditionError, match="unknown model kind 'sphere2'"):
        hyposym.Window("sphere2", 1.0)


def _block_storage_reads(tree: ast.Module):
    """``(where, what)`` of each SVD call, ``is_diagonal`` read and
    ``one_blas_thread`` call in a module, ``where`` the dotted name of the
    enclosing class and function."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Attribute) and child.attr == "is_diagonal":
                yield where, "is_diagonal"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("svd", "one_blas_thread"):
                    yield where, name
            yield from walk(child, inner)

    return list(walk(tree, ""))


def test_only_symbols_knows_how_a_block_is_stored():
    # whether a block is diagonal or dense, how its vectors come from an SVD,
    # and when BLAS runs on one thread are decided in symbols.py; a kernel's
    # projection runs its own two products on one thread
    allowed = {("subelliptic", "TruncatedKernel.project_out", "one_blas_thread")}
    found = {(name, where, what) for name in MODULES if name != "symbols"
             for where, what in _block_storage_reads(
                 ast.parse((ROOT / "src" / "hyposym" / f"{name}.py").read_text()))}
    assert found == allowed
    symbols = ast.parse((ROOT / "src" / "hyposym" / "symbols.py").read_text())
    assert {what for _, what in _block_storage_reads(symbols)} == {
        "svd", "is_diagonal", "one_blas_thread"}

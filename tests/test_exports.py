"""Every exported name resolves, and every function the benchmark traces exists.

The package loads each export on first access, so ``import hyposym`` alone
imports no submodule.

A deletion that leaves a stale export, or removes a function that
``perfbench/spans.py`` wraps, fails here instead of at import time for users
or at ``--trace 1`` for the benchmark.
"""

import ast
import importlib
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
    SpecFileError SpectralModel Su2DiagPoly Su2Label SubellipticReport Surd TORUS2
    Torus2Label TorusGainResult TorusPoly TruncatedKernel Verdict Window
    WindowTooSmallError Witness apply_symbol best_alpha_constant
    build_counterexample build_symbol certify check_alpha check_beta
    classify_coefficient classify_regularity continued_fraction emit_spec
    enumerate_frequencies estimate_h estimate_order extremal_field fit_growth
    format_real frequency_for_label gain_table kernel_on_truncation
    liouville_witnesses operator_norm parse_real parse_spec pell_solutions
    per_frequency_constant random_field singular_scan smallest_gain sobolev_norm
    torus_min_gain verdict
""".split()


def test_package_exports_are_module_exports():
    assert len(EXPORTED) == 70
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

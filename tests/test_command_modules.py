"""Each CLI command loads only the hyposym modules it runs.

A fresh process compiles and executes every module it imports, which costs
more than the mathematics on small windows.  Each command runs here as
``python -m hyposym.cli`` (through ``runpy``) in a subprocess, and the test
reads which ``hyposym.*`` modules ended up in ``sys.modules``, and whether
numpy did: only evaluating a symbol needs it, and no spec needs it to parse.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUN = """
import json, runpy, sys
sys.argv = ["hyposym", *sys.argv[1:]]
try:
    runpy.run_module("hyposym.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("hyposym.")),
                  "numpy" in sys.modules]))
"""
PARSE = """
import json, sys
from hyposym.specfile import parse_spec
parse_spec(sys.argv[1])
print(json.dumps([m for m in ("numpy", "hyposym.symbols") if m in sys.modules]))
"""


def _spec(model: str, operator: dict) -> str:
    return json.dumps({"model": {"kind": model}, "operator": operator})


TORUS_PHI = _spec("torus2", {"kind": "torus_poly", "terms": [
    {"coeff": [1, 0], "deg_t": 1, "deg_x": 0},
    {"coeff_real": "(1+1*sqrt(5))/2", "deg_t": 0, "deg_x": 1}]})
SU2_GAP = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_neglap": 1}, {"coeff": [1, 0], "deg_d0": 2}]})
SU2_PELL = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_neglap": 1}, {"coeff": [2, 0], "deg_d0": 2}]})
SU2_SHIFT = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_d0": 1}, {"coeff": [0, 1], "deg_neglap": 0}]})


def _table_spec(tmp_path) -> str:
    (tmp_path / "table.json").write_text(json.dumps({"entries": [
        {"label": t, "matrix": [[[1, 0]] * (t + 1)] * (t + 1)} for t in range(4)]}))
    return _spec("su2", {"kind": "matrix_table", "path": str(tmp_path / "table.json")})


def _python(tmp_path, code: str, *argv):
    """The last stdout line of ``python -c code argv``, read as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(tmp_path, *argv, out: bool = True) -> tuple[int, set[str], bool]:
    """``(exit code, hyposym modules loaded, whether numpy was)`` of a command."""
    argv = [*argv, "--out", str(tmp_path / "r.json")] if out else list(argv)
    code, modules, numpy = _python(tmp_path, RUN, *argv)
    return code, set(modules), numpy


def loaded_modules(tmp_path, *argv, out: bool = True) -> set[str]:
    code, modules, _ = run_command(tmp_path, *argv, out=out)
    assert code == 0
    return modules


SPECTRAL = {"errors", "exact", "spectral", "fitting", "operators", "symbols", "specfile"}


@pytest.mark.parametrize("command", ["analyze", "fit-exponent", "singular-scan"])
@pytest.mark.parametrize("spec", [TORUS_PHI, SU2_GAP], ids=["torus", "su2"])
def test_spectral_commands_load_only_the_spectral_layers(command, spec, tmp_path):
    assert loaded_modules(tmp_path, command, "--spec", spec, "--cutoff", "200") == \
        SPECTRAL | {"hypo"}


def test_tables_is_loaded_only_for_a_matrix_table_spec(tmp_path):
    argv = ("analyze", "--spec", SU2_GAP, "--cutoff", "200")
    assert loaded_modules(tmp_path, *argv, out=False) == SPECTRAL | {"hypo"}
    table = _table_spec(tmp_path)
    argv = ("singular-scan", "--spec", table, "--cutoff", "2")
    # the first command parses the table, the second reads its blocks from the cache
    assert loaded_modules(tmp_path, *argv, out=False) == SPECTRAL | {"hypo", "tables"}
    assert loaded_modules(tmp_path, *argv, out=False) == SPECTRAL | {"hypo", "tables"}
    # the gains sidecar of analyze --out loads no module of its own
    argv = ("analyze", "--spec", table, "--cutoff", "2")
    assert loaded_modules(tmp_path, *argv) == SPECTRAL | {"hypo", "tables"}


def test_pell_certifier_loads_diophantine(tmp_path):
    argv = ("fit-exponent", "--spec", SU2_PELL, "--cutoff", "200")
    assert loaded_modules(tmp_path, *argv) == SPECTRAL | {"hypo", "diophantine"}


@pytest.mark.parametrize("argv", [
    ("torus-gain", "--c", "(1+1*sqrt(5))/2", "--radius", "13", "--exp", "-1"),
    ("pell", "--d", "8", "--count", "4"),
    ("diophantine", "--c", "(1+1*sqrt(5))/2", "--liouville-nmax", "3"),
], ids=["torus-gain", "pell", "diophantine"])
def test_exact_commands_load_no_symbol_layers(argv, tmp_path):
    assert loaded_modules(tmp_path, *argv) == {"errors", "exact", "diophantine"}


def test_counterexample_loads_no_verdict_or_subelliptic(tmp_path):
    argv = ("counterexample", "--spec", SU2_SHIFT, "--cutoff", "200", "--k", "3")
    assert loaded_modules(tmp_path, *argv) == SPECTRAL | {"coefficients"}


def test_subelliptic_loads_no_verdict_layers(tmp_path):
    argv = ("subelliptic", "--spec", SU2_GAP, "--cutoff", "200", "--probes", "2")
    assert loaded_modules(tmp_path, *argv) == SPECTRAL | {"coefficients", "subelliptic"}


@pytest.mark.parametrize("spec", ["torus", "su2", "table cold", "table warm"])
def test_parse_spec_loads_no_numpy_or_symbols(spec, tmp_path, table_cache):
    text = {"torus": TORUS_PHI, "su2": SU2_GAP}.get(spec) or _table_spec(tmp_path)
    if spec == "table warm":
        assert _python(tmp_path, PARSE, text) == []  # parses the text, and fills the cache
    cached = list((table_cache / "hyposym" / "tables").rglob("*.npy"))
    assert len(cached) == (spec == "table warm")
    assert _python(tmp_path, PARSE, text) == []


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("--version",), 0),
    (("pell", "--d", "8", "--count", "4"), 0),
    (("diophantine", "--c", "(1+1*sqrt(5))/2", "--liouville-nmax", "3"), 0),
    (("analyze", "--spec", '{"model": 1}', "--cutoff", "100"), 2),
    (("singular-scan", "--spec", SU2_GAP, "--cutoff", "100", "--tol", "-1"), 2),
], ids=["help", "version", "pell", "diophantine", "schema violation", "negative tol"])
def test_commands_that_evaluate_no_symbol_load_no_numpy(argv, code, tmp_path):
    exit_code, _, numpy = run_command(tmp_path, *argv, out=False)
    assert (exit_code, numpy) == (code, False)


@pytest.mark.parametrize("argv", [
    ("analyze", "--spec", TORUS_PHI, "--cutoff", "200"),
    ("singular-scan", "--spec", SU2_GAP, "--cutoff", "200"),
    ("fit-exponent", "--spec", SU2_PELL, "--cutoff", "200"),
    ("counterexample", "--spec", SU2_SHIFT, "--cutoff", "200", "--k", "3"),
    ("subelliptic", "--spec", SU2_GAP, "--cutoff", "200", "--probes", "2"),
], ids=lambda argv: argv[0])
def test_commands_that_evaluate_a_symbol_load_numpy(argv, tmp_path):
    exit_code, _, numpy = run_command(tmp_path, *argv)
    assert (exit_code, numpy) == (0, True)

"""The top-level keys of every CLI report, on stdout and with --out.

Every report carries ``tool_version`` and ``seed``; every report of a spec
command also carries ``spec_echo`` and ``cutoff``.  The key sets are pinned
exactly, so a key that appears or disappears fails here.
"""

import json

import pytest

from hyposym import __version__, cli

ENVELOPE = {"tool_version", "seed"}
SPEC_ENVELOPE = ENVELOPE | {"spec_echo", "cutoff"}


def _spec(model: str, operator: dict) -> str:
    return json.dumps({"model": {"kind": model}, "operator": operator})


SU2_GAP = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_neglap": 1}, {"coeff": [1, 0], "deg_d0": 2}]})
SU2_PELL = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_neglap": 1}, {"coeff": [2, 0], "deg_d0": 2}]})
SU2_SHIFT = _spec("su2", {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_d0": 1}, {"coeff": [0, 1], "deg_neglap": 0}]})
GOLDEN = "(1+1*sqrt(5))/2"

# (argv, the report's own keys, sidecar key or None)
REPORTS = {
    "analyze": (["analyze", "--spec", SU2_GAP, "--cutoff", "200"],
                SPEC_ENVELOPE | {"tol", "verdict", "order", "gain_samples_path"},
                "gain_samples_path"),
    "singular-scan": (["singular-scan", "--spec", SU2_GAP, "--cutoff", "200"],
                      SPEC_ENVELOPE | {"tol", "singular"}, None),
    "fit-exponent": (["fit-exponent", "--spec", SU2_GAP, "--cutoff", "2000"],
                     SPEC_ENVELOPE | {"fit", "h_hat"}, None),
    "fit-exponent-pell": (["fit-exponent", "--spec", SU2_PELL, "--cutoff", "2000"],
                          SPEC_ENVELOPE | {"fit", "h_hat"}, None),
    "counterexample": (["counterexample", "--spec", SU2_SHIFT, "--cutoff", "200", "--k", "3"],
                       SPEC_ENVELOPE | {"k", "certificates", "field_regularity",
                                        "image_regularity", "coefficients_path"},
                       "coefficients_path"),
    "diophantine": (["diophantine", "--c", GOLDEN, "--cf-terms", "8"],
                    ENVELOPE | {"c", "continued_fraction", "classification"}, None),
    "diophantine-liouville": (["diophantine", "--c", GOLDEN, "--liouville-nmax", "3"],
                              ENVELOPE | {"c", "continued_fraction", "classification",
                                          "liouville_witnesses"}, None),
    "pell": (["pell", "--d", "8", "--count", "4"], ENVELOPE | {"d", "solutions"}, None),
    "torus-gain": (["torus-gain", "--c", GOLDEN, "--radius", "5", "--exp", "-1"],
                   ENVELOPE | {"c", "radius", "exponent", "argmin", "objective", "gain",
                               "is_exact_zero"}, None),
    "subelliptic": (["subelliptic", "--spec", SU2_GAP, "--cutoff", "200", "--probes", "2"],
                    SPEC_ENVELOPE | {"report", "witness_check", "probes"}, None),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_keys_on_stdout(name, capsys):
    argv, keys, sidecar = REPORTS[name]
    assert cli.main([*argv, "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert set(doc) == keys
    assert doc["tool_version"] == __version__ and doc["seed"] == 4
    if sidecar:
        assert doc[sidecar] is None


@pytest.mark.parametrize("name", REPORTS)
def test_report_keys_with_out(name, tmp_path, capsys):
    argv, keys, sidecar = REPORTS[name]
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    assert set(doc) == keys
    assert doc["tool_version"] == __version__ and doc["seed"] == 0
    if sidecar:
        assert doc[sidecar].startswith(str(out)) and (tmp_path / doc[sidecar]).is_file()


def test_certified_fit_has_the_envelope_of_an_empirical_fit(capsys):
    docs = {}
    for name in ("fit-exponent", "fit-exponent-pell"):
        assert cli.main(REPORTS[name][0]) == 0
        docs[name] = json.loads(capsys.readouterr().out)
    certified, empirical = docs["fit-exponent-pell"], docs["fit-exponent"]
    assert certified["fit"] is None and certified["h_hat"] == "-inf"
    assert set(empirical["fit"]) == {"L", "m", "R", "residual", "n_samples", "lam_max"}
    assert set(certified) == set(empirical)

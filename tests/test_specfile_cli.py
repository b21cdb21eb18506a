import builtins
import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    CoefficientField,
    Su2Label,
    Torus2Label,
    build_symbol,
    cli,
    gain_table,
    parse_spec,
)
from hyposym.errors import SpecFileError
from hyposym.exact import Surd
from hyposym.specfile import emit_spec
from hyposym.symbols import MatrixTable, Su2DiagPoly, TorusPoly

from oracles import rational_parts


TORUS_PHI_FLOAT = {
    "model": {"kind": "torus2"},
    "operator": {
        "kind": "torus_poly",
        "terms": [
            {"coeff": [0, 1], "deg_t": 1, "deg_x": 0},
            {"coeff": [0, 1.618033988749895], "deg_t": 0, "deg_x": 1},
        ],
    },
}

TORUS_PHI_EXACT = {
    "model": {"kind": "torus2"},
    "operator": {
        "kind": "torus_poly",
        "terms": [
            {"coeff": [1, 0], "deg_t": 1, "deg_x": 0},
            {"coeff_real": "(1+1*sqrt(5))/2", "deg_t": 0, "deg_x": 1},
        ],
    },
}

SU2_GAP = {
    "model": {"kind": "su2"},
    "operator": {
        "kind": "su2_diag",
        "poly": [
            {"coeff": [1, 0], "deg_d0": 0, "deg_neglap": 1},
            {"coeff": [1, 0], "deg_d0": 2, "deg_neglap": 0},
        ],
    },
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_torus_float_phi():
    parsed = parse_spec(TORUS_PHI_FLOAT)
    assert parsed.operator.model_kind == "torus2"
    op = parsed.operator
    assert isinstance(op, TorusPoly)
    c = op.coefficient(0, 1)
    assert isinstance(c.im, float) and not c.is_exact


def test_parse_torus_exact_phi():
    parsed = parse_spec(TORUS_PHI_EXACT)
    c = parsed.operator.coefficient(0, 1)
    assert isinstance(c.re, Surd) and c.is_exact


def test_parse_su2_gap_operator():
    parsed = parse_spec(SU2_GAP)
    assert isinstance(parsed.operator, Su2DiagPoly)
    assert rational_parts(parsed.operator.coefficient(0, 1)) == (
        Fraction(1), Fraction(0),
    )


def test_parse_missing_model_lists_field():
    with pytest.raises(SpecFileError) as err:
        parse_spec({"operator": SU2_GAP["operator"]})
    assert any("model" in v for v in err.value.violations)


def test_parse_collects_all_violations():
    bad = {
        "model": {"kind": "klein_bottle"},
        "operator": {
            "kind": "torus_poly",
            "terms": [
                {"deg_t": 1},                                # missing coefficient
                {"coeff": [1, 0], "deg_t": -2},              # bad degree
                {"coeff": [1, 0], "coeff_real": "1", "deg_x": 1},  # both forms
                {"coeff": "one"},                            # malformed pair
            ],
        },
        "extra": 1,
    }
    with pytest.raises(SpecFileError) as err:
        parse_spec(bad)
    text = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 5
    assert "klein_bottle" in text
    assert "missing coefficient" in text
    assert "deg_t" in text
    assert "not both" in text
    assert "extra" in text


def test_parse_rejects_model_operator_mismatch():
    bad = {"model": {"kind": "su2"}, "operator": TORUS_PHI_FLOAT["operator"]}
    with pytest.raises(SpecFileError) as err:
        parse_spec(bad)
    assert any("torus2" in v for v in err.value.violations)


@pytest.mark.parametrize("model, operator, violations", [
    ("su2", {"kind": "torus_poly", "terms": [{"coeff": [1, 0], "deg_t": 1}]},
     ["torus_poly operator requires the torus2 model"]),
    ("torus2", {"kind": "su2_diag", "poly": [{"coeff": [1, 0], "deg_d0": 1}]},
     ["su2_diag operator requires the su2 model"]),
    ("su2", {"kind": "su2_diag", "terms": [], "poly": [{"coeff": [1, 0], "deg_t": 1}]},
     ["operator: unknown key 'terms' (su2_diag takes its terms under 'poly')",
      "operator.poly[0]: unknown key 'deg_t'"]),
    ("torus2", {"kind": "torus_poly", "poly": [], "terms": [{"coeff": [1, 0], "deg_d0": 1}]},
     ["operator: unknown key 'poly'", "operator.terms[0]: unknown key 'deg_d0'"]),
    ("torus2", {"kind": "torus_poly", "terms": []},
     ["operator.terms: must be a nonempty list of terms"]),
    ("su2", {"kind": "su2_diag"}, ["operator.poly: must be a nonempty list of terms"]),
], ids=["torus-on-su2", "su2-on-torus", "su2-terms-hint", "torus-poly-key", "empty-terms",
        "no-poly"])
def test_parse_poly_kind_messages(model, operator, violations):
    with pytest.raises(SpecFileError) as err:
        parse_spec({"model": {"kind": model}, "operator": operator})
    assert err.value.violations == violations


@pytest.mark.parametrize("kind", [[], {}, 5], ids=["list", "object", "number"])
def test_cli_non_string_operator_kind_is_schema_violation(kind, capsys):
    spec = json.dumps({"model": {"kind": "torus2"}, "operator": {"kind": kind}})
    assert cli.main(["analyze", "--spec", spec, "--cutoff", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["violations"] == [f"unknown operator kind {kind!r}"]


def test_parse_rejects_enclosure_coefficients():
    bad = {
        "model": {"kind": "torus2"},
        "operator": {
            "kind": "torus_poly",
            "terms": [{"coeff_real": "dec:0.5~1e-3", "deg_t": 1}],
        },
    }
    with pytest.raises(SpecFileError) as err:
        parse_spec(bad)
    assert any("enclosure" in v for v in err.value.violations)


def test_parse_rejects_unknown_option():
    bad = dict(SU2_GAP, options={"cutofff": 10})
    with pytest.raises(SpecFileError) as err:
        parse_spec(bad)
    assert any("cutofff" in v for v in err.value.violations)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_constants(constant, tmp_path):
    text = json.dumps(TORUS_PHI_FLOAT).replace("1.618033988749895", constant)
    with pytest.raises(SpecFileError) as err:
        parse_spec(text)
    assert any(constant.lstrip("-") in v for v in err.value.violations)

    tpath = tmp_path / "table.json"
    tpath.write_text(f'{{"entries": [{{"label": 0, "matrix": [[[{constant}, 0]]]}}]}}')
    spec = {"model": {"kind": "su2"},
            "operator": {"kind": "matrix_table", "path": str(tpath)}}
    with pytest.raises(SpecFileError) as err:
        parse_spec(spec)
    assert any(constant.lstrip("-") in v for v in err.value.violations)


def test_matrix_table_round_trip(tmp_path):
    table = {
        "entries": [
            {"label": 0, "matrix": [[[1.0, 0.0]]]},
            {"label": 2, "matrix": [[[0, 0], [1, 0], [0, 0]],
                                     [[0, 0], [0, 0], [1, 0]],
                                     [[0, 0], [0, 0], [0, 0]]]},
        ]
    }
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps(table))
    spec = {
        "model": {"kind": "su2"},
        "operator": {"kind": "matrix_table", "path": str(tpath)},
    }
    parsed = parse_spec(spec)
    assert isinstance(parsed.operator, MatrixTable)
    reparsed = parse_spec(emit_spec(parsed))
    assert reparsed == parsed


def test_matrix_table_bad_block_size(tmp_path):
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps({"entries": [{"label": 2, "matrix": [[[1, 0]]]}]}))
    spec = {"model": {"kind": "su2"},
            "operator": {"kind": "matrix_table", "path": str(tpath)}}
    with pytest.raises(SpecFileError) as err:
        parse_spec(spec)
    assert any("block size" in v for v in err.value.violations)


@pytest.mark.parametrize("doc", [TORUS_PHI_FLOAT, TORUS_PHI_EXACT, SU2_GAP])
def test_round_trip_parse_emit(doc):
    parsed = parse_spec(doc)
    assert parse_spec(emit_spec(parsed)) == parsed


def test_round_trip_preserves_exactness_classes():
    exact = parse_spec(TORUS_PHI_EXACT)
    inexact = parse_spec(TORUS_PHI_FLOAT)
    assert parse_spec(emit_spec(exact)).operator.coefficient(0, 1).is_exact
    assert not parse_spec(emit_spec(inexact)).operator.coefficient(0, 1).is_exact


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyposym.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("argv", [["torus-gain", "--radius", "3"], ["diophantine"]])
@pytest.mark.parametrize("literal, message", [
    ("1/0", "bad real literal"),
    ("(1+1*sqrt(0))/2", "bad real literal"),
    ("7" * 5000, "4300 digits"),
    ("1" + "0" * 400, "beyond float range"),
    ("dec:1e9999~1", "beyond float range"),
    ("10**400", "unrecognized real literal"),
], ids=["1/0", "radicand-0", "5000-digits", "401-digits", "dec-1e9999", "10**400"])
def test_cli_bad_real_literal_exits_3(argv, literal, message, capsys):
    assert cli.main([argv[0], "--c", literal, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "PreconditionError" and message in err["error"]



@pytest.fixture
def int_digit_limit():
    # Python's floor for its int-to-text limit (4300 digits by default), so
    # the results that reach it stay quick to compute
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv, message", [
    (["pell", "--d", "8", "--count", "900"], "report.solutions[836].m has more than 640"),
    (["diophantine", "--c", "(1+1*sqrt(5))/2", "--cf-terms", "4000"],
     "report.continued_fraction.convergents[3063][0] has more than 640"),
    (["torus-gain", "--c", "1/3", "--radius", "3", "--exp", "100000"],
     "the exact objective has more than 640"),
    (["torus-gain", "--c", "1/3", "--radius", "3", "--exp=-100000"],
     "the objective is beyond float range"),
], ids=["pell-900", "cf-4000", "exp-100000", "exp-minus-100000"])
def test_cli_huge_exact_result_exits_3(argv, message, int_digit_limit, capsys):
    # an int past the limit has no JSON text, and float() of a huge Fraction
    # overflows: the error names the quantity
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "PreconditionError" and message in err["error"]


@pytest.mark.parametrize("exponent, message", [
    ("1000000", "--exp 1000000: the exact objective has more than 4300 digits, Python's "
                "limit for int text"),
    ("-1000000", "the objective is beyond float range")])
def test_cli_torus_gain_refuses_a_huge_exponent_before_building_weights(exponent, message):
    # the weights (1+|xi|+|eta|)^N would have millions of bits; the parent
    # process sets no int-to-text limit, so the child keeps the default 4300
    started = time.perf_counter()
    proc = run_cli("torus-gain", "--c", "(1+1*sqrt(5))/2", "--radius", "8", f"--exp={exponent}")
    assert time.perf_counter() - started < 2.0
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": message, "kind": "PreconditionError"}


@pytest.mark.parametrize("exponent", [10**6, -10**6])
def test_cli_torus_gain_exact_zero_answers_at_any_exponent(exponent, capsys):
    # 1/2 vanishes at (-1, 2) in the ball: the objective is 0 whatever N is,
    # and no weight is built
    started = time.perf_counter()
    assert cli.main(["torus-gain", "--c", "1/2", "--radius", "8", f"--exp={exponent}"]) == 0
    assert time.perf_counter() - started < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["argmin"] == [-1, 2] and doc["is_exact_zero"]
    assert doc["objective"] == {"lo": 0.0, "hi": 0.0, "exact": "0"}


@pytest.mark.parametrize("literal, radius", [("(1+1*sqrt(5))/2", 8), ("-3/7", 3),
                                             ("(-2+3*sqrt(13))/5", 5), ("1/3", 3)])
def test_cli_torus_gain_refusal_agrees_with_the_search_at_its_threshold(
        literal, radius, int_digit_limit, monkeypatch):
    # the least exponents the scale refuses: one step below them the search
    # runs, and at them the search, run anyway, fails the same way (on the
    # exact text for N > 0, on float range for N < 0)
    from hyposym import diophantine
    from hyposym.exact import parse_real

    scale = diophantine.objective_scale(parse_real(literal), radius)
    positive, negative = (scale * 10**640).bit_length(), -(scale << 1025).bit_length()
    searched = []
    search = diophantine.torus_min_gain
    monkeypatch.setattr(diophantine, "torus_min_gain",
                        lambda c, r, n: searched.append(n) or search(c, r, n))

    def run(n):
        return _run_cli_quietly(["torus-gain", f"--c={literal}", f"--radius={radius}",
                                 f"--exp={n}"])

    below = [run(n) for n in (positive - 1, negative + 1)]
    assert searched == [positive - 1, negative + 1]
    assert all(code in (0, 3) for code, _, _ in below)
    refused = [run(n) for n in (positive, negative)]
    assert searched == [positive - 1, negative + 1]
    monkeypatch.setattr(diophantine, "objective_scale", lambda c, radius: None)
    unrefused = [run(n) for n in (positive, negative)]
    assert refused[0][0] == unrefused[0][0] == 3
    assert json.loads(refused[0][2])["error"] == f"--exp {positive}: " + json.loads(
        unrefused[0][2])["error"]
    assert refused[1] == unrefused[1]


def test_cli_pell_at_the_digit_limit_still_reports(int_digit_limit, capsys):
    assert cli.main(["pell", "--d", "8", "--count", "836"]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 836


def test_cli_refuses_a_long_int_before_encoding_the_report(monkeypatch, capsys):
    # solution 5617 of pell --d 8 passes the default limit of 4300 digits: the
    # report is refused before it is encoded, so json.dumps writes only the error
    calls = []
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda *args, **kw: calls.append(1) or dumps(*args, **kw))
    assert cli.main(["pell", "--d", "8", "--count", "6000"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "report.solutions[5617].m " + cli._too_long()
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["pell", "--d", "8", "--count", "1000000000000"], "report.solutions[836].m has more than 640"),
    (["diophantine", "--c", "(1+1*sqrt(5))/2", "--cf-terms", "1000000000000"],
     "report.continued_fraction.convergents[3063][0] has more than 640"),
    (["diophantine", "--c", "(1+1*sqrt(5))/2", "--cf-terms", "3064"],
     "report.continued_fraction.convergents[3063][0] has more than 640"),
], ids=["pell-1e12", "cf-1e12", "cf-3064"])
def test_cli_generation_stops_at_the_first_int_past_the_limit(argv, message, int_digit_limit,
                                                              capsys):
    # the solutions and convergents stop at the first one too long for text;
    # 10^12 of them would never finish
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "PreconditionError" and message in err["error"]
    assert cli.main(["diophantine", "--c", "(1+1*sqrt(5))/2", "--cf-terms", "3063"]) == 0
    assert len(json.loads(capsys.readouterr().out)["continued_fraction"]["convergents"]) == 3063


DIOPHANTINE_LITERALS = ["(1+1*sqrt(5))/2", "-3/7", "(-2+3*sqrt(13))/5", "dec:0.333~1e-9",
                        "0", "1"]


def _run_cli_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIOPHANTINE_LITERALS), st.sampled_from(["cf", "pell", "gain"]),
       st.one_of(st.integers(-3, 50), st.integers(-10**15, 10**15)),
       st.integers(-5, 8), st.integers(-3000, 3000))
def test_cli_diophantine_flags_fuzz(literal, command, count, radius, exponent):
    # every run exits with a documented code and JSON, never a traceback;
    # the int-to-text limit is at its floor, so results reach it quickly
    if command == "cf":
        argv = ["diophantine", f"--c={literal}", f"--cf-terms={count}"]
    elif command == "pell":
        argv = ["pell", f"--d={abs(count) % 100}", f"--count={count}"]
    else:
        argv = ["torus-gain", f"--c={literal}", f"--radius={radius}", f"--exp={exponent}"]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _run_cli_quietly(argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert code in (0, 2, 3, 5)
    doc = json.loads(out if code == 0 else err)
    if code:
        assert out == "" and doc["kind"] in ("SpecFileError", "PreconditionError", "PrecisionError")


@pytest.mark.parametrize("flag, message", [
    ("--seed=-1", "--seed must be nonnegative"),
    ("--probes=-1", "--probes must be nonnegative"),
])
def test_cli_subelliptic_rejects_negative_probe_flags(flag, message, capsys):
    argv = ["subelliptic", "--spec", json.dumps(SU2_GAP), "--cutoff", "20", flag]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]
    assert cli.main([*argv[:-1], "--probes", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["probes"]["count"] == 0

@pytest.fixture
def su2_gap_spec(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(SU2_GAP))
    return str(path)


def test_cli_pell_json():
    proc = run_cli("pell", "--d", "8", "--count", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [(s["u"], s["m"]) for s in doc["solutions"]] == [
        (3, 1), (17, 6), (99, 35), (577, 204)
    ]


def test_cli_analyze_report_fields(su2_gap_spec, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--spec", su2_gap_spec, "--cutoff", "2550",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "empirical_gh"
    assert doc["spec_echo"]["model"]["kind"] == "su2"
    assert doc["tool_version"]
    gains = (tmp_path / "report.json.gains.csv").read_text().splitlines()
    assert gains[0] == "ordinal,label,lambda,dim,gain,opnorm"
    assert len(gains) == 1 + 101  # levels twice_ell = 0..100


def test_cli_reports_are_byte_identical(su2_gap_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        proc = run_cli("analyze", "--spec", su2_gap_spec, "--cutoff", "2550",
                       "--seed", "7", "--out", str(target))
        assert proc.returncode == 0
    assert a.read_bytes().replace(b"a.json", b"x.json") == b.read_bytes().replace(
        b"b.json", b"x.json"
    )


def test_cli_schema_violation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"kind": "su2"}}))
    proc = run_cli("analyze", "--spec", str(bad), "--cutoff", "10")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["violations"]


def test_cli_missing_cutoff_is_precondition(su2_gap_spec):
    proc = run_cli("analyze", "--spec", su2_gap_spec)
    assert proc.returncode == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_cutoff_flag_is_precondition(su2_gap_spec, value):
    proc = run_cli("analyze", "--spec", su2_gap_spec, f"--cutoff={value}")
    assert proc.returncode == 3, proc.stderr
    assert "finite" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("value", ["1e999", "1" + "0" * 400])
def test_cli_non_finite_cutoff_option_is_precondition(tmp_path, value):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(SU2_GAP)[:-1] + f', "options": {{"cutoff": {value}}}}}')
    proc = run_cli("analyze", "--spec", str(path))
    assert proc.returncode == 3, proc.stderr
    assert "finite" in json.loads(proc.stderr)["error"]


def test_parse_rejects_overflowing_coefficient():
    text = json.dumps(SU2_GAP).replace("[1, 0]", "[1e999, 0]", 1)
    with pytest.raises(SpecFileError) as err:
        parse_spec(text)
    assert any("finite" in v for v in err.value.violations)


def test_cli_nan_spec_constant_is_schema_violation(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(SU2_GAP).replace("[1, 0]", "[NaN, 0]", 1))
    proc = run_cli("analyze", "--spec", str(path), "--cutoff", "100")
    assert proc.returncode == 2, proc.stderr
    assert any("NaN" in v for v in json.loads(proc.stderr)["violations"])


def _violations(capsys) -> list[str]:
    return json.loads(capsys.readouterr().err)["violations"]


_GAP_POLY = '[{"coeff": [1, 0], "deg_neglap": 1}, {"coeff": [1, 0], "deg_d0": 2}]'


@pytest.mark.parametrize("text, key", [
    ('{"model": {"kind": "su2"}, '
     '"operator": {"kind": "su2_diag", "poly": [{"coeff": [1, 0], "deg_d0": 1}]}, '
     f'"operator": {{"kind": "su2_diag", "poly": {_GAP_POLY}}}}}', "operator"),
    ('{"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", '
     '"poly": [{"coeff": [1, 0], "deg_neglap": 1, "deg_neglap": 2}]}}', "deg_neglap"),
], ids=["operator", "deg_neglap"])
def test_cli_repeated_spec_key_is_schema_violation(text, key, tmp_path, capsys):
    # json would keep the last value: analyze the second operator, or degree 2
    (tmp_path / "spec.json").write_text(text)
    assert cli.main(["analyze", "--spec", str(tmp_path / "spec.json"), "--cutoff", "100"]) == 2
    assert _violations(capsys) == [f"repeated key {key!r}"]
    with pytest.raises(SpecFileError) as err:
        parse_spec(text)
    assert err.value.violations == [f"repeated key {key!r}"]


def test_cli_repeated_table_key_is_schema_violation(tmp_path, capsys):
    (tmp_path / "table.json").write_text(
        '{"entries": [{"label": 0, "matrix": [[[1, 0]]], "matrix": [[[0, 0]]]}]}')
    spec = tmp_path / "dense.json"
    spec.write_text(json.dumps({"model": {"kind": "su2"},
                                "operator": {"kind": "matrix_table", "path": "table.json"}}))
    assert cli.main(["analyze", "--spec", str(spec), "--cutoff", "0"]) == 2
    assert _violations(capsys) == [
        f"matrix table {str(tmp_path / 'table.json')!r}: repeated key 'matrix'"]


@pytest.mark.parametrize("cell", ["[1e999, 0]", "[0, -1e999]", "[1" + "0" * 400 + ", 0]"])
def test_cli_non_finite_table_cell_is_schema_violation(cell, tmp_path, capsys):
    (tmp_path / "table.json").write_text(
        '{"entries": [{"label": 0, "matrix": [[[1, 0]]]}, '
        f'{{"label": 1, "matrix": [[{cell}, [0, 0]], [[0, 0], [1, 0]]]}}]}}'
    )
    spec = tmp_path / "dense.json"
    spec.write_text(json.dumps({"model": {"kind": "su2"},
                                "operator": {"kind": "matrix_table", "path": "table.json"}}))
    for command in ("analyze", "subelliptic"):
        assert cli.main([command, "--spec", str(spec), "--cutoff", "0.75"]) == 2
        assert any("table entry 1" in v and "finite" in v for v in _violations(capsys))


@pytest.mark.parametrize("key", ["tol", "s", "m"])
@pytest.mark.parametrize("value", ["1e999", "-1e999", "1" + "0" * 400])
def test_cli_non_finite_option_is_schema_violation(key, value, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SU2_GAP)[:-1] + f', "options": {{"{key}": {value}}}}}')
    assert cli.main(["subelliptic", "--spec", str(path), "--cutoff", "30",
                     "--probes", "1"]) == 2
    assert any(f"options.{key}" in v and "finite" in v for v in _violations(capsys))


@pytest.mark.parametrize("key", ["seed", "probes", "radius", "exponent"])
def test_cli_reserved_option_is_schema_violation(key, tmp_path, capsys):
    # these keys used to be accepted and then ignored
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SU2_GAP, options={key: 3})))
    assert cli.main(["subelliptic", "--spec", str(path), "--cutoff", "30",
                     "--probes", "1"]) == 2
    assert any(repr(key) in v for v in _violations(capsys))


@pytest.mark.parametrize("command, flag, value", [
    ("subelliptic", "--m", "inf"),
    ("subelliptic", "--m", "nan"),
    ("subelliptic", "--s", "-inf"),
    ("subelliptic", "--tol", "inf"),
    ("analyze", "--tol", "nan"),
    ("singular-scan", "--tol", "inf"),
    ("fit-exponent", "--tol", "-inf"),
])
def test_cli_non_finite_flag_is_schema_violation(command, flag, value, su2_gap_spec, capsys):
    assert cli.main([command, "--spec", su2_gap_spec, "--cutoff", "30", f"{flag}={value}"]) == 2
    assert any("finite" in v and repr(value) in v for v in _violations(capsys))


@pytest.mark.parametrize("command", ["analyze", "singular-scan", "fit-exponent",
                                     "counterexample", "subelliptic"])
def test_cli_negative_tol_is_schema_violation(command, tmp_path, capsys):
    # a negative tol would hide the exact zero of the gap at l = 0
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(dict(SU2_GAP, options={"tol": -1})))
    argv = [command, "--spec", str(path), "--cutoff", "100"]
    if command == "subelliptic":
        argv += ["--probes", "0"]
    for extra in (["--tol=-1e-300"], []):
        assert cli.main(argv + extra) == 2
        assert any("nonnegative" in v for v in _violations(capsys))
    # -0.0 is not negative: it runs as 0 does
    assert cli.main(argv + ["--tol=-0.0"]) == cli.main(argv + ["--tol=0"]) != 2


@pytest.mark.parametrize("flag, value, message", [
    ("--m", "2000", "C* = 0.0"),  # every weight past the origin underflows
    ("--m", "-2000", "overflows"),  # a C* weight overflows
    ("--s", "2000", "overflows"),  # a Sobolev weight overflows
    ("--s", "-1e300", "underflows"),  # a Sobolev weight underflows to 0
])
def test_cli_subelliptic_exponent_out_of_range_is_precondition(flag, value, message,
                                                               su2_gap_spec, capsys):
    assert cli.main(["subelliptic", "--spec", su2_gap_spec, "--cutoff", "2550",
                     "--probes", "1", f"{flag}={value}"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "PreconditionError" and message in err["error"]


@pytest.mark.parametrize("coeff", ['"coeff": [1' + "0" * 400 + ", 0]",
                                   '"coeff": [0, -1' + "0" * 400 + "]",
                                   '"coeff_real": "1' + "0" * 400 + '"',
                                   '"coeff_imag": "(1+1' + "0" * 400 + '*sqrt(2))/3"'])
def test_cli_coefficient_beyond_float_range_is_schema_violation(coeff, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(SU2_GAP).replace('"coeff": [1, 0]', coeff, 1))
    assert cli.main(["analyze", "--spec", str(path), "--cutoff", "30"]) == 2
    assert any("operator.poly[0]" in v and "finite" in v for v in _violations(capsys))


@pytest.mark.parametrize("coeff", ["[1" + "0" * 308 + ", 0]", "[1e308, 0]"])
def test_cli_merged_coefficient_beyond_float_range_is_schema_violation(coeff, tmp_path,
                                                                     capsys):
    # each term is within float range; the two terms of equal degrees add up past it
    term = f'{{"coeff": {coeff}, "deg_neglap": 1}}'
    path = tmp_path / "merged.json"
    path.write_text('{"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", '
                    f'"poly": [{term}, {term}]}}}}')
    assert cli.main(["analyze", "--spec", str(path), "--cutoff", "30"]) == 2
    assert any("merged coefficient" in v and "float range" in v for v in _violations(capsys))


def test_cli_merged_coefficient_longer_than_text_is_schema_violation(tmp_path, capsys):
    # each literal's integers have 3000 digits, within Python's 4300; the two
    # terms of equal degrees merge into a coefficient of about 6000-digit
    # integers, which the report could not echo
    nines = "9" * 3000
    poly = [{"coeff_real": f"({nines}+1*sqrt(5))/{nines[:-1]}1", "deg_neglap": 1},
            {"coeff_real": f"({nines[:-1]}7+1*sqrt(5))/{nines[:-1]}3", "deg_neglap": 1}]
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"model": {"kind": "su2"},
                                "operator": {"kind": "su2_diag", "poly": poly}}))
    assert cli.main(["analyze", "--spec", str(path), "--cutoff", "30"]) == 2
    assert _violations(capsys) == [
        "operator.poly: the merged coefficient of degrees (0, 1) has more than "
        f"{sys.get_int_max_str_digits()} digits, Python's limit for int text"]


def test_cli_symbol_values_beyond_float_range_are_precondition(tmp_path, capsys):
    # the coefficient is finite, its products with (i xi)^2 are not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"model": {"kind": "torus2"}, "operator": {
        "kind": "torus_poly", "terms": [{"coeff": [1e307, 0], "deg_t": 2, "deg_x": 0}]}}))
    for command in ("analyze", "singular-scan", "fit-exponent", "subelliptic"):
        assert cli.main([command, "--spec", str(path), "--cutoff", "50"]) == 3
        err = json.loads(capsys.readouterr().err)  # the payload alone, no numpy warning
        assert "beyond float range" in err["error"]


def _torus_table_spec(tmp_path, options=None) -> str:
    """A torus table with gain 1 + lambda, except 1e-9 at (1, 0)."""
    entries = [{"label": [xi, eta], "matrix": [[[1.0 + xi * xi + eta * eta, 0.0]]]}
               for xi in range(-4, 5) for eta in range(-4, 5) if xi * xi + eta * eta <= 20]
    entries[[e["label"] for e in entries].index([1, 0])]["matrix"] = [[[1e-9, 0.0]]]
    (tmp_path / "table.json").write_text(json.dumps({"entries": entries}))
    doc = {"model": {"kind": "torus2"}, "operator": {"kind": "matrix_table", "path": "table.json"},
           "options": options or {}}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    return str(tmp_path / "spec.json")


def test_cli_tol_reaches_subelliptic_and_fit_exponent(tmp_path, capsys):
    def run(*args, options=None):
        spec = _torus_table_spec(tmp_path, options)
        assert cli.main([args[0], "--spec", spec, "--cutoff", "20", *args[1:]]) == 0
        return json.loads(capsys.readouterr().out)

    assert run("subelliptic", "--probes", "1")["report"]["kernel_dim"] == 0
    assert run("subelliptic", "--probes", "1", "--tol", "1e-6")["report"]["kernel_dim"] == 1
    assert run("subelliptic", "--probes", "1", options={"tol": 1e-6})["report"]["kernel_dim"] == 1
    assert run("fit-exponent")["fit"]["R"] == 0
    # (1, 0) is ordinal 4: the fit starts past it
    assert run("fit-exponent", "--tol", "1e-6")["fit"]["R"] == 5
    assert run("fit-exponent", options={"tol": 1e-6})["fit"]["R"] == 5


def test_matrix_table_path_is_kept_out_of_equality(tmp_path):
    (tmp_path / "table.json").write_text('{"entries": [{"label": 0, "matrix": [[[2, 0]]]}]}')
    parsed = parse_spec({"model": {"kind": "su2"},
                         "operator": {"kind": "matrix_table", "path": "table.json"}},
                        base_dir=str(tmp_path))
    assert parsed.operator.path == "table.json"
    assert emit_spec(parsed)["operator"] == {"kind": "matrix_table", "path": "table.json"}
    assert parsed.operator == MatrixTable("su2", {Su2Label(0): [[2.0]]}, path="other.json")
    assert MatrixTable("su2", {Su2Label(0): [[2.0]]}).path == ""


def test_cli_cutoff_defaults_from_spec_options(tmp_path):
    doc = dict(SU2_GAP, options={"cutoff": 600})
    path = tmp_path / "with_options.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", "--spec", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cutoff"] == 600.0


def test_cli_search_exhausted_exit_code(tmp_path):
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({
        "model": {"kind": "torus2"},
        "operator": {"kind": "torus_poly",
                     "terms": [{"coeff": [1, 0], "deg_t": 0, "deg_x": 0}]},
    }))
    proc = run_cli("counterexample", "--spec", str(ident), "--cutoff", "100",
                   "--k", "2")
    assert proc.returncode == 4


def test_cli_precision_exit_code():
    # radius 8 reaches (-2, 6) whose objective interval overlaps (-1, 3)'s:
    # the enclosure cannot order them
    proc = run_cli("torus-gain", "--c", "dec:0.3333~1e-2", "--radius", "8")
    assert proc.returncode == 5


def test_cli_counterexample_small_k_degrades_classification(tmp_path):
    spec = tmp_path / "res.json"
    spec.write_text(json.dumps({
        "model": {"kind": "torus2"},
        "operator": {"kind": "torus_poly",
                     "terms": [{"coeff": [1, 0], "deg_t": 1, "deg_x": 0},
                               {"coeff": [1, 0], "deg_t": 0, "deg_x": 1}]},
    }))
    proc = run_cli("counterexample", "--spec", str(spec), "--cutoff", "10000",
                   "--k", "4")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["certificates"]) == 4
    assert "error" in doc["field_regularity"]


def test_cli_missing_spec_file_named():
    proc = run_cli("analyze", "--spec", "no_such_spec.json", "--cutoff", "10")
    assert proc.returncode == 2
    assert "not found" in json.loads(proc.stderr)["violations"][0]


def _json_error(stderr: str, kind: str) -> str:
    payload = json.loads(stderr)  # the whole of stderr: no traceback
    assert payload["kind"] == kind
    return payload["error"]


@pytest.mark.parametrize("case", ["directory", "UTF-16"])
def test_cli_spec_file_that_cannot_be_read_is_schema_violation(case, tmp_path):
    spec = tmp_path / "spec.json"
    if case == "directory":
        spec.mkdir()
    else:
        spec.write_bytes(b"\xff\xfe" + json.dumps(SU2_GAP).encode("utf-16-le"))
    proc = run_cli("analyze", "--spec", str(spec), "--cutoff", "10")
    assert proc.returncode == 2
    assert _json_error(proc.stderr, "SpecFileError").startswith(
        f"spec file {str(spec)!r}: cannot read (")


def test_cli_spec_file_without_read_permission_is_schema_violation(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SU2_GAP))
    real_open = builtins.open

    def refusing_open(file, *args, **kwargs):
        # as a file of mode 000 refuses every user but root
        if str(file) == str(spec):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing_open)
    assert cli.main(["analyze", "--spec", str(spec), "--cutoff", "10"]) == 2
    assert _json_error(capsys.readouterr().err, "SpecFileError") == (
        f"spec file {str(spec)!r}: cannot read ([Errno 13] Permission denied: {str(spec)!r})")


@pytest.mark.parametrize("case", ["missing directory", "directory"])
def test_cli_out_that_cannot_be_written_is_precondition(case, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SU2_GAP))
    if case == "directory":
        out = failing = tmp_path / "out"
        out.mkdir()
    else:  # the gains sidecar is written first
        out = tmp_path / "missing" / "r.json"
        failing = tmp_path / "missing" / "r.json.gains.csv"
    proc = run_cli("analyze", "--spec", str(spec), "--cutoff", "10", "--out", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert _json_error(proc.stderr, "PreconditionError").startswith(
        f"output file {str(failing)!r}: cannot write (")


def test_cli_counterexample_writes_coefficients(tmp_path):
    spec = tmp_path / "res.json"
    spec.write_text(json.dumps({
        "model": {"kind": "torus2"},
        "operator": {"kind": "torus_poly",
                     "terms": [{"coeff": [1, 0], "deg_t": 1, "deg_x": 0},
                               {"coeff": [1, 0], "deg_t": 0, "deg_x": 1}]},
    }))
    out = tmp_path / "ce.json"
    proc = run_cli("counterexample", "--spec", str(spec), "--cutoff", "200",
                   "--k", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["certificates"]) == 10
    assert all(c["exact"] and c["image_norm"] == 0.0 for c in doc["certificates"])
    assert doc["field_regularity"]["kind"] == "distribution_order"
    assert doc["image_regularity"]["kind"] == "smooth_evidence"
    rows = (tmp_path / "ce.json.coeffs.csv").read_text().splitlines()
    assert rows[0] == "ordinal,label,component_index,re,im"
    assert len(rows) == 11


def test_cli_counterexample_honours_tol(tmp_path, capsys):
    # the float gain 0.3334 at (0, -1) is below (1 + 1)^{-1} but not below
    # half of it; with tol = 0.5 no frequency qualifies for step 2
    def spec(options):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"model": {"kind": "torus2"}, "options": options,
                                    "operator": {"kind": "torus_poly", "terms": [
                                        {"coeff": [1, 0], "deg_t": 1},
                                        {"coeff": [0.3334, 0], "deg_x": 1}]}}))
        return ["counterexample", "--spec", str(path), "--cutoff", "400", "--k", "2"]

    assert cli.main(spec({})) == 0
    assert cli.main(spec({}) + ["--tol", "0.5"]) == 4
    assert cli.main(spec({"tol": 0.5})) == 4
    capsys.readouterr()
    for argv in (spec({}) + ["--tol=-1e-9"], spec({"tol": -1})):
        assert cli.main(argv) == 2
        assert any("nonnegative" in v for v in _violations(capsys))


def test_cli_counterexample_image_norm_beyond_float_range(tmp_path):
    # the float values at the Pell levels l = 8 and 49 overflow; the exact
    # entries vanish and give the image norm.  A float certificate whose
    # image leaves float range is a precondition violation.
    def spec(terms):
        path = tmp_path / "big.json"
        path.write_text('{"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", "poly": ['
                        + ", ".join(terms) + "]}}")
        return run_cli("counterexample", "--spec", str(path), "--cutoff", "2550", "--k", "3")

    big = 10**307
    proc = spec([f'{{"coeff": [{big}, 0], "deg_d0": 0, "deg_neglap": 1}}',
                 f'{{"coeff": [{2 * big}, 0], "deg_d0": 2, "deg_neglap": 0}}'])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_no_constant)
    assert [(c["label"], c["image_norm"], c["exact"]) for c in doc["certificates"]] == [
        ("l=1", 0.0, True), ("l=8", 0.0, True), ("l=49", 0.0, True)]
    proc = spec(['{"coeff": [0.001, 0], "deg_d0": 0, "deg_neglap": 0}',
                 '{"coeff": [1e308, 0], "deg_d0": 2, "deg_neglap": 1}'])
    assert proc.returncode == 3 and proc.stdout == ""
    assert "image norm" in json.loads(proc.stderr)["error"]


def test_cli_counterexample_image_regularity_beyond_float_range(tmp_path):
    # 10^307 (negLap + 2 d0^2): the float image is nan at l = 8 and 49, the
    # exact image vanishes at all three levels, and the image regularity reads so
    big = 10**307
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", "poly": [
        {"coeff": [big, 0], "deg_d0": 0, "deg_neglap": 1},
        {"coeff": [2 * big, 0], "deg_d0": 2, "deg_neglap": 0}]}}))
    proc = run_cli("counterexample", "--spec", str(path), "--cutoff", "2550", "--k", "3")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_no_constant)
    assert [c["exact"] for c in doc["certificates"]] == [True, True, True]
    assert doc["image_regularity"] == {"constant": 0.0, "cutoff": 2450.0, "exponent": 10,
                                       "kind": "smooth_evidence", "n_probe": 10,
                                       "note": "field vanishes on the window"}
    assert doc["field_regularity"] == {
        "error": "classification needs at least 8 nonzero frequencies, found 3"}


def test_cli_diophantine_classification():
    proc = run_cli("diophantine", "--c", "(0+1*sqrt(2))/1", "--cf-terms", "12",
                   "--liouville-nmax", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["classification"]["kind"] == "irrational_evidence"
    assert doc["continued_fraction"]["quotients"][:4] == [1, 2, 2, 2]
    assert doc["liouville_witnesses"] == []


def test_cli_singular_scan(su2_gap_spec):
    proc = run_cli("singular-scan", "--spec", su2_gap_spec, "--cutoff", "2550")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [s["label"] for s in doc["singular"]] == ["l=0"]


def test_cli_fit_exponent(su2_gap_spec):
    proc = run_cli("fit-exponent", "--spec", su2_gap_spec, "--cutoff", "40200")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 0.9 <= doc["fit"]["m"] <= 1.05
    assert doc["h_hat"] == doc["fit"]["m"]


def test_cli_fit_exponent_certified_family(tmp_path):
    spec = tmp_path / "pell.json"
    spec.write_text(json.dumps({
        "model": {"kind": "su2"},
        "operator": {"kind": "su2_diag", "poly": [
            {"coeff": [1, 0], "deg_neglap": 1},
            {"coeff": [2, 0], "deg_d0": 2},
        ]},
    }))
    proc = run_cli("fit-exponent", "--spec", str(spec), "--cutoff", "90300")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["h_hat"] == "-inf" and doc["fit"] is None


def test_cli_subelliptic_probes(su2_gap_spec):
    proc = run_cli("subelliptic", "--spec", su2_gap_spec, "--cutoff", "600",
                   "--s", "0", "--m", "1", "--probes", "25", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["report"]["c_star"] == pytest.approx(1 / 7**0.5, rel=1e-9)
    assert doc["probes"]["alpha_failures"] == 0
    assert doc["probes"]["beta_failures"] == 0
    assert doc["witness_check"]["passed"]


# ---------------------------------------------------------------------------
# CSV sidecars against a csv.writer row loop


def _reference_gains_csv(path, table):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ordinal", "label", "lambda", "dim", "gain", "opnorm"])
        for i in range(len(table)):
            f = table.window.freq(i)
            writer.writerow([f.j, str(f.label), repr(f.lam), f.dim,
                             repr(float(table.gain[i])), repr(float(table.opnorm[i]))])


def _reference_coeffs_csv(path, field, cutoff):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ordinal", "label", "component_index", "re", "im"])
        for freq, vec in field.window(cutoff):
            for k, z in enumerate(vec):
                writer.writerow(
                    [freq.j, str(freq.label), k, repr(float(z.real)), repr(float(z.imag))]
                )


@pytest.mark.parametrize("spec, cutoff, chunk, quirk", [
    # about 18.8k rows, more than one chunk; quoted labels with negative entries
    (TORUS_PHI_FLOAT, 6000, None, b'\r\n1,"(-1,0)",1.0,1,'),
    # half-integer labels
    (SU2_GAP, 2550, 7, b"\r\n1,l=1/2,0.75,4,"),
])
def test_gains_csv_matches_csv_writer(spec, cutoff, chunk, quirk, tmp_path, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    parsed = parse_spec(spec)
    table = gain_table(build_symbol(parsed.operator), cutoff)
    assert len(table) > cli.CSV_CHUNK_ROWS
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    _reference_gains_csv(ref, table)
    cli._write_gains_csv(str(out), table)
    data = out.read_bytes()
    assert data == ref.read_bytes()
    assert quirk in data


def test_coeffs_csv_matches_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 5)
    rng = np.random.default_rng(4)
    # signed zero, extreme exponents and integral values lead each vector
    odd = np.array([-0.0, 1e-300, 1e300, 3.0, -2.5])
    for labels in ([Torus2Label(-3, 1), Torus2Label(0, 0), Torus2Label(2, -7)],
                   [Su2Label(1), Su2Label(4), Su2Label(5)]):
        data = {}
        for lab in labels:
            n = lab.rep_dim() ** 2
            vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            k = min(n, len(odd))
            vec[:k] = odd[:k] - 1j * odd[::-1][:k]
            data[lab] = vec
        field = CoefficientField.from_dict(data)
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        _reference_coeffs_csv(ref, field, 100.0)
        cli._write_coeffs_csv(str(out), field, 100.0)
        assert out.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# fuzzed numeric inputs: an exit code and a JSON document, never a traceback


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


_FLAG_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, -1.0, -1e-9, 0.0, 2000.0]),
    st.floats(),
)


@settings(max_examples=50, deadline=None)
@given(
    command=st.sampled_from(["analyze", "singular-scan", "fit-exponent", "subelliptic",
                             "counterexample"]),
    model=st.sampled_from(["torus2", "su2"]),
    mantissa=st.integers(-9, 9),
    exponent=st.integers(0, 400),
    as_float=st.booleans(),
    degree=st.integers(0, 2),
    cutoff=st.floats(0.5, 50),
    probes=st.integers(0, 2),
    flags=st.fixed_dictionaries({}, optional={"tol": _FLAG_FLOATS, "s": _FLAG_FLOATS,
                                              "m": _FLAG_FLOATS}),
)
def test_cli_numeric_inputs_give_an_exit_code_and_json(command, model, mantissa, exponent,
                                                       as_float, degree, cutoff, probes, flags):
    coeff = f"{mantissa}e{exponent}" if as_float else str(mantissa * 10**exponent)
    if model == "torus2":
        operator = ('{"kind": "torus_poly", "terms": ['
                    f'{{"coeff": [{coeff}, 0], "deg_t": {degree}, "deg_x": 0}}, '
                    '{"coeff": [0, 1], "deg_t": 0, "deg_x": 1}]}')
    else:
        operator = ('{"kind": "su2_diag", "poly": ['
                    f'{{"coeff": [0, {coeff}], "deg_d0": {degree}, "deg_neglap": 0}}, '
                    '{"coeff": [1, 0], "deg_d0": 0, "deg_neglap": 1}]}')
    spec = f'{{"model": {{"kind": "{model}"}}, "operator": {operator}}}'
    argv = [command, "--spec", spec, f"--cutoff={cutoff!r}"]
    if command != "subelliptic":
        flags = {k: v for k, v in flags.items() if k == "tol"}
    argv += [f"--{k}={v!r}" for k, v in flags.items()]
    if command == "subelliptic":
        argv += ["--probes", str(probes)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    # a counterexample search may also run out of frequencies
    assert code in ((0, 2, 3, 4) if command == "counterexample" else (0, 2, 3)), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        payload = json.loads(err.getvalue())
        assert set(payload) <= {"error", "kind", "violations"} and out.getvalue() == ""


# fuzzed spec structure outside matrix tables: operator terms and options

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
# stands for JSON nested far deeper than the parser's recursion limit
_DEEP = "@deep@"
_BAD_DEGREE = st.one_of(st.integers(-3, -1), st.integers(9, 10**30), st.booleans(),
                        st.floats(0, 3), st.text(max_size=2), _JUNK, st.just(_DEEP))
_BAD_NUMBER = st.one_of(st.sampled_from([10**400, -(10**400), 1e308, -1.0, 0, -0.0, 2**63,
                                         math.nan, math.inf, True]),
                        st.floats(), _JUNK)
_LITERALS = st.sampled_from(["1/3", "-2", "(1+1*sqrt(5))/2", "(1+1*sqrt(4))/0", "1/0",
                             "(1+1*sqrt(0))/2", "dec:1.5~0.1", "dec:1e999999999~1",
                             "dec:1~1e-1_000_000_000", "1" * 5000, "1e5", "", "sqrt(2)",
                             "x"]) | st.text(max_size=6)


@st.composite
def _specs(draw):
    """The JSON text of a well-formed polynomial spec, then up to three
    defects: bad or missing degrees and coefficients, extra keys, junk or
    deeply nested lists in place of a term, the term list, the operator, the
    model or the options, and bad option values."""
    model = draw(st.sampled_from(["torus2", "su2"]))
    kind, terms_key, degrees = (("torus_poly", "terms", ("deg_t", "deg_x")) if model == "torus2"
                                else ("su2_diag", "poly", ("deg_d0", "deg_neglap")))
    terms = [{"coeff": [draw(st.integers(-3, 3)), draw(st.integers(-3, 3))],
              degrees[0]: draw(st.integers(0, 2)), degrees[1]: draw(st.integers(0, 2))}
             for _ in range(draw(st.integers(1, 3)))]
    operator = {"kind": kind, terms_key: terms}
    options = draw(st.fixed_dictionaries({}, optional={
        "cutoff": st.floats(0.5, 40), "tol": st.sampled_from([1e-12, 1e-6, 0.0]),
        "s": st.floats(-2, 2), "m": st.floats(0, 2), "k": st.integers(1, 3)}))
    spec = {"model": {"kind": model}, "operator": operator, "options": options}
    for _ in range(draw(st.integers(0, 3))):
        term = draw(st.sampled_from([t for t in terms if isinstance(t, dict)] or [{}]))
        defect = draw(st.sampled_from([
            "degree", "no degree", "coeff", "no coeff", "literal", "both coeffs", "term key",
            "term", "terms", "no terms", "operator key", "kind", "operator", "model", "option",
            "cutoff", "option key", "options", "top key"]))
        if defect == "degree":
            term[draw(st.sampled_from(degrees))] = draw(_BAD_DEGREE)
        elif defect == "no degree":
            term.pop(draw(st.sampled_from(degrees)), None)
        elif defect == "coeff":
            term["coeff"] = draw(st.one_of(st.lists(_BAD_NUMBER, max_size=3), _BAD_NUMBER))
        elif defect == "no coeff":
            term.pop("coeff", None)
        elif defect == "literal":
            term.pop("coeff", None)
            term[draw(st.sampled_from(["coeff_real", "coeff_imag"]))] = draw(_LITERALS | _JUNK)
        elif defect == "both coeffs":
            term["coeff_real"] = "1/2"
        elif defect == "term key":
            term[draw(st.text(max_size=4))] = draw(_JUNK)
        elif defect == "term":
            terms[draw(st.integers(0, len(terms) - 1))] = draw(_JUNK | st.just(_DEEP))
        elif defect == "terms":
            operator[terms_key] = draw(st.one_of(st.just([]), _JUNK))
        elif defect == "no terms":
            operator.pop(terms_key, None)
        elif defect == "operator key":
            operator[draw(st.text(max_size=4))] = draw(_JUNK)
        elif defect == "kind":
            operator["kind"] = draw(st.one_of(
                st.sampled_from(["torus_poly", "su2_diag", "matrix_table"]), _JUNK))
        elif defect == "operator":
            spec["operator"] = draw(_JUNK | st.just(_DEEP))
        elif defect == "model":
            spec["model"] = draw(st.one_of(st.fixed_dictionaries(
                {"kind": st.sampled_from(["torus2", "su2"])}, optional={"extra": _JUNK}), _JUNK))
        elif defect == "option":
            options[draw(st.sampled_from(["tol", "s", "m", "k"]))] = draw(_BAD_NUMBER)
        elif defect == "cutoff":
            # no finite cutoff whose window would fit the address space: nothing
            # bounds that memory yet, so only cutoffs refused at once are drawn
            options["cutoff"] = draw(st.sampled_from(
                [10**400, -(10**400), 1e308, 2**63, 1e20, -1.0, 0, -0.0, math.nan, math.inf,
                 True, "1", None, [1]]))
        elif defect == "option key":
            options[draw(st.text(max_size=4))] = draw(_JUNK)
        elif defect == "options":
            spec["options"] = draw(_JUNK)
        else:
            spec[draw(st.text(max_size=4))] = draw(_JUNK)
    depth = draw(st.sampled_from([3, 10**5]))
    return json.dumps(spec).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


@settings(max_examples=300, deadline=None)
@given(spec=_specs(),
       command=st.sampled_from(["analyze", "singular-scan", "fit-exponent", "counterexample",
                                "subelliptic"]),
       cutoff=st.sampled_from([None, "2", "30"]))
def test_cli_spec_structure_gives_an_exit_code_and_json(spec, command, cutoff, tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(spec)
    argv = [command, "--spec", str(path)] + ([f"--cutoff={cutoff}"] if cutoff else [])
    if command == "subelliptic":
        argv += ["--probes", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # a counterexample search may also run out of frequencies
    assert code in ((0, 2, 3, 4) if command == "counterexample" else (0, 2, 3)), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        payload = json.loads(err.getvalue())
        assert set(payload) <= {"error", "kind", "violations"} and out.getvalue() == ""


@pytest.mark.parametrize("model", ["torus2", "su2"])
@pytest.mark.parametrize("cutoff", [1e308, 1e20])
def test_cli_window_beyond_any_allocation_is_precondition(model, cutoff, capsys):
    kind, key = ("torus_poly", "terms") if model == "torus2" else ("su2_diag", "poly")
    spec = (f'{{"model": {{"kind": "{model}"}}, "operator": {{"kind": "{kind}", '
            f'"{key}": [{{"coeff": [1, 0]}}]}}, "options": {{"cutoff": {cutoff!r}}}}}')
    assert cli.main(["analyze", "--spec", spec]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"the window of cutoff {cutoff!r} is too large to enumerate")


def test_cli_zero_operator_report_is_json(capsys):
    # the zero symbol has no norm growth; its order is an error, not -Infinity
    spec = ('{"model": {"kind": "torus2"}, "operator": {"kind": "torus_poly", '
            '"terms": [{"coeff": [0, 0], "deg_t": 1}]}}')
    assert cli.main(["analyze", "--spec", spec, "--cutoff", "2"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert report["order"] == {"error": "the symbol vanishes on the window: its norm has no order"}


@pytest.mark.parametrize("where", ["spec", "table"])
def test_cli_deeply_nested_json_is_schema_violation(where, tmp_path, capsys):
    deep = "[" * 10**5 + "]" * 10**5
    (tmp_path / "table.json").write_text(f'{{"entries": {deep}}}')
    operator = ('{"kind": "matrix_table", "path": "table.json"}' if where == "table"
                else deep)
    (tmp_path / "spec.json").write_text(f'{{"model": {{"kind": "su2"}}, "operator": {operator}}}')
    assert cli.main(["analyze", "--spec", str(tmp_path / "spec.json"), "--cutoff", "2"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert "invalid JSON" in payload["violations"][0]

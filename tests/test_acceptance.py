"""Acceptance suite: the seven exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (with runtime) for its criterion and
fails hard when any sub-check misses its tolerance or time limit.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import hyposym as hs
from hyposym.cli import main as cli_main
from conftest import su2_laplace_minus_axis_sq, torus_translation
from oracles import brute_pell_su2_levels, sphere_gain_oracle


def _report(num: int, name: str, elapsed: float, limit: float) -> None:
    line = f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)"
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded its time limit: {line}"


def test_acceptance_1_pell_family(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "pell.json"
    code = cli_main(["pell", "--d", "8", "--count", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [(s["u"], s["m"]) for s in doc["solutions"]] == [
        (3, 1), (17, 6), (99, 35), (577, 204)
    ]
    derived = [s["singular_level_twice_ell"] for s in doc["solutions"]]
    assert derived == [2, 16, 98, 576]  # ell = 1, 8, 49, 288
    # brute-force scan of min over m of |l(l+1) - 2 m^2| = 0, l <= 300 in
    # half-integer steps, exact integer arithmetic
    assert brute_pell_su2_levels(600) == derived
    _report(1, "Pell family d=8", time.perf_counter() - t0, 1.0)


def test_acceptance_2_neutral_operator(tmp_path):
    t0 = time.perf_counter()
    cutoff = 200 * 201  # levels up to ell = 200

    shifted = {
        "model": {"kind": "su2"},
        "operator": {"kind": "su2_diag", "poly": [
            {"coeff": [1, 0], "deg_d0": 1},
            {"coeff_imag": "-1/2"},
        ]},
    }
    spec_a = tmp_path / "half.json"
    spec_a.write_text(json.dumps(shifted))
    out_a = tmp_path / "half.out.json"
    assert cli_main(["analyze", "--spec", str(spec_a), "--cutoff", str(cutoff),
                     "--out", str(out_a)]) == 0
    doc = json.loads(out_a.read_text())
    assert doc["verdict"]["kind"] == "certified_not_gh"
    witnesses = doc["verdict"]["certificate"]["witnesses"]
    assert len(witnesses) >= 3
    assert all(w["exact_zero"] for w in witnesses)

    real_shift = {
        "model": {"kind": "su2"},
        "operator": {"kind": "su2_diag", "poly": [
            {"coeff": [1, 0], "deg_d0": 1},
            {"coeff": [1, 0]},
        ]},
    }
    spec_b = tmp_path / "one.json"
    spec_b.write_text(json.dumps(real_shift))
    out_b = tmp_path / "one.out.json"
    assert cli_main(["analyze", "--spec", str(spec_b), "--cutoff", str(cutoff),
                     "--out", str(out_b)]) == 0
    doc = json.loads(out_b.read_text())
    assert doc["verdict"]["kind"] == "empirical_gh"
    assert abs(doc["verdict"]["fit"]["m"]) <= 0.05
    _report(2, "neutral operator shifts", time.perf_counter() - t0, 5.0)


def test_acceptance_3_gap_operator():
    t0 = time.perf_counter()
    cutoff = 200 * 201
    sym = hs.build_symbol(su2_laplace_minus_axis_sq())
    hits = hs.singular_scan(hs.gain_table(sym, cutoff))
    assert [f.label.twice_ell for f in hits] == [0]
    h_hat = hs.estimate_h(su2_laplace_minus_axis_sq(), cutoff)
    assert 0.9 <= h_hat <= 1.05
    _report(3, "spectral gap exponent", time.perf_counter() - t0, 10.0)


def test_acceptance_4_torus_families():
    t0 = time.perf_counter()

    v = hs.verdict(hs.gain_table(hs.build_symbol(torus_translation(Fraction(3, 7))), 10_000))
    assert v.kind == "certified_not_gh"
    labels = [(w.label.xi, w.label.eta) for w in v.certificate.witnesses]
    assert labels == [(-3, 7), (-6, 14), (-9, 21)]
    assert all(w.exact_zero for w in v.certificate.witnesses)

    phi = hs.parse_real("(1+1*sqrt(5))/2")
    v = hs.verdict(hs.gain_table(hs.build_symbol(torus_translation(phi)), 1_000_000))
    assert v.kind == "empirical_gh"
    assert abs(v.h_hat - (-1.0)) <= 0.1

    res = hs.torus_min_gain(phi, 13, -1)
    assert res.argmin == (-8, 5)
    expected = hs.Surd.make(Fraction(-11, 2), Fraction(5, 2), 5)  # |5 phi - 8|
    assert res.exact_gain == expected
    assert res.gain_lo <= expected <= res.gain_hi
    assert res.gain_hi - res.gain_lo < Fraction(1, 10**30)
    _report(4, "torus coefficient families", time.perf_counter() - t0, 30.0)


def test_acceptance_5_counterexample_constructor():
    t0 = time.perf_counter()
    sym = hs.build_symbol(torus_translation(1))
    result = hs.build_counterexample(sym, 10, 200)
    assert len(result.certificates) == 10
    for cert in result.certificates:
        assert cert.exact
        assert cert.image_norm == 0.0
        assert 0.0 < cert.bound
    for freq in result.frequencies:
        assert np.linalg.norm(result.field.coeff(freq)) == pytest.approx(1.0, abs=1e-14)
    f_kind = hs.classify_regularity(result.field, 200, n_probe=10)
    assert f_kind.kind != "smooth_evidence"
    image = hs.apply_symbol(sym, result.field, 200)
    image_kind = hs.classify_regularity(image, 200, n_probe=10)
    assert image_kind.kind == "smooth_evidence"
    _report(5, "counterexample constructor", time.perf_counter() - t0, 1.0)


def test_acceptance_6_subelliptic_constant():
    t0 = time.perf_counter()
    cutoff = 50 * 51
    sym = hs.build_symbol(su2_laplace_minus_axis_sq())
    report = hs.best_alpha_constant(sym, 0.0, 1.0, cutoff)
    assert abs(report.c_star - 1 / math.sqrt(7)) <= 1e-9 / math.sqrt(7)

    values = [hs.best_alpha_constant(sym, s, 1.0, cutoff).c_star
              for s in (-1.0, 0.0, 2.0)]
    assert max(values) - min(values) <= 1e-12 * max(values)

    kernel = hs.kernel_on_truncation(sym, cutoff)
    window = hs.Window(hs.SU2, cutoff)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        probe = hs.random_field(window, rng, n_support=5)
        chk = hs.check_alpha(sym, probe, 0.0, 1.0, report.c_star, kernel=kernel)
        assert chk.passed
    _report(6, "exact subelliptic constant", time.perf_counter() - t0, 10.0)


def test_acceptance_7_oracle_equivalence():
    t0 = time.perf_counter()

    # smallest gain against the sphere-sampling oracle
    rng = np.random.default_rng(99)
    for i in range(200):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(hs.smallest_gain(a) - sphere_gain_oracle(a, seed=i)) <= 1e-6

    # Pell generator against brute force u <= 10^4
    from oracles import brute_pell_solutions

    for d in (2, 3, 5, 6, 7, 8, 10, 13):
        brute = brute_pell_solutions(d, 10**4)
        gen = [(s.u, s.m) for s in hs.pell_solutions(d, 8) if s.u <= 10**4]
        assert gen == brute

    # continued-fraction determinant identity, 500 exact cases
    import random

    rnd = random.Random(17)
    cases = [Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**6))
             for _ in range(250)]
    cases += [hs.Surd.make(Fraction(rnd.randint(-40, 40), rnd.randint(1, 12)),
                           Fraction(rnd.randint(1, 40), rnd.randint(1, 12)),
                           rnd.choice([2, 3, 5, 6, 7, 8, 10, 11]))
              for _ in range(250)]
    for value in cases:
        cf = hs.continued_fraction(value, 12)
        prev = (1, 0)
        for k, (p, q) in enumerate(cf.convergents):
            assert p * prev[1] - prev[0] * q == (-1) ** (k - 1)
            prev = (p, q)

    # Sobolev monotonicity in s over 1000 random fields
    rng = np.random.default_rng(5)
    window = hs.Window(hs.SU2, 20)
    for _ in range(1000):
        u = hs.random_field(window, rng, n_support=3)
        s = float(rng.uniform(-3, 3))
        delta = float(rng.uniform(0, 3))
        lo = hs.sobolev_norm(u, s, 20)
        hi = hs.sobolev_norm(u, s + delta, 20)
        assert lo <= hi * (1 + 1e-12)

    # linearity of symbol application, relative 1e-12
    sym = hs.build_symbol(su2_laplace_minus_axis_sq())
    freqs = hs.enumerate_frequencies(hs.SU2, 12)
    for seed in range(100):
        r = np.random.default_rng(seed)
        u = {f.label: r.standard_normal(f.dim) + 1j * r.standard_normal(f.dim)
             for f in freqs}
        v = {f.label: r.standard_normal(f.dim) + 1j * r.standard_normal(f.dim)
             for f in freqs}
        a, b = complex(*r.standard_normal(2)), complex(*r.standard_normal(2))
        combo = hs.CoefficientField.from_dict(
            {lab: a * u[lab] + b * v[lab] for lab in u})
        lhs = hs.apply_symbol(sym, combo, 12)
        fu = hs.apply_symbol(sym, hs.CoefficientField.from_dict(u), 12)
        fv = hs.apply_symbol(sym, hs.CoefficientField.from_dict(v), 12)
        for f in freqs:
            expect = a * fu.coeff(f) + b * fv.coeff(f)
            scale = max(1.0, float(np.linalg.norm(expect)))
            assert np.linalg.norm(lhs.coeff(f) - expect) <= 1e-12 * scale

    _report(7, "oracle equivalence suites", time.perf_counter() - t0, 60.0)

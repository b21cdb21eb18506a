import json
import time
from fractions import Fraction

import pytest

from hyposym import (
    TORUS2,
    Su2DiagPoly,
    Su2Label,
    Torus2Label,
    TorusPoly,
    Window,
    build_symbol,
    certify,
    estimate_h,
    fit_growth,
    gain_table,
    parse_real,
    parse_spec,
    singular_scan,
    verdict,
)
from hyposym import cli
from hyposym.errors import NoFitError, PreconditionError
from hyposym.symbols import Coefficient, su2_diag_exact

from conftest import (
    constant_one,
    su2_laplace_minus_axis_sq,
    su2_neutral_plus,
    su2_pell_operator,
    torus_translation,
)
from oracles import brute_pell_su2_levels, full_matrix, ordinals


# ---------------------------------------------------------------------------
# singular scans (brute-force derived expectations)


def test_scan_torus_antidiagonal(torus_resonant_symbol):
    hits = singular_scan(gain_table(torus_resonant_symbol, 200))
    labels = {(f.label.xi, f.label.eta) for f in hits}
    expected = {(0, 0)} | {(t, -t) for t in range(-10, 11) if t}
    assert labels == expected
    lams = [f.lam for f in hits]
    assert lams == sorted(lams)


def test_scan_su2_pell_levels(su2_pell_symbol):
    hits = singular_scan(gain_table(su2_pell_symbol, 300 * 301))
    assert [f.label.twice_ell for f in hits] == [0, 2, 16, 98, 576]
    # positive levels cross-checked against the exact weight-lattice scan
    assert [f.label.twice_ell for f in hits if f.lam > 0] == brute_pell_su2_levels(600)


def test_scan_su2_gap_only_origin(su2_gap_symbol):
    hits = singular_scan(gain_table(su2_gap_symbol, 100 * 101))
    assert [f.label.twice_ell for f in hits] == [0]


def test_scan_requires_positive_cutoff(su2_gap_symbol):
    with pytest.raises(PreconditionError):
        singular_scan(gain_table(su2_gap_symbol, 0))


# ---------------------------------------------------------------------------
# growth fits


def test_fit_identity_constant_gain():
    fit = fit_growth(gain_table(build_symbol(constant_one(TORUS2)), 300))
    assert fit.m == pytest.approx(0.0, abs=1e-9)
    assert fit.L == pytest.approx(1.0, rel=1e-9)
    assert fit.R == 0
    assert fit.residual <= 1e-12


def test_fit_su2_gap_exponent_one(su2_gap_symbol):
    fit = fit_growth(gain_table(su2_gap_symbol, 200 * 201))
    assert 0.9 <= fit.m <= 1.05
    assert fit.R == 1  # past the singular origin


def test_fit_satisfies_lower_bound_on_samples(su2_gap_symbol):
    table = gain_table(su2_gap_symbol, 200 * 201)
    fit = fit_growth(table)
    for i in range(len(table)):
        if ordinals(table)[i] >= fit.R:
            bound = fit.L * (1 + table.lam[i]) ** (fit.m / 2.0)
            assert table.gain[i] >= bound * (1 - 1e-9)


def test_fit_golden_ratio_slope_minus_one():
    phi = parse_real("(1+1*sqrt(5))/2")
    sym = build_symbol(torus_translation(phi))
    fit = fit_growth(gain_table(sym, 10_000))
    assert fit.m == pytest.approx(-1.0, abs=0.1)


def test_fit_rejects_all_singular():
    zero = TorusPoly.make([(Coefficient.make(0), 1, 0)])
    with pytest.raises(NoFitError):
        fit_growth(gain_table(build_symbol(zero), 100))


# ---------------------------------------------------------------------------
# exponent estimation


def test_estimate_h_su2_neutral_shift():
    assert estimate_h(su2_neutral_plus(1), 200 * 201) == pytest.approx(0.0, abs=0.05)


def test_estimate_h_certified_family_is_minus_inf():
    assert estimate_h(su2_pell_operator(), 300 * 301) == float("-inf")


def test_estimate_h_identity_zero():
    ident = TorusPoly.make([(Coefficient.make(1), 0, 0)])
    assert estimate_h(ident, 300) == pytest.approx(0.0, abs=0.05)


# ---------------------------------------------------------------------------
# certificates


def test_certify_rational_resonance():
    from hyposym import frequency_for_label, smallest_gain

    op = torus_translation(Fraction(3, 7))
    cert = certify(op)
    assert cert.family == "rational_resonance"
    assert [(w.label.xi, w.label.eta) for w in cert.witnesses] == [
        (-3, 7), (-6, 14), (-9, 21)
    ]
    assert all(w.exact_zero for w in cert.witnesses)
    # witnesses are singular under direct evaluation too (float roundoff
    # stays below the relative singular threshold; exactness lives in the
    # rational path asserted by exact_zero)
    for w in cert.witnesses:
        freq = frequency_for_label(w.label)
        assert smallest_gain(full_matrix(build_symbol(op), freq)) <= 1e-12


@pytest.mark.parametrize("a, b, ratio, direction", [
    (Fraction(1), Fraction(3, 7), "3/7", (-3, 7)),
    (Fraction(2, 3), Fraction(5, 7), "15/14", (-15, 14)),
    (Fraction(1), Fraction(2), "2", (-2, 1)),
    (Fraction(0), Fraction(1), "infinity", (1, 0)),
])
def test_rational_resonance_names_the_ratio(a, b, ratio, direction):
    # a d_t + b d_x, and the same times 1 + i: the rows of the real and
    # imaginary parts are parallel, so both certify with the ratio b / a
    for re, im in ((1, 0), (1, 1)):
        op = TorusPoly.make([(Coefficient.make(a * re, a * im), 1, 0),
                             (Coefficient.make(b * re, b * im), 0, 1)])
        cert = certify(op)
        assert cert.description.endswith(f"(rational ratio {ratio})")
        assert (cert.witnesses[0].label.xi, cert.witnesses[0].label.eta) == direction


def test_certify_pure_time_derivative():
    cert = certify(TorusPoly.make([(Coefficient.make(1), 1, 0)]))
    assert cert.family == "rational_resonance"
    assert [(w.label.xi, w.label.eta) for w in cert.witnesses] == [
        (0, 1), (0, 2), (0, 3)
    ]


def test_certify_imaginary_half_integer():
    cert = certify(su2_neutral_plus(Coefficient.make(0, Fraction(-1, 2))))
    assert cert.family == "imaginary_half_integer"
    assert [w.label.twice_ell for w in cert.witnesses] == [1, 3, 5]


def test_certify_plain_neutral_derivative():
    cert = certify(Su2DiagPoly.make([(Coefficient.make(1), 1, 0)]))
    assert cert.family == "imaginary_half_integer"
    assert [w.label.twice_ell for w in cert.witnesses] == [0, 2, 4]


@pytest.mark.parametrize("alpha", [(1, 0), (Fraction(3, 2), Fraction(1, 2)), (0, -2)])
@pytest.mark.parametrize("twice_m0", range(-5, 6))
def test_neutral_witnesses_equal_the_full_levels(alpha, twice_m0):
    # alpha d0 + q with q = -i alpha m0: entries i alpha (m - m0), zero at m0
    re, im = alpha
    m0 = Fraction(twice_m0, 2)
    op = Su2DiagPoly.make([(Coefficient.make(re, im), 1, 0),
                           (Coefficient.make(im * m0, -re * m0), 0, 0)])
    cert = certify(op)
    assert cert.family == "imaginary_half_integer"
    start = abs(twice_m0)
    assert [w.label for w in cert.witnesses] == [Su2Label(t) for t in (start, start + 2, start + 4)]
    for w in cert.witnesses:
        _, values = su2_diag_exact(op, w.label.twice_ell)
        assert w.exact_zero and w.entry_index == values.index((0, 0))
        assert values.count((0, 0)) == 1


def test_neutral_shift_at_1e9_certifies_from_one_entry_per_level(tmp_path, capsys):
    # d0 - 10^9 i: the witness levels hold 2*10^9 + 1 entries each, of which
    # only the one at m0 = 10^9 is evaluated
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps({"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", "poly": [
        {"coeff": [1, 0], "deg_d0": 1}, {"coeff_imag": "-1000000000"}]}}))
    start = time.perf_counter()
    assert cli.main(["analyze", "--spec", str(spec), "--cutoff", "10"]) == 0
    assert time.perf_counter() - start < 10.0  # about 0.1 s
    cert = json.loads(capsys.readouterr().out)["verdict"]["certificate"]
    assert cert["family"] == "imaginary_half_integer"
    assert [(w["label"], w["entry_index"]) for w in cert["witnesses"]] == [
        ("l=1000000000", 2 * 10**9), ("l=1000000001", 2 * 10**9 + 1),
        ("l=1000000002", 2 * 10**9 + 2)]


def test_certify_pell_family():
    cert = certify(su2_pell_operator())
    assert cert.family == "pell_family"
    assert [w.label.twice_ell for w in cert.witnesses] == [2, 16, 98]
    assert all(w.exact_zero for w in cert.witnesses)


def test_certify_negative_cases():
    assert certify(su2_neutral_plus(1)) is None  # real shift: hypoelliptic
    assert certify(su2_neutral_plus(Coefficient.make(0, Fraction(1, 3)))) is None
    assert certify(su2_laplace_minus_axis_sq()) is None  # ratio 1, not 2
    phi = parse_real("(1+1*sqrt(5))/2")
    assert certify(torus_translation(phi)) is None  # irrational ratio
    assert certify(torus_translation(2 + 3j)) is None  # independent rows


def test_certify_floats_never_certify():
    # 0.42857... is rational as a float, but floats are declared inexact
    assert certify(torus_translation(3 / 7)) is None
    assert certify(su2_neutral_plus(Coefficient.make(0.0, -0.5))) is None


def test_certify_scaled_families_still_fire():
    scaled = TorusPoly.make(
        [(Coefficient.make(Fraction(27, 10)), 1, 0),
         (Coefficient.make(Fraction(27, 10) * Fraction(3, 7)), 0, 1)]
    )
    cert = certify(scaled)
    assert cert is not None and cert.family == "rational_resonance"
    pell_scaled = Su2DiagPoly.make(
        [(Coefficient.make(Fraction(5, 3)), 0, 1),
         (Coefficient.make(Fraction(10, 3)), 2, 0)]
    )
    assert certify(pell_scaled).family == "pell_family"


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_su2_real_shift_empirical():
    v = verdict(gain_table(build_symbol(su2_neutral_plus(1)), 200 * 201))
    assert v.kind == "empirical_gh"
    assert v.h_hat == pytest.approx(0.0, abs=0.05)


def test_verdict_torus_imaginary_coefficient_empirical():
    v = verdict(gain_table(build_symbol(torus_translation(Coefficient.make(0, 1))), 3_000))
    assert v.kind == "empirical_gh"
    # gain sqrt(lambda) off the origin: the bound holds with every m <= 1
    assert v.h_hat >= 0.0


def test_verdict_rational_certified():
    liouville_prefix = sum(Fraction(1, 10**k) for k in (1, 2, 6, 24, 120, 720))
    v = verdict(gain_table(build_symbol(torus_translation(liouville_prefix)), 500))
    assert v.kind == "certified_not_gh"
    assert v.certificate.family == "rational_resonance"
    assert v.h_hat == float("-inf")


def test_verdict_float_rational_inconclusive_when_singular_persist():
    v = verdict(gain_table(build_symbol(torus_translation(3 / 7)), 10_000))
    assert v.kind == "inconclusive"
    assert any((f.label.xi, f.label.eta) == (-3, 7) for f in v.singular)


def test_verdict_scale_invariance_certified():
    base = torus_translation(Fraction(3, 7))
    scaled = TorusPoly.make(
        [(Coefficient.make(Fraction(-5, 2)), 1, 0),
         (Coefficient.make(Fraction(-5, 2) * Fraction(3, 7)), 0, 1)]
    )
    va = verdict(gain_table(build_symbol(base), 400))
    vb = verdict(gain_table(build_symbol(scaled), 400))
    assert va.kind == vb.kind == "certified_not_gh"
    assert va.certificate.family == vb.certificate.family


def test_verdict_composed_pell_operator_equals_parsed_spec():
    # negLap + 2 d0 o d0, built by operator algebra, is the parsed spec
    # negLap + 2 d0^2 term for term, so it gets the same exact certificate
    neg_lap = Su2DiagPoly.make([(Coefficient.make(1), 0, 1)])
    d0 = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    composed = neg_lap.add(d0.mul(d0).scale(2))
    parsed = parse_spec({"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", "poly": [
        {"coeff": [1, 0], "deg_d0": 0, "deg_neglap": 1},
        {"coeff": [2, 0], "deg_d0": 2, "deg_neglap": 0}]}}).operator
    assert composed == parsed
    va, vb = (verdict(gain_table(build_symbol(op), 2550)) for op in (composed, parsed))
    assert va.kind == "certified_not_gh"
    assert va.as_dict() == vb.as_dict()
    assert [w.label.twice_ell for w in va.certificate.witnesses] == [2, 16, 98]


def test_verdict_scale_invariance_empirical():
    base = verdict(gain_table(build_symbol(su2_neutral_plus(1)), 100 * 101))
    scaled_op = Su2DiagPoly.make(
        [(Coefficient.make(2.7), 1, 0), (Coefficient.make(2.7), 0, 0)]
    )
    scaled = verdict(gain_table(build_symbol(scaled_op), 100 * 101))
    assert base.kind == scaled.kind == "empirical_gh"
    assert scaled.h_hat == pytest.approx(base.h_hat, abs=1e-6)
    assert scaled.fit.L == pytest.approx(2.7 * base.fit.L, rel=1e-9)


def test_verdict_tiny_window_inconclusive():
    # singular origin plus only three usable levels: no fit is possible,
    # and the verdict must say so rather than extrapolate
    v = verdict(gain_table(build_symbol(su2_laplace_minus_axis_sq()), 4))
    assert v.kind == "inconclusive"
    assert "samples" in v.reason


def test_verdict_reads_the_upper_half_from_the_table_window():
    # the float translation by 1/2 is not certified; it vanishes at lambda =
    # 5 t^2, so a singular point lies in the upper half of every window
    table = gain_table(build_symbol(torus_translation(0.5)), 400)
    v = verdict(table)
    assert v.kind == "inconclusive"
    assert max(f.lam for f in v.singular) == 320.0
    for c in (0, 12.5, 400):
        assert Window(TORUS2, c).cutoff == c


def test_verdict_certifies_the_operator_of_the_table():
    op = torus_translation(Fraction(3, 7))
    v = verdict(gain_table(build_symbol(op), 400))
    assert v.kind == "certified_not_gh"
    assert v.certificate == certify(op)
    assert v.certificate.witnesses[0].label == Torus2Label(-3, 7)

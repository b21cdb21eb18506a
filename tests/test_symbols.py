import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    SU2,
    TORUS2,
    CoefficientField,
    MatrixTable,
    Su2DiagPoly,
    Su2Label,
    Torus2Label,
    TorusPoly,
    apply_symbol,
    build_symbol,
    enumerate_frequencies,
    estimate_order,
    frequency_for_label,
    smallest_gain,
    sobolev_norm,
)
from hyposym.errors import PreconditionError, WindowTooSmallError
from hyposym.exact import Surd, parse_real
from hyposym.specfile import MAX_DEGREE
from hyposym.symbols import Coefficient, exact_values, gain_table, su2_diag_exact

from conftest import constant_one, su2_laplace_minus_axis_sq, torus_translation
from oracles import (
    fraction_pairs,
    fraction_su2_diagonal,
    fraction_torus_value,
    full_matrix,
    operator_norm,
    sphere_gain_oracle,
)


# ---------------------------------------------------------------------------
# evaluation


def test_torus_translation_symbol_values():
    op = torus_translation(Fraction(3, 7))
    sym = build_symbol(op)
    for xi, eta in [(0, 0), (1, -1), (5, 7), (-3, 7)]:
        freq = frequency_for_label(Torus2Label(xi, eta))
        expected = 1j * (xi + (3 / 7) * eta)
        assert sym.diagonal(freq)[0] == pytest.approx(expected, abs=1e-12)


def test_su2_neutral_derivative_at_level_one():
    op = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    freq = frequency_for_label(Su2Label(2))
    full = full_matrix(build_symbol(op), freq)
    block = np.diag([-1j, 0, 1j])
    expected = np.kron(np.eye(3), block)
    assert np.allclose(full, expected, atol=1e-14)


def test_su2_gap_operator_entries():
    sym = build_symbol(su2_laplace_minus_axis_sq())
    freq = frequency_for_label(Su2Label(2))
    assert np.allclose(sym.diagonal(freq), [1, 2, 1], atol=1e-14)
    # exact path agrees: l(l+1) - m^2 = (T(T+2) - (2m)^2) / 4 with T = 2
    exact = sym.exact_diagonal(freq)
    assert exact == (4, [(4, 0), (8, 0), (4, 0)])
    assert fraction_pairs(exact) == [
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(0)),
    ]


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(
        st.tuples(_fractions, _fractions, st.integers(0, 5), st.integers(0, 3)), max_size=4
    ),
    twice_ell=st.integers(0, 40),
)
def test_su2_exact_diagonal_equals_termwise_sum(terms, twice_ell):
    # repeated (deg_d0, deg_neglap) pairs are kept, so the evaluator must add them
    op = Su2DiagPoly(tuple((Coefficient.make(re, im), a, b) for re, im, a, b in terms))
    lam = Fraction(twice_ell * (twice_ell + 2), 4)
    expected = []
    for t in range(-twice_ell, twice_ell + 1, 2):
        acc_re, acc_im = Fraction(0), Fraction(0)
        for re, im, a, b in terms:
            mag = Fraction(t, 2) ** a * lam**b
            i_re, i_im = [(1, 0), (0, 1), (-1, 0), (0, -1)][a % 4]
            acc_re += (re * i_re - im * i_im) * mag
            acc_im += (re * i_im + im * i_re) * mag
        expected.append((acc_re, acc_im))
    got = build_symbol(op).exact_diagonal(frequency_for_label(Su2Label(twice_ell)))
    assert fraction_pairs(got) == expected
    assert all(type(x) is int for x in (got[0], *(x for pair in got[1] for x in pair)))


def test_exact_evaluation_vanishes_at_resonance():
    op = torus_translation(Fraction(3, 7))
    sym = build_symbol(op)
    freq = frequency_for_label(Torus2Label(-3, 7))
    assert fraction_pairs(sym.exact_diagonal(freq)) == [(Fraction(0), Fraction(0))]
    assert sym.gain(freq) == pytest.approx(0.0, abs=1e-12)


def test_integral_form_folds_the_model_factors_into_integers():
    # (1+i) d_t + (3/7)(1+i) d_x: i (1+i) = -1 + i per term, over 7
    op = TorusPoly.make([(Coefficient.make(1, 1), 1, 0),
                         (Coefficient.make(Fraction(3, 7), Fraction(3, 7)), 0, 1)])
    assert op.integral_form == (7, ((-3, 3, 0, 1), (-7, 7, 1, 0)))
    # d0 - i/2 on SU(2): i m - i/2 = (i x - i) / 2 at x = 2m
    op = Su2DiagPoly.make([(Coefficient.make(1), 1, 0),
                           (Coefficient.make(0, Fraction(-1, 2)), 0, 0)])
    assert op.integral_form == (2, ((0, -1, 0, 0), (0, 1, 1, 0)))
    assert su2_diag_exact(op, 1) == (2, [(0, -2), (0, 0)])  # m = -1/2, 1/2
    # negLap + d0^2: y / 4 - x^2 / 4 with y = T(T+2)
    assert su2_laplace_minus_axis_sq().integral_form == (4, ((1, 0, 0, 1), (-1, 0, 2, 0)))


_EXACT_PARTS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.tuples(_EXACT_PARTS, _EXACT_PARTS, st.integers(0, MAX_DEGREE),
                             st.integers(0, MAX_DEGREE)), max_size=5),
    xs=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    eta=st.integers(-30, 30),
    twice_ell=st.integers(0, 31),
)
def test_exact_values_equal_the_fraction_evaluators(terms, xs, eta, twice_ell):
    # repeated degree pairs are kept, so the form must add them; an odd
    # twice_ell is a half-integer level
    coeffs = tuple((Coefficient.make(re, im), a, b) for re, im, a, b in terms)
    torus, su2 = TorusPoly(coeffs), Su2DiagPoly(coeffs)
    assert fraction_pairs(exact_values(torus, xs, eta)) == [
        fraction_torus_value(torus, x, eta) for x in xs]
    got = exact_values(su2, range(-twice_ell, twice_ell + 1, 2), twice_ell * (twice_ell + 2))
    assert got == su2_diag_exact(su2, twice_ell)
    assert fraction_pairs(got) == fraction_su2_diagonal(su2, twice_ell)


@pytest.mark.parametrize("poly", [TorusPoly, Su2DiagPoly])
def test_exact_values_of_a_coefficient_beyond_float_range(poly):
    p = poly.make([(Coefficient.make(10**200, Fraction(1, 3)), 0, 0),
                   (Coefficient.make(Fraction(-5, 7), 2), 1, 1), (Coefficient.make(1), 3, 0)])
    square = p.mul(p)
    assert square.coefficient(0, 0) == Coefficient.make(10**400 - Fraction(1, 9),
                                                        Fraction(2 * 10**200, 3))
    if poly is TorusPoly:
        for xi, eta in ((-7, 5), (0, 5), (11, -4)):
            assert fraction_pairs(exact_values(square, [xi], eta)) == [
                fraction_torus_value(square, xi, eta)]
    else:
        for twice_ell in (0, 3, 8):
            assert fraction_pairs(su2_diag_exact(square, twice_ell)) == fraction_su2_diagonal(
                square, twice_ell)


def test_irrational_or_float_parts_have_no_integral_form():
    phi = parse_real("(1+1*sqrt(5))/2")
    for poly in (TorusPoly, Su2DiagPoly):
        rational = (Coefficient.make(Fraction(3, 7), 1), 1, 0)
        assert poly.make([rational]).integral_form is not None
        for other in (Coefficient.make(phi), Coefficient.make(0, phi),
                      Coefficient.make(Fraction(1, 2), 0.5), Coefficient.make(0.25)):
            op = poly.make([rational, (other, 0, 1)])
            assert op.integral_form is None
            assert exact_values(op, (1, 2), 3) is None


def test_float_coefficients_have_no_exact_path():
    op = torus_translation(0.42857142857142855)
    sym = build_symbol(op)
    freq = frequency_for_label(Torus2Label(-3, 7))
    assert sym.exact_diagonal(freq) is None
    op = Su2DiagPoly(((Coefficient.make(1), 0, 1), (Coefficient.make(0.5), 2, 0)))
    assert build_symbol(op).exact_diagonal(frequency_for_label(Su2Label(4))) is None


def test_model_mismatch_rejected():
    sym = build_symbol(torus_translation(1))
    with pytest.raises(PreconditionError):
        sym.gain(frequency_for_label(Su2Label(2)))


def test_matrix_table_missing_frequency():
    table = MatrixTable("su2", {Su2Label(0): [[complex(2)]]})
    sym = build_symbol(table)
    with pytest.raises(PreconditionError):
        sym.block(frequency_for_label(Su2Label(2)))


def test_matrix_table_on_torus():
    from hyposym import gain_table

    entries = {}
    for f in enumerate_frequencies(TORUS2, 2):
        z = complex(f.label.xi, f.label.eta)
        entries[f.label] = [[z]]
    sym = build_symbol(MatrixTable("torus2", entries))
    freq = frequency_for_label(Torus2Label(1, 1))
    assert sym.gain(freq) == pytest.approx(abs(1 + 1j), rel=1e-12)
    table = gain_table(sym, 2)
    assert len(table) == 9
    assert table.gain[0] == 0.0  # the origin entry is (0, 0)


# ---------------------------------------------------------------------------
# gains and norms


def test_gain_and_norm_basics():
    assert smallest_gain(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    diag = np.diag([3j, -4])
    assert smallest_gain(diag) == pytest.approx(3.0, abs=1e-12)
    assert operator_norm(diag) == pytest.approx(4.0, abs=1e-12)
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert smallest_gain(nil) == pytest.approx(0.0, abs=1e-12)
    assert operator_norm(nil) == pytest.approx(1.0, abs=1e-12)


def test_gain_matches_sphere_oracle():
    rng = np.random.default_rng(42)
    for i in range(60):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert smallest_gain(a) == pytest.approx(
            sphere_gain_oracle(a, seed=100 + i), abs=1e-6
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.complex_numbers(min_magnitude=0, max_magnitude=10, allow_nan=False,
                       allow_infinity=False),
)
def test_gain_scaling_and_norm_dominance(d, seed, c):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g, n = smallest_gain(a), operator_norm(a)
    assert g <= n + 1e-12
    assert smallest_gain(c * a) == pytest.approx(abs(c) * g, rel=1e-9, abs=1e-9)


def test_equal_singular_values_iff_gain_equals_norm():
    unitary = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3))
                           + 1j * np.random.default_rng(1).standard_normal((3, 3)))[0]
    assert smallest_gain(2 * unitary) == pytest.approx(operator_norm(2 * unitary), rel=1e-12)


def test_invertible_gain_is_reciprocal_norm_of_inverse():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if smallest_gain(a) < 0.1:
            continue
        assert smallest_gain(a) == pytest.approx(
            1.0 / operator_norm(np.linalg.inv(a)), rel=1e-9
        )


def test_block_replication_preserves_gain_and_norm():
    # for levels l <= 3, the replicated matrix and the block agree
    rng = np.random.default_rng(9)
    entries = {}
    for t in range(0, 7):
        d = t + 1
        entries[Su2Label(t)] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sym = build_symbol(MatrixTable("su2", entries))
    for t in range(0, 7):
        freq = frequency_for_label(Su2Label(t))
        full = full_matrix(sym, freq)
        assert full.shape == ((t + 1) ** 2, (t + 1) ** 2)
        assert sym.gain(freq) == pytest.approx(smallest_gain(full), rel=1e-10, abs=1e-12)
        assert sym.opnorm(freq) == pytest.approx(operator_norm(full), rel=1e-10)


# ---------------------------------------------------------------------------
# unit right vectors, against numpy's SVD


def test_dense_vectors_are_the_svd_columns_bit_for_bit():
    rng = np.random.default_rng(11)
    entries = {Su2Label(t): rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(13)}
    sym = build_symbol(MatrixTable("su2", entries))
    for label, block in entries.items():
        n = label.rep_dim()
        for cols in ([n - 1], [0, n - 1], list(range(n // 2, n)), list(range(n))):
            got = sym.vectors(frequency_for_label(label), cols)
            want = np.linalg.svd(block)[2][cols].conj().T
            assert got.shape == (n, len(cols))
            assert got.tobytes() == want.tobytes()


def test_diagonal_vectors_are_identity_columns_without_a_square_temporary():
    import tracemalloc

    sym = build_symbol(su2_laplace_minus_axis_sq())
    freq = frequency_for_label(Su2Label(2000))  # 2001 entries: an identity takes 64 MB
    cols = [0, 7, 2000]
    tracemalloc.start()
    try:
        got = sym.vectors(freq, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == np.eye(2001, dtype=complex)[:, cols].tobytes()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# application to fields


def test_apply_zero_field():
    sym = build_symbol(torus_translation(1))
    out = apply_symbol(sym, CoefficientField.from_dict({}), 50)
    assert sobolev_norm(out, 0, 50) == 0.0


def test_apply_resonant_delta():
    sym = build_symbol(torus_translation(1))
    u = CoefficientField.from_dict({Torus2Label(1, -1): [1.0]})
    out = apply_symbol(sym, u, 50)
    assert sobolev_norm(out, 0, 50) == 0.0


def test_apply_su2_block_structure():
    # d0 on a field supported at l = 1/2 with vector (1,0,0,0):
    # the first chunk sees the diagonal (-i/2, i/2)
    op = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    sym = build_symbol(op)
    u = CoefficientField.from_dict({Su2Label(1): [1.0, 0.0, 0.0, 0.0]})
    out = apply_symbol(sym, u, 10)
    freq = frequency_for_label(Su2Label(1))
    assert np.allclose(out.coeff(freq), [1j * (-0.5), 0, 0, 0], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    sym = build_symbol(su2_laplace_minus_axis_sq())
    freqs = enumerate_frequencies(SU2, 12)
    u = {f.label: rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
         for f in freqs}
    v = {f.label: rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
         for f in freqs}
    a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    combo = CoefficientField.from_dict(
        {lab: a * u[lab] + b * v[lab] for lab in u}
    )
    lhs = apply_symbol(sym, combo, 12)
    fu = apply_symbol(sym, CoefficientField.from_dict(u), 12)
    fv = apply_symbol(sym, CoefficientField.from_dict(v), 12)
    for f in freqs:
        expect = a * fu.coeff(f) + b * fv.coeff(f)
        scale = max(1.0, float(np.linalg.norm(expect)))
        assert np.linalg.norm(lhs.coeff(f) - expect) <= 1e-12 * scale


def test_plancherel_identity_application():
    rng = np.random.default_rng(11)
    freqs = enumerate_frequencies(SU2, 8)
    u = CoefficientField.from_dict(
        {f.label: rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
         for f in freqs}
    )
    out = apply_symbol(build_symbol(constant_one(SU2)), u, 8)
    assert sobolev_norm(out, 0, 8) == pytest.approx(
        sobolev_norm(u, 0, 8), rel=1e-14
    )


# ---------------------------------------------------------------------------
# bulk evaluation against the per-frequency oracle


def _su2(*terms) -> Su2DiagPoly:
    return Su2DiagPoly.make([(c if isinstance(c, Coefficient) else Coefficient.make(c), a, b)
                             for c, a, b in terms])


def _bulk_cases():
    third = Fraction(1, 3)
    gap = su2_laplace_minus_axis_sq()
    d0 = _su2((1, 1, 0))
    neg_lap = _su2((1, 0, 1))
    linear = _su2((Coefficient.make(Fraction(2), third), 1, 0), (Fraction(1, 7), 0, 0))
    phi = torus_translation(1.618033988749895)
    rng = np.random.default_rng(4)
    return {
        "a(negLap + d0^2)": (build_symbol(
            _su2((Fraction(3, 2), 0, 1), (Fraction(3, 2), 2, 0))), 1e4),
        "negLap + d0^2/3": (build_symbol(_su2((1, 0, 1), (third, 2, 0))), 1e4),
        "negLap + 3/5 d0^2": (build_symbol(_su2((1, 0, 1), (Fraction(3, 5), 2, 0))), 1e4),
        "(2 + i/3) d0 + 1/7": (build_symbol(linear), 1e4),
        "degree 4, float": (build_symbol(_su2(
            (0.37, 4, 0), (-1.3, 3, 1), (2.1, 2, 2), (0.5, 0, 4), (1.1, 1, 0), (0.3, 0, 0))), 1e4),
        "add": (build_symbol(neg_lap.add(d0.mul(d0))), 1e4),
        "scale": (build_symbol(gap.scale(3 - 4j)), 1e4),
        "compose": (build_symbol(linear.mul(gap).mul(constant_one(SU2))), 1e4),
        "torus phi": (build_symbol(phi), 2000),
        "torus compose": (build_symbol(phi.mul(phi.scale(0.5j))), 2000),
        "dense torus table": (build_symbol(MatrixTable("torus2", {
            lab: rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
            for lab in (f.label for f in enumerate_frequencies(TORUS2, 300))})), 300),
        "dense su2 table": (build_symbol(MatrixTable("su2", {
            Su2Label(t): rng.standard_normal((t + 1, t + 1))
            + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(41)})), 40 * 42 / 4),
    }


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", list(_bulk_cases()))
def test_bulk_gain_table_equals_per_frequency_loop(name, chunk, monkeypatch):
    from hyposym import gain_table, symbols

    if chunk is not None:
        # more chunk boundaries, and blocks larger than a chunk
        monkeypatch.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
    sym, cutoff = _bulk_cases()[name]
    assert sym.is_diagonal != name.startswith("dense")
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
    table = gain_table(sym, cutoff)
    monkeypatch.setattr(np.linalg, "svd", svd)
    freqs = enumerate_frequencies(sym.model, cutoff)
    assert len(svd_calls) == (0 if sym.is_diagonal else len(freqs))
    if not sym.is_diagonal:
        # one values-only SVD per block gives both columns, with the bits of
        # a separate SVD for each
        gain = [smallest_gain(sym.block(f)) for f in freqs]
        norm = [operator_norm(sym.block(f)) for f in freqs]
    else:
        gain, norm = [sym.gain(f) for f in freqs], [sym.opnorm(f) for f in freqs]
    assert np.array_equal(table.gain, gain)
    assert np.array_equal(table.opnorm, norm)


# ---------------------------------------------------------------------------
# operator algebra on polynomials


def test_compose_with_identity_is_identity_on_symbol():
    for op, model in ((su2_laplace_minus_axis_sq(), SU2),
                      (torus_translation(Fraction(3, 7)), TORUS2)):
        assert op.mul(constant_one(model)) == op == constant_one(model).mul(op)
        assert op.scale(1) == op


def test_scale_multiplies_gain():
    op = torus_translation(2)
    sym, scaled = build_symbol(op), build_symbol(op.scale(3 - 4j))
    freq = frequency_for_label(Torus2Label(2, 1))
    assert scaled.gain(freq) == pytest.approx(5 * sym.gain(freq), rel=1e-12)
    # an exact scalar keeps the operator exact; a complex one is a float
    assert op.scale(Fraction(-3, 4)) == TorusPoly.make(
        [(Coefficient.make(Fraction(-3, 4)), 1, 0), (Coefficient.make(Fraction(-3, 2)), 0, 1)])
    assert not any(c.is_exact for c, _, _ in op.scale(3 - 4j).terms)


def test_add_neglap_and_composed_axis_derivative():
    # negLap + d0 o d0 is the diagonal family l(l+1) - m^2 as a polynomial
    neg_lap = Su2DiagPoly.make([(Coefficient.make(1), 0, 1)])
    d0 = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    assert neg_lap.add(d0.mul(d0)) == su2_laplace_minus_axis_sq()
    assert neg_lap.add(d0.mul(d0).scale(-1)) == Su2DiagPoly.make(
        [(Coefficient.make(1), 0, 1), (Coefficient.make(-1), 2, 0)])
    assert d0.add(d0.scale(-1)) == Su2DiagPoly(())


def test_poly_algebra_rejects_mixed_models():
    for method in ("add", "mul"):
        with pytest.raises(PreconditionError):
            getattr(constant_one(SU2), method)(constant_one(TORUS2))
        with pytest.raises(PreconditionError):
            getattr(constant_one(TORUS2), method)(constant_one(SU2))


_ALGEBRA_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _rational_polys(draw, poly):
    return poly.make([(Coefficient.make(draw(_ALGEBRA_RATIONALS), draw(_ALGEBRA_RATIONALS)),
                       draw(st.integers(0, 3)), draw(st.integers(0, 2)))
                      for _ in range(draw(st.integers(0, 3)))])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), model=st.sampled_from([TORUS2, SU2]),
       radicands=st.tuples(st.sampled_from([2, 3, 5]), st.sampled_from([2, 3, 5])))
def test_poly_algebra_is_the_algebra_of_exact_values(data, model, radicands):
    poly = TorusPoly if model is TORUS2 else Su2DiagPoly
    p, q = data.draw(_rational_polys(poly)), data.draw(_rational_polys(poly))
    c_re, c_im = data.draw(_ALGEBRA_RATIONALS), data.draw(_ALGEBRA_RATIONALS)
    if model is TORUS2:
        label = Torus2Label(data.draw(st.integers(-40, 40)), data.draw(st.integers(-40, 40)))
        labels = (np.array([label.xi]), np.array([label.eta]))
    else:
        label = Su2Label(data.draw(st.integers(0, 40)))
        labels = (np.array([label.twice_ell]),)
    freq = frequency_for_label(label)

    def exact(op):
        return fraction_pairs(build_symbol(op).exact_diagonal(freq))

    # the composed polynomials evaluate exactly to the sums and products
    ep, eq = exact(p), exact(q)
    assert exact(p.add(q)) == [(a + c, b + d) for (a, b), (c, d) in zip(ep, eq)]
    assert exact(p.mul(q)) == [(a * c - b * d, a * d + b * c) for (a, b), (c, d) in zip(ep, eq)]
    assert exact(p.scale(Coefficient.make(c_re, c_im))) == [
        (c_re * a - c_im * b, c_re * b + c_im * a) for a, b in ep]
    # and their float |entries| lie within their own rounding bound
    for op in (p.add(q), p.mul(q), p.scale(Coefficient.make(c_re, c_im))):
        sym = build_symbol(op)
        err = Fraction(float(np.max(sym.bulk_err(*labels))))
        for value, (re, im) in zip(np.abs(sym.diagonal(freq)).tolist(), exact(op)):
            lower = max(Fraction(0), Fraction(value) - err)
            assert lower**2 <= re * re + im * im <= (Fraction(value) + err) ** 2
    # products stay exact within one quadratic field, and fall back to float
    # across two
    x, y = (Coefficient.make(Surd.make(1, 1, d)) for d in radicands)
    assert x.mul(y).is_exact == (radicands[0] == radicands[1])
    assert x.mul(y).to_complex() == pytest.approx(
        (1 + math.sqrt(radicands[0])) * (1 + math.sqrt(radicands[1])), rel=1e-15)
    assert poly.make([(x, 1, 0)]).mul(poly.make([(y, 0, 1)])).coefficient(1, 1) == x.mul(y)


@pytest.mark.parametrize("model", [TORUS2, SU2], ids=["model0", "model1"])
def test_poly_algebra_beyond_float_range_is_a_precondition(model):
    # (10^200 + d)^2 has the exact coefficient 10^400: float evaluation of
    # it names the coefficient and fails as a precondition, not OverflowError
    poly, deg = (TorusPoly, (1, 0)) if model is TORUS2 else (Su2DiagPoly, (2, 0))
    p = poly.make([(Coefficient.make(10**200), 0, 0), (Coefficient.make(1), *deg)])
    square = p.mul(p)
    assert square.coefficient(0, 0) == Coefficient.make(10**400)
    sym = build_symbol(square)
    with pytest.raises(PreconditionError, match=f"the coefficient {10**400} \\+ 0 i leaves"):
        gain_table(sym, 10)
    freq = frequency_for_label(Torus2Label(1, 0) if model is TORUS2 else Su2Label(2))
    with pytest.raises(PreconditionError, match="leaves float range"):
        sym.diagonal(freq)
    # the exact path still evaluates it
    assert sym.exact_diagonal(freq) is not None


def test_block_application_matches_full_matrix():
    # the chunked block product must agree with multiplying the replicated
    # matrix, for diagonal and dense blocks alike
    rng = np.random.default_rng(33)
    entries = {Su2Label(t): rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(5)}
    for sym in (build_symbol(MatrixTable("su2", entries)),
                build_symbol(su2_laplace_minus_axis_sq())):
        for t in range(5):
            freq = frequency_for_label(Su2Label(t))
            v = rng.standard_normal(freq.dim) + 1j * rng.standard_normal(freq.dim)
            direct = full_matrix(sym, freq) @ v
            assert np.allclose(next(sym.iter_apply([freq], [v])), direct, atol=1e-12)


# ---------------------------------------------------------------------------
# order estimation


def test_order_of_identity_is_zero():
    est = estimate_order(gain_table(build_symbol(constant_one(TORUS2)), 400))
    assert abs(est.order_hat) <= 0.05


def test_order_of_torus_translation_is_one():
    sym = build_symbol(torus_translation(1))
    est = estimate_order(gain_table(sym, 10_000))
    assert est.order_hat == pytest.approx(1.0, abs=0.1)


def test_order_of_su2_gap_operator_is_two():
    sym = build_symbol(su2_laplace_minus_axis_sq())
    est = estimate_order(gain_table(sym, 50 * 51))
    assert est.order_hat == pytest.approx(2.0, abs=0.1)


def test_order_bound_constant_validates():
    sym = build_symbol(torus_translation(1))
    est = estimate_order(gain_table(sym, 2_000))
    for f in enumerate_frequencies(TORUS2, 2_000):
        norm = sym.opnorm(f)
        assert norm <= est.c_hat * (1 + f.lam) ** (est.order_hat / 2) * (1 + 1e-9)


def test_order_of_zero_symbol_is_minus_infinity():
    zero = TorusPoly.make([(Coefficient.make(0), 1, 0)])
    est = estimate_order(gain_table(build_symbol(zero), 400))
    assert est.order_hat == float("-inf")


def test_order_needs_enough_frequencies():
    with pytest.raises(WindowTooSmallError):
        estimate_order(gain_table(build_symbol(constant_one(TORUS2)), 1))

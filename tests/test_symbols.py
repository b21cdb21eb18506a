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
    combine,
    enumerate_frequencies,
    estimate_order,
    frequency_for_label,
    identity_symbol,
    operator_norm,
    smallest_gain,
    sobolev_norm,
)
from hyposym.errors import PreconditionError, WindowTooSmallError
from hyposym.symbols import Coefficient

from conftest import su2_laplace_minus_axis_sq, torus_translation
from oracles import sphere_gain_oracle


# ---------------------------------------------------------------------------
# evaluation


def test_torus_translation_symbol_values():
    op = torus_translation(Fraction(3, 7))
    sym = build_symbol(op, TORUS2)
    for xi, eta in [(0, 0), (1, -1), (5, 7), (-3, 7)]:
        freq = frequency_for_label(TORUS2, Torus2Label(xi, eta))
        expected = 1j * (xi + (3 / 7) * eta)
        assert sym.diagonal(freq)[0] == pytest.approx(expected, abs=1e-12)


def test_su2_neutral_derivative_at_level_one():
    op = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    freq = frequency_for_label(SU2, Su2Label(2))
    full = build_symbol(op, SU2).full_matrix(freq)
    block = np.diag([-1j, 0, 1j])
    expected = np.kron(np.eye(3), block)
    assert np.allclose(full, expected, atol=1e-14)


def test_su2_gap_operator_entries():
    sym = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    freq = frequency_for_label(SU2, Su2Label(2))
    assert np.allclose(sym.diagonal(freq), [1, 2, 1], atol=1e-14)
    # exact path agrees
    exact = sym.exact_diagonal(freq)
    assert [(re, im) for re, im in exact] == [
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
    got = build_symbol(op, SU2).exact_diagonal(frequency_for_label(SU2, Su2Label(twice_ell)))
    assert got == expected
    assert all(type(x) is Fraction for pair in got for x in pair)


def test_exact_evaluation_vanishes_at_resonance():
    op = torus_translation(Fraction(3, 7))
    sym = build_symbol(op, TORUS2)
    freq = frequency_for_label(TORUS2, Torus2Label(-3, 7))
    assert sym.exact_diagonal(freq) == [(Fraction(0), Fraction(0))]
    assert sym.gain(freq) == pytest.approx(0.0, abs=1e-12)


def test_float_coefficients_have_no_exact_path():
    op = torus_translation(0.42857142857142855)
    sym = build_symbol(op, TORUS2)
    freq = frequency_for_label(TORUS2, Torus2Label(-3, 7))
    assert sym.exact_diagonal(freq) is None
    op = Su2DiagPoly(((Coefficient.make(1), 0, 1), (Coefficient.make(0.5), 2, 0)))
    assert build_symbol(op, SU2).exact_diagonal(frequency_for_label(SU2, Su2Label(4))) is None


def test_model_mismatch_rejected():
    with pytest.raises(PreconditionError):
        build_symbol(torus_translation(1), SU2)
    sym = build_symbol(torus_translation(1), TORUS2)
    with pytest.raises(PreconditionError):
        sym.gain(frequency_for_label(SU2, Su2Label(2)))


def test_matrix_table_missing_frequency():
    table = MatrixTable("su2", {Su2Label(0): [[complex(2)]]})
    sym = build_symbol(table, SU2)
    with pytest.raises(PreconditionError):
        sym.block(frequency_for_label(SU2, Su2Label(2)))


def test_matrix_table_on_torus():
    from hyposym import gain_table

    entries = {}
    for f in enumerate_frequencies(TORUS2, 2):
        z = complex(f.label.xi, f.label.eta)
        entries[f.label] = [[z]]
    sym = build_symbol(MatrixTable("torus2", entries), TORUS2)
    freq = frequency_for_label(TORUS2, Torus2Label(1, 1))
    assert sym.gain(freq) == pytest.approx(abs(1 + 1j), rel=1e-12)
    table = gain_table(sym, TORUS2, 2)
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
    sym = build_symbol(MatrixTable("su2", entries), SU2)
    for t in range(0, 7):
        freq = frequency_for_label(SU2, Su2Label(t))
        full = sym.full_matrix(freq)
        assert full.shape == ((t + 1) ** 2, (t + 1) ** 2)
        assert sym.gain(freq) == pytest.approx(smallest_gain(full), rel=1e-10, abs=1e-12)
        assert sym.opnorm(freq) == pytest.approx(operator_norm(full), rel=1e-10)


# ---------------------------------------------------------------------------
# application to fields


def test_apply_zero_field():
    sym = build_symbol(torus_translation(1), TORUS2)
    out = apply_symbol(sym, CoefficientField.zero(), 50)
    assert sobolev_norm(out, 0, TORUS2, 50) == 0.0


def test_apply_resonant_delta():
    sym = build_symbol(torus_translation(1), TORUS2)
    u = CoefficientField.from_dict({Torus2Label(1, -1): [1.0]})
    out = apply_symbol(sym, u, 50)
    assert sobolev_norm(out, 0, TORUS2, 50) == 0.0


def test_apply_su2_block_structure():
    # d0 on a field supported at l = 1/2 with vector (1,0,0,0):
    # the first chunk sees the diagonal (-i/2, i/2)
    op = Su2DiagPoly.make([(Coefficient.make(1), 1, 0)])
    sym = build_symbol(op, SU2)
    u = CoefficientField.from_dict({Su2Label(1): [1.0, 0.0, 0.0, 0.0]})
    out = apply_symbol(sym, u, 10)
    freq = frequency_for_label(SU2, Su2Label(1))
    assert np.allclose(out.coeff(freq), [1j * (-0.5), 0, 0, 0], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    sym = build_symbol(su2_laplace_minus_axis_sq(), SU2)
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
    out = apply_symbol(identity_symbol(SU2), u, 8)
    assert sobolev_norm(out, 0, SU2, 8) == pytest.approx(
        sobolev_norm(u, 0, SU2, 8), rel=1e-14
    )


# ---------------------------------------------------------------------------
# bulk evaluation against the per-frequency oracle


def _su2(*terms) -> Su2DiagPoly:
    return Su2DiagPoly.make([(c if isinstance(c, Coefficient) else Coefficient.make(c), a, b)
                             for c, a, b in terms])


def _bulk_cases():
    third = Fraction(1, 3)
    gap = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    d0 = build_symbol(_su2((1, 1, 0)), SU2)
    neg_lap = build_symbol(_su2((1, 0, 1)), SU2)
    linear = build_symbol(
        _su2((Coefficient.make(Fraction(2), third), 1, 0), (Fraction(1, 7), 0, 0)), SU2)
    phi = build_symbol(torus_translation(1.618033988749895), TORUS2)
    rng = np.random.default_rng(4)
    return {
        "a(negLap + d0^2)": (build_symbol(
            _su2((Fraction(3, 2), 0, 1), (Fraction(3, 2), 2, 0)), SU2), 1e4),
        "negLap + d0^2/3": (build_symbol(_su2((1, 0, 1), (third, 2, 0)), SU2), 1e4),
        "negLap + 3/5 d0^2": (build_symbol(_su2((1, 0, 1), (Fraction(3, 5), 2, 0)), SU2), 1e4),
        "(2 + i/3) d0 + 1/7": (linear, 1e4),
        "degree 4, float": (build_symbol(_su2(
            (0.37, 4, 0), (-1.3, 3, 1), (2.1, 2, 2), (0.5, 0, 4), (1.1, 1, 0), (0.3, 0, 0)),
            SU2), 1e4),
        "add": (combine("add", [neg_lap, combine("compose", [d0, d0])]), 1e4),
        "scale": (combine("scale", [gap], scalar=3 - 4j), 1e4),
        "compose": (combine("compose", [linear, gap, identity_symbol(SU2)]), 1e4),
        "torus phi": (phi, 2000),
        "torus compose": (combine("compose", [phi, combine("scale", [phi], scalar=0.5j)]), 2000),
        "dense torus table": (build_symbol(MatrixTable("torus2", {
            lab: rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
            for lab in (f.label for f in enumerate_frequencies(TORUS2, 300))}), TORUS2), 300),
        "dense su2 table": (build_symbol(MatrixTable("su2", {
            Su2Label(t): rng.standard_normal((t + 1, t + 1))
            + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(41)}), SU2), 40 * 42 / 4),
    }


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", list(_bulk_cases()))
def test_bulk_gain_table_equals_per_frequency_loop(name, chunk, monkeypatch):
    from hyposym import gain_table, symbols

    if chunk is not None:
        # more chunk boundaries, and blocks larger than a chunk
        monkeypatch.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
    sym, cutoff = _bulk_cases()[name]
    assert (sym.bulk is None) == name.startswith("dense")
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
    table = gain_table(sym, sym.model, cutoff)
    monkeypatch.setattr(np.linalg, "svd", svd)
    freqs = enumerate_frequencies(sym.model, cutoff)
    assert len(svd_calls) == (len(freqs) if sym.bulk is None else 0)
    if sym.bulk is None:
        # one values-only SVD per block gives both columns, with the bits of
        # a separate SVD for each
        gain = [smallest_gain(sym.block(f)) for f in freqs]
        norm = [operator_norm(sym.block(f)) for f in freqs]
    else:
        gain, norm = [sym.gain(f) for f in freqs], [sym.opnorm(f) for f in freqs]
    assert np.array_equal(table.gain, gain)
    assert np.array_equal(table.opnorm, norm)


# ---------------------------------------------------------------------------
# combine


def test_compose_with_identity_is_identity_on_symbol():
    sym = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    composed = combine("compose", [sym, identity_symbol(SU2)])
    for t in (0, 1, 2, 5):
        freq = frequency_for_label(SU2, Su2Label(t))
        assert np.allclose(composed.diagonal(freq), sym.diagonal(freq), atol=1e-14)


def test_scale_multiplies_gain():
    sym = build_symbol(torus_translation(2), TORUS2)
    scaled = combine("scale", [sym], scalar=3 - 4j)
    freq = frequency_for_label(TORUS2, Torus2Label(2, 1))
    assert scaled.gain(freq) == pytest.approx(5 * sym.gain(freq), rel=1e-12)


def test_add_neglap_and_composed_axis_derivative():
    # negLap + d0 o d0 equals the diagonal family l(l+1) - m^2 entrywise
    neg_lap = build_symbol(Su2DiagPoly.make([(Coefficient.make(1), 0, 1)]), SU2)
    d0 = build_symbol(Su2DiagPoly.make([(Coefficient.make(1), 1, 0)]), SU2)
    combined = combine("add", [neg_lap, combine("compose", [d0, d0])])
    direct = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    for t in range(0, 11):
        freq = frequency_for_label(SU2, Su2Label(t))
        assert np.allclose(combined.diagonal(freq), direct.diagonal(freq), atol=1e-12)
        assert combined.exact_diagonal(freq) == direct.exact_diagonal(freq)


def test_combine_rejects_mixed_models():
    with pytest.raises(PreconditionError):
        combine("add", [identity_symbol(SU2), identity_symbol(TORUS2)])


def test_combine_mixed_diagonal_and_dense_structure():
    rng = np.random.default_rng(21)
    entries = {Su2Label(t): rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(5)}
    dense = build_symbol(MatrixTable("su2", entries), SU2)
    diag = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    summed = combine("add", [dense, diag])
    composed = combine("compose", [diag, dense])
    for t in range(5):
        freq = frequency_for_label(SU2, Su2Label(t))
        assert np.allclose(summed.block(freq), dense.block(freq) + diag.block(freq),
                           atol=1e-13)
        assert np.allclose(composed.block(freq), diag.block(freq) @ dense.block(freq),
                           atol=1e-13)


def test_block_application_matches_full_matrix():
    # the chunked block product must agree with multiplying the replicated
    # matrix, for diagonal and dense blocks alike
    rng = np.random.default_rng(33)
    entries = {Su2Label(t): rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(5)}
    for sym in (build_symbol(MatrixTable("su2", entries), SU2),
                build_symbol(su2_laplace_minus_axis_sq(), SU2)):
        for t in range(5):
            freq = frequency_for_label(SU2, Su2Label(t))
            v = rng.standard_normal(freq.dim) + 1j * rng.standard_normal(freq.dim)
            direct = sym.full_matrix(freq) @ v
            assert np.allclose(sym.apply_to_vector(freq, v), direct, atol=1e-12)


# ---------------------------------------------------------------------------
# order estimation


def test_order_of_identity_is_zero():
    est = estimate_order(identity_symbol(TORUS2), TORUS2, 400)
    assert abs(est.order_hat) <= 0.05


def test_order_of_torus_translation_is_one():
    sym = build_symbol(torus_translation(1), TORUS2)
    est = estimate_order(sym, TORUS2, 10_000)
    assert est.order_hat == pytest.approx(1.0, abs=0.1)


def test_order_of_su2_gap_operator_is_two():
    sym = build_symbol(su2_laplace_minus_axis_sq(), SU2)
    est = estimate_order(sym, SU2, 50 * 51)
    assert est.order_hat == pytest.approx(2.0, abs=0.1)


def test_order_bound_constant_validates():
    sym = build_symbol(torus_translation(1), TORUS2)
    est = estimate_order(sym, TORUS2, 2_000)
    for f in enumerate_frequencies(TORUS2, 2_000):
        norm = sym.opnorm(f)
        assert norm <= est.c_hat * (1 + f.lam) ** (est.order_hat / 2) * (1 + 1e-9)


def test_order_of_zero_symbol_is_minus_infinity():
    zero = TorusPoly.make([(Coefficient.make(0), 1, 0)])
    est = estimate_order(build_symbol(zero, TORUS2), TORUS2, 400)
    assert est.order_hat == float("-inf")


def test_order_needs_enough_frequencies():
    with pytest.raises(WindowTooSmallError):
        estimate_order(identity_symbol(TORUS2), TORUS2, 1)

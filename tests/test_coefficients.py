import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    SU2,
    TORUS2,
    CoefficientField,
    Su2DiagPoly,
    Su2Label,
    Torus2Label,
    Window,
    apply_symbol,
    best_alpha_constant,
    build_counterexample,
    build_symbol,
    check_alpha,
    check_beta,
    classify_regularity,
    cli,
    enumerate_frequencies,
    estimate_order,
    frequency_for_label,
    random_field,
    sobolev_norm,
)
from hyposym.errors import (
    PreconditionError,
    SearchExhaustedError,
    WindowTooSmallError,
)
from hyposym.coefficients import _admissible
from hyposym.symbols import Coefficient, MatrixTable, TorusPoly, gain_table

from conftest import (
    constant_one,
    su2_laplace_minus_axis_sq,
    su2_pell_operator,
    torus_translation,
)
from oracles import support_labels, unscreened_counterexample


# ---------------------------------------------------------------------------
# fields and Sobolev norms


def _window_field(model, cutoff, vector):
    """The field of ``vector(freq)`` at every frequency of the window."""
    return CoefficientField({freq: vector(freq) for freq in Window(model, cutoff)})


def test_field_rejects_wrong_vector_length():
    with pytest.raises(PreconditionError):
        CoefficientField.from_dict({Su2Label(2): [1.0, 2.0]})


@pytest.mark.parametrize("data", [
    {Torus2Label(1, 1): [1.0], Su2Label(2): np.ones(9)},  # both at lambda = 2
    {Torus2Label(1, 0): [1.0], Su2Label(2): np.ones(9)},
])
def test_field_rejects_mixed_label_kinds(data):
    with pytest.raises(PreconditionError, match="all torus or all SU"):
        CoefficientField.from_dict(data)


def test_field_support_is_ordered_once_and_walked_up_to_the_cutoff(monkeypatch):
    window = Window(TORUS2, 30)
    labels = [window.freq(i).label for i in range(len(window))]
    shuffled = list(np.random.default_rng(7).permutation(len(labels)))
    u = CoefficientField.from_dict({labels[i]: [1.0 + i] for i in shuffled})
    assert support_labels(u) == labels
    v = CoefficientField.from_dict({Su2Label(t): np.ones((t + 1) ** 2) for t in (5, 0, 3)})
    assert support_labels(v) == [Su2Label(0), Su2Label(3), Su2Label(5)]
    calls = []
    for cls in (Torus2Label, Su2Label):
        real = cls.eigenvalue
        monkeypatch.setattr(cls, "eigenvalue",
                            lambda self, real=real: calls.append(self) or real(self))
    for cutoff in (0, 4, 12.5, 30, 1e9, math.nan):
        got = [freq for freq, _ in u.window(cutoff)]
        assert got == [window.freq(i) for i in range(len(window))
                       if window.lam[i] <= cutoff]
    assert [vec.tolist() for _, vec in u.window(30)] == \
        [[1.0 + i] for i in range(len(labels))]
    assert [f.label for f, _ in v.window(8)] == [Su2Label(0), Su2Label(3)]
    assert calls == []


@pytest.mark.parametrize("case", ["torus_phi", "su2_gap", "su2_dense"])
def test_fields_from_frequencies_and_from_labels_agree(case, tmp_path):
    rng = np.random.default_rng(11)
    model, op, cutoff = {
        "torus_phi": (TORUS2, torus_translation(0.5 + 5**0.5 / 2), 400),
        "su2_gap": (SU2, su2_laplace_minus_axis_sq(), 30 * 32 / 4),
        "su2_dense": (SU2, MatrixTable("su2", {
            Su2Label(t): rng.standard_normal((t + 1, t + 1, 2)) @ [1, 1j] for t in range(13)}),
            12 * 14 / 4),
    }[case]
    symbol = build_symbol(op)
    window = Window(model, cutoff)
    data = {}
    for i in sorted(rng.choice(len(window), size=10, replace=False).tolist()):
        freq = window.freq(i)
        data[freq] = rng.standard_normal(freq.dim) + 1j * rng.standard_normal(freq.dim)
    fields = [CoefficientField(data),
              CoefficientField.from_dict({freq.label: vec for freq, vec in data.items()})]
    report = best_alpha_constant(symbol, 0.0, 1.0, cutoff)
    results = []
    for n, u in enumerate(fields):
        image = apply_symbol(symbol, u, cutoff)
        path = tmp_path / f"{n}.csv"
        cli._write_coeffs_csv(str(path), u, cutoff)
        results.append((
            [(freq, vec.tobytes()) for freq, vec in u.window(cutoff)],
            [sobolev_norm(u, s, c) for s in (-1.0, 0.0, 1.5) for c in (cutoff / 2, cutoff)],
            [(freq, vec.tobytes()) for freq, vec in image.window(cutoff)],
            check_alpha(symbol, u, 0.0, 1.0, report.c_star, report.kernel).as_dict(),
            check_beta(symbol, u, 0.0, 1.0, report.k_star, cutoff).as_dict(),
            classify_regularity(u, cutoff).as_dict(),
            path.read_bytes(),
        ))
    assert results[0] == results[1]
    assert [freq for freq, _ in results[0][0]] == sorted(data, key=lambda f: f.j)


def test_field_adopts_only_arrays_no_caller_can_write(su2_pell_symbol):
    freq = frequency_for_label(Su2Label(2))
    writable = np.arange(1, 10, dtype=complex)
    base = np.arange(1, 10, dtype=complex)
    view = base[:]
    view.setflags(write=False)
    owned = np.arange(1, 10, dtype=complex)
    owned.setflags(write=False)
    other = np.arange(1.0, 10.0)  # float64: converted
    other.setflags(write=False)
    square = np.arange(1, 10, dtype=complex).reshape(3, 3)  # 2-D: flattened
    square.setflags(write=False)
    inputs = [writable, view, owned, other, square]
    fields = [CoefficientField({freq: vec}) for vec in inputs]
    writable[0] = base[0] = 0
    for vec, field in zip(inputs, fields):
        stored = field.coeff(freq)
        assert stored.tolist() == list(range(1, 10))
        assert not stored.flags.writeable
        assert np.shares_memory(stored, vec) == (vec is owned)
    # the library's fresh arrays are handed over read-only and adopted
    probe = random_field(Window(SU2, 30), np.random.default_rng(2), n_support=6)
    image = apply_symbol(su2_pell_symbol, probe, 30)
    kernel = best_alpha_constant(su2_pell_symbol, 0.0, 1.0, 30).kernel
    projected = kernel.project_out(freq, owned)
    for vec in [v for _, v in probe.window(30)] + [v for _, v in image.window(30)] + [projected]:
        assert vec.flags.owndata and not vec.flags.writeable
    assert np.shares_memory(CoefficientField({freq: projected}).coeff(freq), projected)


def test_from_dict_refuses_a_label_it_cannot_count():
    with pytest.raises(PreconditionError, match="not enumerable"):
        CoefficientField.from_dict({Torus2Label(1.5, 2): [1.0]})


def test_sobolev_single_coefficient():
    # unit vector at eigenvalue lambda with s = 1, nu = 2 weighs (1+lambda)^{1/2}
    u = CoefficientField.from_dict({Torus2Label(1, 1): [1.0]})  # lambda = 2
    assert sobolev_norm(u, 1, 10) == pytest.approx(math.sqrt(3), rel=1e-14)
    v = CoefficientField.from_dict({Torus2Label(0, 2): [1.0]})  # lambda = 4
    assert sobolev_norm(v, 1, 10) == pytest.approx(math.sqrt(5), rel=1e-14)


def test_sobolev_zero_is_plancherel():
    rng = np.random.default_rng(0)
    freqs = enumerate_frequencies(SU2, 10)
    data = {f.label: rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            for f in freqs}
    u = CoefficientField.from_dict(data)
    direct = math.sqrt(sum(float(np.vdot(v, v).real) for v in data.values()))
    assert sobolev_norm(u, 0, 10) == pytest.approx(direct, rel=1e-14)


def test_sobolev_full_block_norm():
    # a full frequency block with unit-modulus components:
    # squared t-norm = dim * (1+lambda)^{2t/nu}
    label = Su2Label(2)  # l=1, lambda=2, dim 9
    u = CoefficientField.from_dict({label: np.ones(9, dtype=complex)})
    for t in (-1.0, 0.0, 1.5):
        expected = math.sqrt(9 * (1 + 2.0) ** (2 * t / 2))
        assert sobolev_norm(u, t, 10) == pytest.approx(expected, rel=1e-14)


def test_sobolev_monotone_in_cutoff_and_s():
    rng = np.random.default_rng(5)
    u = random_field(Window(TORUS2, 60), rng, n_support=12)
    norms = [sobolev_norm(u, 0, c) for c in (5, 20, 40, 60)]
    assert norms == sorted(norms)
    svals = [-2.0, -0.5, 0.0, 1.0, 2.5]
    by_s = [sobolev_norm(u, s, 60) for s in svals]
    assert by_s == sorted(by_s)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0, max_value=3))
def test_sobolev_monotone_in_s_property(seed, s, delta):
    rng = np.random.default_rng(seed)
    u = random_field(Window(SU2, 20), rng, n_support=4)
    assert sobolev_norm(u, s, 20) <= sobolev_norm(u, s + delta, 20) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# regularity classification


def test_classify_rapid_decay_is_smooth():
    u = _window_field(TORUS2, 100, lambda f: np.full(f.dim, math.exp(-f.lam)))
    report = classify_regularity(u, 100, n_probe=10)
    assert report.kind == "smooth_evidence"
    assert report.exponent == 10


def test_classify_flat_coefficients_is_order_zero():
    u = _window_field(TORUS2, 100, lambda f: np.ones(f.dim))
    report = classify_regularity(u, 100)
    assert report.kind == "distribution_order"
    assert report.exponent == 0


def test_classify_polynomial_growth_order_two():
    u = _window_field(TORUS2, 100, lambda f: np.full(f.dim, (1 + f.lam) ** 2))
    report = classify_regularity(u, 100)
    assert report.kind == "distribution_order"
    assert report.exponent == 2


def test_classify_zero_field_is_smooth():
    report = classify_regularity(CoefficientField.from_dict({}), 100)
    assert report.kind == "smooth_evidence"
    assert report.constant == 0.0


def test_classify_needs_window():
    u = CoefficientField.from_dict({Torus2Label(1, 0): [1.0]})
    with pytest.raises(WindowTooSmallError):
        classify_regularity(u, 100)


def test_classify_shifts_by_symbol_order():
    # applying a diagonal symbol with entries (1+lambda) raises the growth
    # exponent by its order over nu (here 2/2 = 1)
    op = Su2DiagPoly.make(
        [(Coefficient.make(1), 0, 1), (Coefficient.make(1), 0, 0)]
    )  # entries l(l+1) + 1 = 1 + lambda
    sym = build_symbol(op)
    u_su2 = _window_field(SU2, 200, lambda f: np.full(f.dim, (1 + f.lam) ** 2 / math.sqrt(f.dim)))
    before = classify_regularity(u_su2, 200)
    after = classify_regularity(apply_symbol(sym, u_su2, 200), 200)
    assert before.exponent == 2 and after.exponent == 3
    order = estimate_order(gain_table(sym, 200)).order_hat
    assert after.exponent - before.exponent == pytest.approx(order / 2, abs=0.2)


# ---------------------------------------------------------------------------
# the counterexample constructor


def test_counterexample_torus_resonance():
    sym = build_symbol(torus_translation(1))
    result = build_counterexample(sym, 10, 200)
    labels = [(f.label.xi, f.label.eta) for f in result.frequencies]
    assert labels == [(-k, k) for k in range(1, 11)]
    for cert in result.certificates:
        assert cert.exact
        assert cert.image_norm == 0.0
        assert cert.image_norm < cert.bound
    for f in result.frequencies:
        assert np.linalg.norm(result.field.coeff(f)) == pytest.approx(1.0, abs=1e-14)
    assert classify_regularity(result.field, 200).kind == "distribution_order"
    image = apply_symbol(sym, result.field, 200)
    assert classify_regularity(image, 200).kind == "smooth_evidence"


def test_counterexample_pell_levels():
    sym = build_symbol(su2_pell_operator())
    result = build_counterexample(sym, 3, 50 * 51)
    assert [f.label.twice_ell for f in result.frequencies] == [2, 16, 98]
    for cert in result.certificates:
        assert cert.exact and cert.image_norm == 0.0
    # the chosen vector is a basis vector at a vanishing diagonal entry
    f0 = result.frequencies[0]
    vec = result.field.coeff(f0)
    assert np.count_nonzero(vec) == 1
    sym_diag = sym.diagonal(f0)
    assert abs(sym_diag[int(np.flatnonzero(vec[: f0.label.rep_dim()])[0])]) == 0.0


def test_counterexample_identity_exhausts():
    with pytest.raises(SearchExhaustedError) as err:
        build_counterexample(build_symbol(constant_one(TORUS2)), 2, 500)
    assert err.value.k == 1


def test_counterexample_respects_strictly_increasing_lambda():
    sym = build_symbol(torus_translation(1))
    result = build_counterexample(sym, 6, 200)
    lams = [f.lam for f in result.frequencies]
    assert lams == sorted(set(lams))


def test_counterexample_float_coefficient_guard_band():
    # float c = 1.0 has no exact path; the zero gains still qualify
    sym = build_symbol(torus_translation(1.0))
    result = build_counterexample(sym, 4, 200)
    assert [(f.label.xi, f.label.eta) for f in result.frequencies] == [
        (-k, k) for k in range(1, 5)
    ]
    assert all(not c.exact for c in result.certificates)


def test_counterexample_rejects_negative_guard_band():
    sym = build_symbol(torus_translation(1.0))
    with pytest.raises(PreconditionError):
        build_counterexample(sym, 1, 200, tol=-1e-9)


# ---------------------------------------------------------------------------
# the float screen of the counterexample search against the unscreened walk


def _assert_same_search(symbol, k_steps, cutoff, tol=1e-12):
    """The screened search and the unscreened walk give the same field, or
    both run out at the same step."""
    try:
        want = unscreened_counterexample(symbol, k_steps, cutoff, tol)
    except SearchExhaustedError as exc:
        with pytest.raises(SearchExhaustedError) as err:
            build_counterexample(symbol, k_steps, cutoff, tol)
        assert err.value.k == exc.k
        return None
    got = build_counterexample(symbol, k_steps, cutoff, tol)
    assert got.certificates == want.certificates
    assert got.frequencies == want.frequencies
    assert support_labels(got.field) == support_labels(want.field)
    for freq in got.frequencies:
        assert np.array_equal(got.field.coeff(freq), want.field.coeff(freq))
    assert support_labels(got.image) == support_labels(want.image)
    for freq in got.frequencies:
        assert np.array_equal(got.image.coeff(freq), want.image.coeff(freq))
    return got


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _polynomial_terms(draw, family):
    """Terms (coefficient, deg, deg): a family with zero or small gains, or a
    random polynomial; all coefficients rational or all float."""
    as_float = draw(st.booleans())

    def coeff(re, im=Fraction(0)):
        return Coefficient.make(float(re), float(im)) if as_float else Coefficient.make(re, im)

    if draw(st.booleans()):
        # a d_t + b d_x on the torus, a negLap + b d0^2 on SU(2)
        degrees = [(1, 0), (0, 1)] if family == "torus" else [(0, 1), (2, 0)]
        return [(coeff(draw(_RATIONALS)), *deg) for deg in degrees]
    return [(coeff(draw(_RATIONALS), draw(_RATIONALS)), draw(st.integers(0, 2)),
             draw(st.integers(0, 2))) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(terms=_polynomial_terms("torus"), cutoff=st.integers(2, 400),
       k_steps=st.integers(1, 4), tol=st.sampled_from([0.0, 1e-12, 0.5]))
def test_screened_search_equals_unscreened_walk_torus(terms, cutoff, k_steps, tol):
    _assert_same_search(build_symbol(TorusPoly.make(terms)), k_steps,
                        cutoff, tol)


@settings(max_examples=60, deadline=None)
@given(terms=_polynomial_terms("su2"), twice_ell=st.integers(2, 60),
       k_steps=st.integers(1, 4), tol=st.sampled_from([0.0, 1e-12, 0.5]))
def test_screened_search_equals_unscreened_walk_su2(terms, twice_ell, k_steps, tol):
    _assert_same_search(build_symbol(Su2DiagPoly.make(terms)), k_steps,
                        twice_ell * (twice_ell + 2) / 4, tol)


@pytest.mark.parametrize("as_float", [False, True])
def test_screened_search_on_expanded_pell_fourth_power(as_float):
    # (negLap + 2 d0^2)^4 expanded: sum_j C(4,j) 2^j negLap^(4-j) d0^(2j); the
    # terms grow like lambda^4 and cancel to the exact values (l(l+1) - 2m^2)^4
    terms = [(Coefficient.make(float(c) if as_float else c), 2 * j, 4 - j)
             for j, c in enumerate(math.comb(4, j) * 2**j for j in range(5))]
    sym = build_symbol(Su2DiagPoly.make(terms))
    cutoff = 288 * 289
    table = gain_table(sym, cutoff)
    # the least |t(t+2) - 2 s^2|^4 / 4^4 over s = -t..t in steps of 2
    exact = np.array([min(abs(t * (t + 2) - 2 * s * s) for s in range(-t, t + 1, 2)) ** 4 / 256
                      for t in range(len(table))])
    nonzero = exact > 0
    assert np.max(table.gain[nonzero] / exact[nonzero]) > 1e4  # the float gains are far off
    result = _assert_same_search(sym, 4, cutoff)
    if not as_float:
        assert [f.label.twice_ell for f in result.frequencies] == [2, 16, 98, 576]


def test_screened_search_past_float_range():
    # 10^306 (negLap + 2 d0^2): float values overflow from l = 19/2 on, in the
    # first run of blocks, so the screen rules nothing out there and the
    # exact test alone finds the Pell levels
    big = 10**306
    op = Su2DiagPoly.make([(Coefficient.make(big), 0, 1), (Coefficient.make(2 * big), 2, 0)])
    result = _assert_same_search(build_symbol(op), 2, 50 * 51)
    assert [f.label.twice_ell for f in result.frequencies] == [2, 16]


def test_screened_search_keeps_exact_zeros_that_round_away_from_zero():
    # (d_t + d_x/3)^2 expanded: the exact zero at (-7, 21) is about 1e-14 in
    # float, far above the ceiling (1 + 490)^{-8} of step 8; only the rounding
    # bound keeps the screen from ruling it out
    third = Fraction(1, 3)
    op = TorusPoly.make([(Coefficient.make(1), 2, 0), (Coefficient.make(2 * third), 1, 1),
                         (Coefficient.make(third**2), 0, 2)])
    sym = build_symbol(op)
    assert sym.gain(frequency_for_label(Torus2Label(-7, 21))) > 1e6 * 491.0**-8
    result = _assert_same_search(sym, 8, 700)
    assert [(f.label.xi, f.label.eta) for f in result.frequencies] == [(0, -1)] + [
        (-j, 3 * j) for j in range(1, 8)]


@pytest.mark.parametrize("op, model, k_steps, cutoff", [
    (torus_translation(Fraction(-4, 7)), TORUS2, 4, 1100),
    (torus_translation(1 / 3), TORUS2, 4, 900),
    (su2_pell_operator(), SU2, 3, 50 * 51),
])
def test_screened_search_over_small_runs_of_blocks(op, model, k_steps, cutoff, monkeypatch):
    import hyposym.symbols as symbols_module

    monkeypatch.setattr(symbols_module, "BULK_CHUNK_ENTRIES", 7)
    symbol = build_symbol(op)
    assert symbol.model == model
    _assert_same_search(symbol, k_steps, cutoff)


def test_screened_search_across_the_screen_handover(monkeypatch):
    # 2^990 negLap + d0^2: with chunks of 5 the SU(2) walk gives the gain
    # lower bounds of levels 0..63 and block_values those of levels 64..199;
    # every gain from level 1/2 on is far above 1, so both searches run out
    import hyposym.symbols as symbols_module

    monkeypatch.setattr(symbols_module, "BULK_CHUNK_ENTRIES", 5)
    op = Su2DiagPoly.make([(Coefficient.make(2.0**990), 0, 1), (Coefficient.make(1), 2, 0)])
    assert _assert_same_search(build_symbol(op), 2, 1e4) is None


def test_pell_search_evaluates_exactly_only_where_the_screen_passes(monkeypatch):
    # every level other than the Pell zeros has gain >= 1/4, far above
    # (1+lambda)^{-k}: the float screen rules it out, so su2_diag_exact
    # runs once per surviving level (the unscreened walk: 97 levels)
    import hyposym.symbols as symbols_module

    calls = []
    evaluate = symbols_module.su2_diag_exact

    def counted(op, twice_ell):
        calls.append(twice_ell)
        return evaluate(op, twice_ell)

    monkeypatch.setattr(symbols_module, "su2_diag_exact", counted)
    result = build_counterexample(build_symbol(su2_pell_operator()), 3, 50 * 51)
    assert calls == [f.label.twice_ell for f in result.frequencies] == [2, 16, 98]


def test_torus_search_evaluates_exactly_only_where_the_screen_passes(monkeypatch):
    # d_t + (3/7) d_x: away from the resonance line the gain |xi + 3 eta / 7|
    # is at least 1/7, so the screen leaves only the chosen characters to
    # torus_value_exact (the unscreened walk evaluates 1633 of them)
    import hyposym.symbols as symbols_module

    calls = []
    evaluate = symbols_module.torus_value_exact

    def counted(op, xi, eta):
        calls.append((xi, eta))
        return evaluate(op, xi, eta)

    monkeypatch.setattr(symbols_module, "torus_value_exact", counted)
    sym = build_symbol(torus_translation(Fraction(3, 7)))
    result = build_counterexample(sym, 4, 600)
    assert calls == [(f.label.xi, f.label.eta) for f in result.frequencies] == [
        (0, -1), (-3, 7), (-6, 14), (-9, 21)]


def test_image_norm_beyond_float_range():
    # 10^307 (negLap + 2 d0^2): the float entries at the Pell levels l = 8 and
    # 49 overflow to nan, the exact ones vanish; the norm comes from the exact
    # entry, in the search and in the unscreened walk alike
    big = 10**307
    op = Su2DiagPoly.make([(Coefficient.make(big), 0, 1), (Coefficient.make(2 * big), 2, 0)])
    result = _assert_same_search(build_symbol(op), 3, 50 * 51)
    assert [c.image_norm for c in result.certificates] == [0.0, 0.0, 0.0]
    assert all(c.exact for c in result.certificates)
    # a float certificate has no exact entry: 1e-3 at m = 0 of level 1 is
    # chosen, and the entries at m = +-1 overflow, so the image is not finite
    op = Su2DiagPoly.make([(Coefficient.make(1e-3), 0, 0), (Coefficient.make(1e308), 2, 1)])
    for search in (build_counterexample, unscreened_counterexample):
        with pytest.raises(PreconditionError, match="image norm"):
            search(build_symbol(op), 1, 50 * 51)


def test_counterexample_image_beyond_float_range_comes_from_the_exact_entries():
    # 10^307 (negLap + 2 d0^2) at l = 1, 8, 49: the image is the symbol applied
    # to the field where that is finite (l = 1), the exact entry elsewhere;
    # all three entries vanish, so the image does too
    big = 10**307
    op = Su2DiagPoly.make([(Coefficient.make(big), 0, 1), (Coefficient.make(2 * big), 2, 0)])
    sym = build_symbol(op)
    result = _assert_same_search(sym, 3, 50 * 51)
    assert [f.label for f in result.frequencies] == [Su2Label(2), Su2Label(16), Su2Label(98)]
    assert support_labels(result.image) == []
    with np.errstate(all="ignore"):
        applied = apply_symbol(sym, result.field, 2450)
    assert support_labels(applied) == [Su2Label(16), Su2Label(98)]  # nan vectors
    # a finite image is the applied one, bit for bit
    sym = build_symbol(torus_translation(Fraction(3, 7)))
    result = build_counterexample(sym, 4, 600)
    applied = apply_symbol(sym, result.field, 600)
    assert support_labels(result.image) == support_labels(applied)
    for freq in result.frequencies:
        assert result.image.coeff(freq).tobytes() == applied.coeff(freq).tobytes()


def test_counterexample_fields_adopt_its_vectors(monkeypatch):
    # the field's and the image's vectors are handed over read-only, the
    # exact fallback images of 10^307 (negLap + 2 d0^2) too, so neither field
    # copies them: the peak is about one copy of what the result holds
    import hyposym.coefficients as coefficients_module

    writable = []

    class Recording(CoefficientField):
        def __init__(self, explicit):
            writable.extend(v.flags.writeable for v in explicit.values())
            super().__init__(explicit)

    monkeypatch.setattr(coefficients_module, "CoefficientField", Recording)
    big = 10**307
    op = Su2DiagPoly.make([(Coefficient.make(big), 0, 1), (Coefficient.make(2 * big), 2, 0)])
    build_counterexample(build_symbol(op), 3, 50 * 51)
    assert writable == [False] * 6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build_counterexample(build_symbol(su2_pell_operator()), 4, 300 * 301)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(result.field.coeff(f).nbytes + result.image.coeff(f).nbytes
               for f in result.frequencies)
    assert held > 10**7 and peak < 1.5 * held


@pytest.mark.parametrize("poly, label, k, scale", [
    (TorusPoly, Torus2Label(2, -1), 3, Fraction(1, 6**3)),  # (1 + 5)^-3
    (Su2DiagPoly, Su2Label(1), 2, Fraction(4, 7) ** 2),  # (1 + 3/4)^-2
])
def test_exact_test_refuses_an_entry_on_the_bound(poly, label, k, scale):
    # a constant entry c = scale (3/5 + 4/5 i), |c| = (1+lambda)^{-k} exactly,
    # is not below the bound; an entry a little smaller is
    freq = frequency_for_label(label)
    for c, admitted in ((scale, False), (scale * (1 - Fraction(1, 10**30)), True)):
        op = poly.make([(Coefficient.make(c * Fraction(3, 5), c * Fraction(4, 5)), 0, 0)])
        found = _admissible(build_symbol(op), freq, k, 0.0)
        assert (found is not None) == admitted
        assert found is None or found[2] is not None  # decided exactly


def _assert_batched_application_is_per_frequency(sym, field, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from inf or nan entries
        image = apply_symbol(sym, field, cutoff)
        per_freq = {freq.label: sym.apply_to_vectors([freq], [vec])[0]
                    for freq, vec in field.window(cutoff)}
    assert support_labels(image) == [lab for lab, w in per_freq.items() if np.any(w != 0)]
    for freq, vec in image.window(cutoff):
        assert vec.tobytes() == per_freq[freq.label].tobytes()


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["torus", "su2"]), data=st.data(),
       scale=st.sampled_from([1, 10**307, 1e307]), seed=st.integers(0, 2**32 - 1))
def test_batched_apply_symbol_equals_per_frequency_application(family, data, scale, seed):
    # exact and float polynomials; scaled by 10^307 their entries leave float
    # range on most of the window, as inf or nan
    model, poly = (TORUS2, TorusPoly) if family == "torus" else (SU2, Su2DiagPoly)
    op = poly.make(data.draw(_polynomial_terms(family))).scale(scale)
    cutoff = 400 if family == "torus" else 120
    field = random_field(Window(model, cutoff), np.random.default_rng(seed), n_support=12)
    _assert_batched_application_is_per_frequency(build_symbol(op), field, cutoff)


def test_batched_apply_symbol_on_a_dense_table():
    rng = np.random.default_rng(5)
    blocks = {Su2Label(t): rng.standard_normal((t + 1, t + 1, 2)) @ [1, 1j] for t in range(9)}
    sym = build_symbol(MatrixTable("su2", blocks))
    field = random_field(Window(SU2, 24), np.random.default_rng(6), n_support=5)
    _assert_batched_application_is_per_frequency(sym, field, 24)


def test_counterexample_guard_band_follows_tol():
    # gain 0.3334 at (0, -1) is below (1 + 1)^{-1} = 0.5, not below 0.5 * (1 - 0.5)
    sym = build_symbol(torus_translation(0.3334))
    first = _assert_same_search(sym, 1, 400)
    other = _assert_same_search(sym, 1, 400, tol=0.5)
    assert first.frequencies[0].label == Torus2Label(0, -1)
    assert other.frequencies[0].label != Torus2Label(0, -1)

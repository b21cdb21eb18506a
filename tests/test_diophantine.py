from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    PellSolution,
    classify_coefficient,
    continued_fraction,
    liouville_witnesses,
    pell_solutions,
    torus_min_gain,
)
from hyposym.errors import PreconditionError, PrecisionError
from hyposym.exact import Enclosure, Surd

from oracles import (
    ball,
    best_rational_below,
    brute_pell_solutions,
    full_ball_torus_min_gain,
    interval_torus_min_gain,
)

PHI = Surd.make(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = Surd.make(0, 1, 2)


# ---------------------------------------------------------------------------
# continued fractions


def test_cf_rational_euclid():
    cf = continued_fraction(Fraction(355, 113), 10)
    assert cf.quotients == (3, 7, 16)
    assert cf.complete
    assert cf.convergents[-1] == (355, 113)


def test_cf_golden_ratio_periodic():
    cf = continued_fraction(PHI, 12)
    assert cf.quotients == (1,) * 12
    assert cf.period == (0, 1)


def test_cf_sqrt8_and_fundamental_solution():
    cf = continued_fraction(Surd.make(0, 1, 8), 9)
    assert cf.quotients == (2, 1, 4, 1, 4, 1, 4, 1, 4)
    assert cf.period == (1, 2)
    # the period-end convergent solves Pell: 3^2 - 8 * 1^2 = 1
    assert cf.convergents[1] == (3, 1)


def test_cf_needs_at_least_one_term():
    with pytest.raises(PreconditionError):
        continued_fraction(PHI, 0)


@pytest.mark.parametrize("c", [PHI, SQRT2, Surd.make(Fraction(-3, 7), Fraction(2, 3), 13),
                               Fraction(-10**40 - 1, 10**39 + 7),
                               Enclosure(Fraction(10**60, 10**60 + 1), Fraction(10**60 + 1, 10**60 + 2))],
                         ids=["phi", "sqrt2", "surd", "rational", "enclosure"])
@pytest.mark.parametrize("bound", [2, 10**6, 10**30])
def test_cf_bound_stops_at_the_first_large_convergent(c, bound):
    # the expansion with a bound is the prefix of the full one that ends at
    # the first convergent with a numerator or denominator of at least bound
    full = continued_fraction(c, 200)
    cut = continued_fraction(c, 10**12, bound)
    large = [max(abs(p), abs(q)) >= bound for p, q in full.convergents]
    n = large.index(True) + 1 if True in large else len(full.convergents)
    assert cut.convergents == full.convergents[:n]
    assert cut.quotients == full.quotients[:n]
    if n == len(full.convergents) and not any(large):
        assert (cut.complete, cut.limited_by_precision) == (full.complete, full.limited_by_precision)


def test_cf_determinant_identity_exact():
    # 500 mixed cases: random rationals and random quadratic surds
    import random

    rng = random.Random(7)
    cases = []
    for _ in range(250):
        p = rng.randint(-10**6, 10**6)
        q = rng.randint(1, 10**6)
        cases.append(Fraction(p, q))
    nonsquares = [2, 3, 5, 6, 7, 8, 10, 11, 12, 13]
    for _ in range(250):
        d = rng.choice(nonsquares)
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 20))
        cases.append(Surd.make(a, b, d))
    for value in cases:
        cf = continued_fraction(value, 14)
        conv = list(cf.convergents)
        # p_k q_{k-1} - p_{k-1} q_k = (-1)^{k-1}, with (p_{-1}, q_{-1}) = (1, 0)
        prev = (1, 0)
        for k, (p, q) in enumerate(conv):
            assert p * prev[1] - prev[0] * q == (-1) ** (k - 1)
            prev = (p, q)
        qs = [q for _, q in conv]
        assert all(q > 0 for q in qs)
        assert qs == sorted(qs)


def test_cf_approximation_quality():
    cf = continued_fraction(SQRT2, 12)
    for k in range(len(cf.convergents) - 1):
        p, q = cf.convergents[k]
        _, q_next = cf.convergents[k + 1]
        err = abs(SQRT2 - Fraction(p, q))
        assert err < Fraction(1, q * q_next)


@pytest.mark.parametrize("value", [PHI, SQRT2])
def test_best_approximation_property(value):
    # convergents from index 1 on beat every fraction with a denominator
    # up to theirs (index 0 is the floor, which rounding can beat)
    cf = continued_fraction(value, 16)
    for p, q in cf.convergents[1:]:
        if q > 500:
            break
        assert abs(value - Fraction(p, q)) <= best_rational_below(value, q)


def test_cf_enclosure_common_prefix():
    # the enclosure certifies exactly the shared quotients of its endpoints
    e = Enclosure(Fraction(141421, 100000), Fraction(141422, 100000))
    cf = continued_fraction(e, 10)
    full = continued_fraction(SQRT2, 10)
    assert 1 <= len(cf.quotients) <= 10
    assert cf.quotients == full.quotients[: len(cf.quotients)]
    assert cf.limited_by_precision


def test_cf_enclosure_too_wide():
    with pytest.raises(PrecisionError):
        continued_fraction(Enclosure(Fraction(1, 2), Fraction(3, 2)), 4)


# ---------------------------------------------------------------------------
# Pell solutions


def test_pell_d8_first_four():
    sols = pell_solutions(8, 4)
    assert [(s.u, s.m) for s in sols] == [(3, 1), (17, 6), (99, 35), (577, 204)]
    assert [s.singular_twice_ell() // 2 for s in sols] == [1, 8, 49, 288]
    # l (l+1) = 2 m^2 at the largest derived level, exactly
    assert 288 * 289 == 2 * 204 * 204


def test_pell_d2():
    assert [(s.u, s.m) for s in pell_solutions(2, 2)] == [(3, 2), (17, 12)]


def test_pell_rejects_squares_and_bad_count():
    with pytest.raises(PreconditionError):
        pell_solutions(4, 2)
    with pytest.raises(PreconditionError):
        pell_solutions(-3, 2)
    with pytest.raises(PreconditionError):
        pell_solutions(8, 0)


@pytest.mark.parametrize("d", [2, 8, 13, 61])
@pytest.mark.parametrize("bound", [1, 100, 10**40])
def test_pell_bound_stops_at_the_first_large_solution(d, bound):
    full = [(s.u, s.m) for s in pell_solutions(d, 80)]
    n = next(i for i, (u, _) in enumerate(full) if u >= bound) + 1
    for count in (10**12, n, 1):  # a count at or below the stop is served in full
        cut = [(s.u, s.m) for s in pell_solutions(d, count, bound)]
        assert cut == full[:min(n, count)]


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 10, 13, 29])
def test_pell_generator_matches_brute_force(d):
    brute = brute_pell_solutions(d, 10**4)
    gen = []
    sols = pell_solutions(d, 8)
    for s in sols:
        if s.u <= 10**4:
            gen.append((s.u, s.m))
    assert gen == brute


def test_pell_composed_solutions_keep_the_equation():
    # the composed solutions skip PellSolution's own check; the equation holds anyway
    sols = pell_solutions(8, 10_000)
    assert len(sols) == 10_000
    assert all(s.u * s.u - 8 * s.m * s.m == 1 and s.d == 8 for s in sols)
    assert [s.u for s in sols] == sorted({s.u for s in sols})


def test_a_pell_solution_built_by_a_caller_is_still_checked():
    assert pell_solutions(8, 2)[1] == PellSolution(17, 6, 8)
    with pytest.raises(ValueError, match="not a Pell solution"):
        PellSolution(17, 5, 8)


# ---------------------------------------------------------------------------
# torus minimum gain


def test_torus_gain_rational_resonance():
    res = torus_min_gain(Fraction(1), 2, 0)
    assert res.is_zero()
    assert res.exact_gain == 0
    assert res.argmin == (-1, 1)  # lexicographically smallest zero


def test_torus_gain_golden_ratio_radius_13():
    res = torus_min_gain(PHI, 13, -1)
    assert res.argmin == (-8, 5)
    # |5 phi - 8| = (5 sqrt(5) - 11)/2, interval-certified
    expected = Surd.make(Fraction(-11, 2), Fraction(5, 2), 5)
    assert res.exact_gain == expected
    assert res.gain_lo <= expected <= res.gain_hi
    assert res.gain == pytest.approx(0.09016994374947424, rel=1e-12)
    assert res.objective == pytest.approx(14 * 0.09016994374947424, rel=1e-12)


def test_torus_gain_zero_iff_resonant_pair_in_ball():
    assert torus_min_gain(Fraction(3, 7), 10, 0).is_zero() is True
    assert torus_min_gain(Fraction(3, 7), 9, 0).is_zero() is False
    assert torus_min_gain(Fraction(3, 7), 10, 0).argmin == (-3, 7)


def test_torus_gain_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        torus_min_gain(Fraction(1), 0, 0)
    with pytest.raises(PreconditionError):
        torus_min_gain(1.5, 3, 0)  # floats are not real specs
    with pytest.raises(PreconditionError):
        torus_min_gain(Fraction(1), 3, exponent=0.5)


@pytest.mark.parametrize("num,den,radius,exponent", [
    (1, 3, 6, 0), (-2, 5, 7, -1), (5, 8, 8, 1), (0, 1, 4, 0), (7, 2, 6, -2),
])
def test_torus_gain_matches_float_brute_force(num, den, radius, exponent):
    from oracles import brute_min_weighted_gain

    res = torus_min_gain(Fraction(num, den), radius, exponent)
    best_obj, _ = brute_min_weighted_gain(num / den, radius, exponent)
    assert res.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-12)


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
_SURDS = st.builds(lambda a, b, d: Surd.make(a, b, d), _SMALL_RATIONALS,
                   _SMALL_RATIONALS.filter(bool), st.sampled_from([2, 3, 5, 7, 8, 13]))


@settings(max_examples=60, deadline=None)
@given(c=st.one_of(_SMALL_RATIONALS, _SURDS), radius=st.integers(1, 40),
       exponent=st.integers(-3, 3))
def test_torus_gain_screen_equals_full_ball(c, radius, exponent):
    # rationals put exact ties in the ball (the mirror pair always, and
    # multiples of a resonance); the screen must keep every one of them
    res = torus_min_gain(c, radius, exponent)
    obj, arg, gain = full_ball_torus_min_gain(c, radius, exponent)
    assert (res.argmin, res.exact_objective, res.exact_gain) == (arg, obj, gain)


def _bounds_or_error(search, c, radius, exponent):
    """(argmin, objective_lo, objective_hi, gain_lo, gain_hi) of an
    enclosure search, or PrecisionError where it cannot order the ball."""
    try:
        res = search(c, radius, exponent)
    except PrecisionError:
        return PrecisionError
    if isinstance(res, tuple):
        return res
    return res.argmin, res.objective_lo, res.objective_hi, res.gain_lo, res.gain_hi


def _assert_matches_oracle(c, radius, exponent):
    if isinstance(c, Enclosure):
        got = _bounds_or_error(torus_min_gain, c, radius, exponent)
        assert got == _bounds_or_error(interval_torus_min_gain, c, radius, exponent)
        return
    res = torus_min_gain(c, radius, exponent)
    obj, arg, gain = full_ball_torus_min_gain(c, radius, exponent)
    assert (res.argmin, res.exact_objective, res.exact_gain) == (arg, obj, gain)


def _around(c, width) -> Enclosure:
    mid = c.enclosure()[0] if isinstance(c, Surd) else c
    return Enclosure(mid - width, mid + width)


@pytest.mark.parametrize("c, radius, exponent", [
    (Fraction(3, 7), 12, 400),  # every float weight underflows to 0
    (Fraction(3, 7), 12, -400),  # float weights beyond float range
    (Fraction(10**400, 3), 5, 0),  # c beyond float range
    (Fraction(1, 10**400), 6, -3),  # c's float is 0: the screen needs e_c's floor
    (PHI, 9, 310),  # float weights below the smallest normal float
    (SQRT2, 20, 200),
    (SQRT2, 14, -450),
    (PHI, 11, 450),
    (Surd.make(Fraction(-7, 3), Fraction(2, 5), 13), 16, -200),
    (_around(SQRT2, Fraction(1, 10**30)), 20, 200),
    (_around(PHI, Fraction(1, 10**12)), 12, -450),
    (_around(Fraction(3, 7), Fraction(1, 10**12)), 9, 300),
    # the resonance (-3, 7) in the ball: a lower end of 0, then a PrecisionError
    (_around(Fraction(3, 7), Fraction(1, 10**12)), 10, 300),
    (_around(Fraction(3, 7), Fraction(1, 10**12)), 10, -300),
    (Enclosure(Fraction(1, 3), Fraction(2, 3)), 6, 450),
])
def test_torus_gain_at_the_edges_of_float_range_equals_full_ball(c, radius, exponent):
    _assert_matches_oracle(c, radius, exponent)


@pytest.mark.parametrize("c, radius, exponent", [
    (Fraction(3, 7), 25, 0), (Fraction(-5, 3), 18, -2), (PHI, 30, -1), (SQRT2, 22, 2),
    (_around(PHI, Fraction(1, 10**20)), 24, 1),
])
def test_torus_gain_screen_over_many_runs_of_rows(c, radius, exponent, monkeypatch):
    import hyposym.diophantine as diophantine

    monkeypatch.setattr(diophantine, "BALL_CHUNK_POINTS", 7)
    xi, eta = (np.concatenate(a) for a in zip(*diophantine._ball_arrays(radius)))
    assert list(zip(xi.tolist(), eta.tolist())) == list(ball(radius))
    _assert_matches_oracle(c, radius, exponent)


_WIDTHS = st.sampled_from([0, Fraction(1, 10**30), Fraction(1, 10**14), Fraction(1, 10**6),
                           Fraction(1, 100), Fraction(1, 2), Fraction(3)])


@settings(max_examples=80, deadline=None)
@given(c=st.builds(_around, st.one_of(_SMALL_RATIONALS, _SURDS), _WIDTHS),
       radius=st.integers(1, 40), exponent=st.integers(-3, 3))
def test_torus_gain_enclosure_screen_equals_the_interval_loop(c, radius, exponent):
    # a rational center puts a resonance p/q inside every enclosure of it
    # with a width, and a wide one holds many
    _assert_matches_oracle(c, radius, exponent)


@pytest.mark.parametrize("c, radius, exponent", [
    (Enclosure(*PHI.enclosure()), 13, -1),  # intervals per mirror pair of the kept points
    (PHI, 13, 3),  # the log screen, then exact comparisons
    (Fraction(3, 7), 8, 400),  # every float weight would underflow: the log screen holds
    (Fraction(3, 7), 10, 5),  # an exact zero in the ball: no weight at all
])
def test_torus_gain_builds_one_weight_per_distance(c, radius, exponent, monkeypatch):
    import hyposym.diophantine as diophantine

    calls = []
    real = diophantine._weight
    monkeypatch.setattr(diophantine, "_weight", lambda *a: calls.append(a) or real(*a))
    torus_min_gain(c, radius, exponent)
    assert len(calls) <= radius + 1
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("c, radius, exponent", [
    (SQRT2, 300, 200),
    (SQRT2, 300, -200),
    (Enclosure(Fraction("1.41421356237") - Fraction(1, 10**12),
               Fraction("1.41421356237") + Fraction(1, 10**12)), 1000, 1),
])
def test_torus_gain_compares_a_handful_of_points_exactly(c, radius, exponent, monkeypatch):
    # 180,600 and 2,002,000 points in the ball; the screen leaves the
    # argmin and its mirror, and a weight for each of their distances
    import hyposym.diophantine as diophantine

    kept, weights = [], []
    screen, weight = diophantine._ball_candidates, diophantine._weight
    monkeypatch.setattr(diophantine, "_ball_candidates",
                        lambda *a: kept.extend(screen(*a)) or kept)
    monkeypatch.setattr(diophantine, "_weight", lambda *a: weights.append(a) or weight(*a))
    res = torus_min_gain(c, radius, exponent)
    assert res.argmin in kept
    assert len(kept) <= 4 and len(weights) <= 2


def test_torus_gain_enclosure_certified():
    # a tight enclosure of the golden ratio certifies the same argmin as
    # the exact surd computation
    lo, hi = PHI.enclosure()
    res = torus_min_gain(Enclosure(lo, hi), 13, -1)
    exact = torus_min_gain(PHI, 13, -1)
    assert res.argmin == exact.argmin == (-8, 5)
    assert res.gain_lo <= exact.exact_gain <= res.gain_hi


def test_torus_gain_enclosure_cannot_certify_exact_ties():
    # |(-1) + c*2| and |(-2) + c*5| tie exactly at c = 3/7; no finite
    # precision can order them, so the search must ask for exact input
    tight = Enclosure(Fraction(3, 7) - Fraction(1, 10**12),
                      Fraction(3, 7) + Fraction(1, 10**12))
    with pytest.raises(PrecisionError):
        torus_min_gain(tight, 7, 0)
    # the exact rational input resolves the tie deterministically
    assert torus_min_gain(Fraction(3, 7), 7, 0).argmin == (-1, 2)


def test_torus_gain_enclosure_too_wide():
    wide = Enclosure(Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(PrecisionError):
        torus_min_gain(wide, 4, 0)


# ---------------------------------------------------------------------------
# Liouville witnesses


def test_liouville_golden_ratio_empty():
    assert liouville_witnesses(PHI, 3, 10**6) == []


def test_liouville_rational_rejected():
    with pytest.raises(PreconditionError):
        liouville_witnesses(Fraction(355, 113), 3, 10**6)


def _liouville_partial_sum(k_max: int) -> Fraction:
    return sum((Fraction(1, 10**i) for i in (1, 2, 6, 24, 120)[:k_max]), Fraction(0))


def test_liouville_series_witnesses():
    # c = sum of 10^{-k!} for k <= 5, plus an enclosure of the tail:
    # the next term is 10^{-720} and the remainder is below 10^{-720-1000}
    s5 = _liouville_partial_sum(5)
    lo = s5 + Fraction(1, 10**720)
    hi = lo + Fraction(1, 10**1000)
    witnesses = liouville_witnesses(Enclosure(lo, hi), 8, 10**30)
    assert witnesses, "Liouville series must produce witnesses"
    best = {w["q"]: w["n_achieved"] for w in witnesses}
    assert best.get(10**24, 0) >= 4


# ---------------------------------------------------------------------------
# classification


def test_classify_imaginary():
    assert classify_coefficient(2 + 3j).kind == "im_nonzero"
    assert classify_coefficient((Fraction(1), Fraction(-1, 2))).kind == "im_nonzero"


def test_classify_rational():
    c = classify_coefficient(Fraction(22, 7))
    assert (c.kind, c.p, c.q) == ("rational", 22, 7)


def test_classify_float_is_its_exact_binary_value():
    c = classify_coefficient(0.5)
    assert (c.kind, c.p, c.q) == ("rational", 1, 2)
    assert "float" in c.note


def test_classify_sqrt2_evidence():
    c = classify_coefficient(SQRT2)
    assert c.kind == "irrational_evidence"
    assert c.mu_hat == pytest.approx(2.0, abs=0.15)


def test_classify_enclosure_evidence():
    lo, hi = SQRT2.enclosure()
    c = classify_coefficient(Enclosure(lo, hi))
    assert c.kind == "irrational_evidence"
    assert c.mu_hat == pytest.approx(2.0, abs=0.3)

"""The walked and screened SU(2) gain tables against the full reduction of
every entry (``oracles.unscreened_gain_table``): the same bits, the same
errors, and a fraction of the entry evaluations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import SU2, Su2DiagPoly, build_symbol, symbols
from hyposym.errors import PreconditionError
from hyposym.exact import Surd
from hyposym.spectral import Window
from hyposym.subelliptic import kernel_on_truncation
from hyposym.symbols import Coefficient, gain_table

from conftest import su2_pell_operator
from oracles import per_level_powers, unscreened_gain_table


def _poly(*terms) -> Su2DiagPoly:
    """Terms (coefficient, deg_d0, deg_neglap); a complex coefficient is float."""
    return Su2DiagPoly.make([
        (Coefficient.from_complex(c) if isinstance(c, complex) else Coefficient.make(c), a, b)
        for c, a, b in terms])


def _outcome(table_fn, op, cutoff):
    try:
        table = table_fn(build_symbol(op), cutoff)
    except (PreconditionError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return table.gain.tobytes(), table.opnorm.tobytes()


def _assert_same_table(op, cutoff):
    want = _outcome(unscreened_gain_table, op, cutoff)
    assert _outcome(gain_table, op, cutoff) == want
    return want


_EXACT = st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool)
_FLOAT = st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False), st.floats(-1e-6, 1e-6))
_COEFF = st.one_of(_EXACT, _FLOAT, st.builds(complex, _FLOAT, _FLOAT))


@st.composite
def _su2_polys(draw):
    """Up to four terms with d0 degree <= 4 and negLap degree <= 3; often
    without d0 (flat levels) or even in m with real coefficients (tied
    minima at +-m)."""
    shape = draw(st.sampled_from(["any", "flat", "even"]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        coeff = draw(_EXACT if shape == "even" else _COEFF)
        if shape == "flat":
            a = 0
        elif shape == "even":
            a -= a % 2
        terms.append((coeff, a, b))
    return _poly(*terms)


# a cutoff on a level edge: lambda of twice_ell t, up to lambda ~ 1e5
_EDGE = st.integers(0, 630).map(lambda t: t * (t + 2) / 4)


@settings(max_examples=150, deadline=None)
@given(op=_su2_polys(), cutoff=_EDGE, chunk=st.sampled_from([None, 7, 64]))
def test_screened_gain_table_equals_the_full_reduction(op, cutoff, chunk):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            # more groups, kept-run batches and chunk boundaries
            mp.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
        _assert_same_table(op, cutoff)


@pytest.mark.parametrize("op", [
    _poly((Fraction(3, 2), 0, 1), (Fraction(3, 2), 2, 0)),
    _poly((1, 0, 1), (Fraction(1, 3), 2, 0)),
    _poly((1, 0, 1), (-2, 2, 0)),
    _poly((0.37, 4, 0), (-1.3, 3, 1), (2.1, 2, 2), (0.5, 0, 4), (1.1, 1, 0), (0.3, 0, 0)),
    _poly((2 + 1j / 3, 1, 0), (Fraction(1, 7), 0, 0)),
    _poly((1, 0, 2)),
], ids=["a(negLap + d0^2)", "negLap + d0^2/3", "negLap - 2 d0^2", "degree 4, float",
        "(2 + i/3) d0 + 1/7", "negLap^2"])
def test_screened_gain_table_at_1e6(op):
    _assert_same_table(op, 1e6)


def _handover(op, cutoff) -> int | None:
    """The first level ``block_extrema`` hands to ``block_values``, or None
    when the screen covers every level and ``block_values`` is not called."""
    window = Window(SU2, cutoff)
    starts = []

    def recording(symbol, window, start=0):
        starts.append(start)
        return iter(())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbols, "block_values", recording)
        runs = [(lo, hi) for lo, hi, _, _ in symbols.block_extrema(build_symbol(op), window)]
    start = starts[0] if starts else None
    # the screened runs cover levels 0 .. start - 1, in order
    edges = [0] + [hi for _, hi in runs]
    assert [lo for lo, _ in runs] == edges[:-1]
    assert edges[-1] == (len(window) if start is None else start)
    return start


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("coeff", [1e299, 10**299, 1.5e299j])
def test_overflow_mid_window_raises_the_unscreened_message(coeff, chunk, monkeypatch):
    # entries c (l(l+1))^2 leave float range near l = 110, within the window;
    # the screen trusts levels up to lambda ~ 10 only
    if chunk is not None:
        monkeypatch.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
    op = _poly((coeff, 0, 2), (1, 2, 0))
    want = _assert_same_table(op, 1e5)
    assert want.startswith("PreconditionError: symbol values beyond float range")
    # with small groups the walk (a real c) and the screen (an imaginary c)
    # take the first levels and hand over mid-window
    start = _handover(op, 1e5)
    assert (0 < start < len(Window(SU2, 1e5))) == (chunk is not None)


@pytest.mark.parametrize("chunk, coeff, cutoff, start", [
    (5, 2.0**990, 1e4, 64), (64, 2.0**985, 1e6, 352), (None, 2.0**985 * 1j, 1e6, 335)])
def test_handover_mid_window_at_a_level_edge(chunk, coeff, cutoff, start, monkeypatch):
    # c negLap + d0^2: a level is trusted while |c| l(l+1) stays within 2^1000
    # (up to twice_ell 63 for 2^990, 361 for 2^985), and the entries stay
    # finite to the end of the window.  A real c takes the walk, whose groups
    # hold chunk / 4 levels: it hands over at level 64 with groups of one
    # level, and at 352, the first of the group of 16 that holds level 362.
    # An imaginary c takes the screen, whose groups of up to 4096 runs end
    # at level 335
    if chunk is not None:
        monkeypatch.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
    op = _poly((coeff, 0, 1), (1, 2, 0))
    assert _handover(op, cutoff) == start
    # the screened runs and the full reduction's runs tile the window, also
    # where a run of several levels holds the first open one
    window = Window(SU2, cutoff)
    runs = [(lo, hi) for lo, hi, _, _ in symbols.block_extrema(build_symbol(op), window)]
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
    assert runs[-1][1] == len(window)
    _assert_same_table(op, cutoff)


def test_degree_100_and_beyond_float_range_take_the_unscreened_pass():
    high = _poly((1, 100, 0), (1, 0, 1))
    _assert_same_table(high, 50)
    assert _handover(high, 50) == 0
    # a coefficient beyond float range fails as it always did
    big = Su2DiagPoly.make([(Coefficient.make(10**200), 0, 0), (Coefficient.make(1), 2, 0)])
    square = big.mul(big)
    message = _assert_same_table(square, 10)
    assert message.startswith(f"PreconditionError: the coefficient {10**400} + 0 i leaves")
    assert _handover(square, 10) == 0
    # the first term's Python float power lam^99 overflows before the second
    # term's coefficient is read, in the first chunk
    first = Su2DiagPoly.make([(Coefficient.make(1), 0, 99), (Coefficient.make(10**400), 1, 0)])
    assert _assert_same_table(first, 1e4).startswith("OverflowError")


@pytest.mark.parametrize("op", [
    _poly((Fraction(3, 2), 0, 1), (Fraction(3, 2), 2, 0)),
    _poly((1, 0, 1), (Fraction(3, 4), 2, 0)),
], ids=["a(negLap + d0^2)", "negLap + 3/4 d0^2"])
def test_screen_evaluates_a_fraction_of_the_entries(op, monkeypatch):
    # the walk reads a few entries per level: a silent fallback to the screen
    # or the full scan evaluates more and fails here; the kernel pass
    # evaluates again only its kernel blocks and the witness
    entries = symbols._su2_entries
    for fn in (gain_table, kernel_on_truncation):
        evaluated = []

        def counting(*args):
            out = entries(*args)
            evaluated.append(len(out))
            return out

        monkeypatch.setattr(symbols, "_su2_entries", counting)
        fn(build_symbol(op), 1e6)
        assert sum(evaluated) <= 10 * len(Window(SU2, 1e6))
    # the walk covers every level, and the full reduction is never started
    assert _handover(op, 1e6) is None


_SURD = st.builds(Surd.make, st.fractions(-20, 20, max_denominator=9),
                  st.fractions(-20, 20, max_denominator=9).filter(bool), st.sampled_from([2, 3, 5]))
_REAL = st.one_of(_EXACT, _FLOAT, _SURD)


@st.composite
def _real_quadratic_polys(draw):
    """Real symbols of d0 degree <= 2 and negLap degree <= 3: any terms, no
    d0 term (flat levels), or c negLap + r d0^2 (entries c lam - r m^2,
    zero inside the level for r > c > 0), with linear d0 terms and a
    constant drawn on top."""
    shape = draw(st.sampled_from(["any", "flat", "conic"]))
    if shape == "conic":
        terms = [(draw(_REAL), 0, 1), (draw(st.fractions(-6, 6, max_denominator=4)), 2, 0)]
        terms += draw(st.lists(st.tuples(_REAL, st.integers(0, 1), st.just(0)), max_size=2))
    else:
        terms = draw(st.lists(st.tuples(_REAL, st.integers(0, 0 if shape == "flat" else 2),
                                        st.integers(0, 3)), min_size=1, max_size=4))
    return _poly(*terms)


def _recording(mp, name) -> list:
    """Record the results of every call of ``symbols.<name>``."""
    results, original = [], getattr(symbols, name)

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    mp.setattr(symbols, name, recording)
    return results


@settings(max_examples=150, deadline=None)
@given(op=_real_quadratic_polys(), cutoff=_EDGE, chunk=st.sampled_from([None, 3, 7, 64]))
def test_walked_gain_table_equals_the_full_reduction_and_the_screen(op, cutoff, chunk):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            # more groups, and more batches within a walk step
            mp.setattr(symbols, "BULK_CHUNK_ENTRIES", chunk)
        walked = _recording(mp, "_walked_su2_extrema")
        _assert_same_table(op, cutoff)
        assert walked
    # the screen, the walk's oracle too, gives the same bits on the levels it trusts
    levels = Window(SU2, cutoff).labels[0]
    walk, screen = symbols._walked_su2_extrema(op, levels), symbols._screened_su2_extrema(op, levels)
    assert (walk is None) == (screen is None)
    if walk is not None:
        assert [x.tobytes() for x in walk] == [x.tobytes() for x in screen]
    # each level's float |entries| are even in m, bit for bit: the walks read m >= 0 only
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(symbols.su2_diag_values_bulk(op, levels))
    first = np.repeat(np.cumsum(levels + 1) - levels - 1, levels + 1)
    mirrored = 2 * first + np.repeat(levels, levels + 1) - np.arange(len(values))
    assert values.tobytes() == values[mirrored].tobytes()


def _quartic() -> Su2DiagPoly:
    """The expanded (negLap + 2 d0^2)^4: entries (l(l+1) - 2 m^2)^4."""
    square = su2_pell_operator().mul(su2_pell_operator())
    return square.mul(square)


@pytest.mark.parametrize("op, walk", [
    (_poly((1, 0, 1), (1, 2, 0)), True),
    (_poly((1, 0, 1), (3, 2, 0), (0.5, 1, 0), (Surd.make(1, 1, 2), 0, 0)), True),
    (_poly((1, 0, 1), (2 + 0j, 2, 0)), True),
    (_poly((1, 0, 1), (2 + 1e-9j, 2, 0)), False),
    (_poly((1, 0, 1), (Fraction(1, 3), 3, 0)), False),
    (_quartic(), False),
], ids=["gap", "linear d0 and a surd", "complex with zero imaginary part",
        "complex coefficient", "d0^3", "expanded quartic"])
def test_real_symbols_of_d0_degree_at_most_2_take_the_walk(op, walk, monkeypatch):
    walked = _recording(monkeypatch, "_walked_su2_extrema")
    screened = _recording(monkeypatch, "_screened_su2_extrema")
    _assert_same_table(op, 1e4)
    assert (bool(walked), bool(screened)) == (walk, not walk)
    assert all(w is not None for w in walked)


@pytest.mark.parametrize("op", [
    _poly((1, 0, 2), (3, 0, 0)),
    _poly((1, 0, 1), (Fraction(1, 10**6), 2, 0)),
    _poly((1, 0, 1), (3, 2, 0), (0.25, 1, 0)),
], ids=["flat", "nearly flat", "conic with a d0 term"])
def test_walk_holds_for_entries_anywhere_within_the_rounding_bound(op, monkeypatch):
    # the walks rely on each float |entry| lying within e of the exact one,
    # not on how it rounds: entries moved by up to 2^-50 of their size, far
    # below e (above 2^-46 of the term magnitudes) and evenly in m, but not
    # monotone along a level, still give the full reduction's bits
    entries = symbols._su2_entries

    def moved(op, levels, powers, level, start, size):
        out = entries(op, levels, powers, level, start, size)
        twice_m = np.repeat(2 * (start - np.cumsum(size) + size) - levels[level], size)
        twice_m = np.abs(twice_m + 2 * np.arange(len(out)))
        return out * (1 + 2.0**-50 * np.cos(7.3 * twice_m + np.repeat(levels[level], size)))

    monkeypatch.setattr(symbols, "_su2_entries", moved)
    walked = _recording(monkeypatch, "_walked_su2_extrema")
    _assert_same_table(op, 1e5)
    assert all(w is not None for w in walked) and walked


@pytest.mark.parametrize("levels", [
    np.arange(0, 2001),  # every level up to cutoff 1e6
    np.arange(0, 0),
    np.array([0, 1, 2, 199999, 200000]),  # up to cutoff 1e10
    np.random.default_rng(5).integers(0, 2**31, 4096),  # lam up to 2^60: inexact
])
def test_level_powers_equal_the_per_level_loop(levels):
    # lam^0 and lam^1 skip the Python powers with the same bits
    got, want = symbols._level_powers(levels), per_level_powers(levels)
    for b in range(5):
        assert got(b).dtype == want(b).dtype == np.float64
        assert got(b).tobytes() == want(b).tobytes()

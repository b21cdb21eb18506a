"""The screened SU(2) gain table against the full reduction of every entry
(``oracles.unscreened_gain_table``): the same bits, the same errors, and a
fraction of the entry evaluations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import SU2, Su2DiagPoly, build_symbol, symbols
from hyposym.errors import PreconditionError
from hyposym.spectral import Window
from hyposym.subelliptic import kernel_on_truncation
from hyposym.symbols import Coefficient, gain_table

from oracles import unscreened_gain_table


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
    # with small groups the screen takes the first levels and hands over mid-window
    start = _handover(op, 1e5)
    assert (0 < start < len(Window(SU2, 1e5))) == (chunk is not None)


@pytest.mark.parametrize("chunk, coeff, cutoff, start", [
    (5, 2.0**990, 1e4, 64), (None, 2.0**985, 1e6, 335)])
def test_handover_mid_window_at_a_level_edge(chunk, coeff, cutoff, start, monkeypatch):
    # c negLap + d0^2: the screen trusts a level while c l(l+1) stays within
    # 2^1000, and the entries stay finite to the end of the window
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
    # a silent fallback to the full scan evaluates every entry and fails here;
    # the kernel pass evaluates again only its kernel blocks and the witness
    entries = symbols._su2_entries
    for fn in (gain_table, kernel_on_truncation):
        evaluated = []

        def counting(*args):
            out = entries(*args)
            evaluated.append(len(out))
            return out

        monkeypatch.setattr(symbols, "_su2_entries", counting)
        fn(build_symbol(op), 1e6)
        assert sum(evaluated) < 0.2 * int(Window(SU2, 1e6).sizes.sum())
    # the screen covers every level, and the full reduction is never started
    assert _handover(op, 1e6) is None

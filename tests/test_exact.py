from fractions import Fraction

import pytest

from hyposym.errors import PreconditionError
from hyposym.exact import Enclosure, Surd, format_real, parse_real, sqrt_enclosure


@pytest.mark.parametrize(
    "text",
    ["3/7", "-5", "0", "355/113", "(1+1*sqrt(5))/2", "(3-2*sqrt(2))/4",
     "(-11+5*sqrt(5))/2", "dec:11/100~1/1000000"],
)
def test_parse_format_round_trip(text):
    value = parse_real(text)
    assert parse_real(format_real(value)) == value


def test_parse_rational():
    assert parse_real("22/7") == Fraction(22, 7)
    assert parse_real(" -3 ") == Fraction(-3)


def test_parse_surd_normalizes_to_rational_when_square():
    assert parse_real("(1+2*sqrt(9))/7") == Fraction(7, 7)  # 1 + 2*3 = 7
    assert parse_real("(5+0*sqrt(2))/10") == Fraction(1, 2)


def test_parse_enclosure_decimal():
    e = parse_real("dec:0.5~1e-3")
    assert isinstance(e, Enclosure)
    assert e.lo == Fraction(1, 2) - Fraction(1, 1000)
    assert e.hi == Fraction(1, 2) + Fraction(1, 1000)


def test_parse_rejects_garbage():
    for bad in ["sqrt(2)", "1/0", "(1+1*sqrt(5)/2", "dec:0.5", "abc", "(1+1*sqrt(0))/2",
                "(1+1*sqrt(5))/0", "7" * 5000, f"({'7' * 5000}+1*sqrt(5))/2"]:
        with pytest.raises(PreconditionError):
            parse_real(bad)


def test_parse_rejects_long_decimal_exponents():
    # Fraction would expand 10**(10**9) first
    for bad in ["dec:1e999999999~1", "dec:1~1E-1_000_000_000", "dec:1e+00012345~1"]:
        with pytest.raises(PreconditionError, match="more than 4 digits"):
            parse_real(bad)
    assert parse_real("dec:1e9999~1e-0009999").lo == 10**9999 - Fraction(1, 10**9999)


def test_golden_ratio_identity():
    phi = parse_real("(1+1*sqrt(5))/2")
    assert phi * phi == phi + 1  # x^2 = x + 1 exactly


def test_surd_sign_and_abs():
    s = Surd.make(Fraction(-11, 2), Fraction(5, 2), 5)  # 5 phi - 8 > 0
    assert s.sign() == 1
    assert abs(-s) == s
    t = Surd.make(3, -2, 2)  # 3 - 2 sqrt(2) > 0
    assert t.sign() == 1
    u = Surd.make(1, -1, 2)  # 1 - sqrt(2) < 0
    assert u.sign() == -1


def test_surd_comparisons_with_rationals():
    phi = Surd.make(Fraction(1, 2), Fraction(1, 2), 5)
    assert Fraction(8, 5) < phi < Fraction(13, 8)
    assert phi > 1 and phi < 2


def test_surd_enclosure_brackets_value():
    s = Surd.make(0, 1, 2)
    lo, hi = s.enclosure()
    assert lo < hi
    assert float(lo) == pytest.approx(2**0.5, abs=1e-12)
    assert lo * lo < 2 < hi * hi


def test_sqrt_enclosure_exact_bounds():
    lo, hi = sqrt_enclosure(5, bits=64)
    assert lo * lo <= 5 <= hi * hi
    assert hi - lo == Fraction(1, 2**64)


def test_quadratic_floor_in_continued_fractions():
    # _floor_quad drives the PQa loop; cross-check on random surd states
    import random

    from hyposym.diophantine import _floor_quad

    rnd = random.Random(7)
    for _ in range(800):
        d = rnd.choice([2, 3, 5, 7, 8, 10, 13, 61, 9973])
        p = rnd.randint(-10**9, 10**9)
        q = rnd.randint(1, 10**6) * rnd.choice([1, -1])
        lo, hi = sqrt_enclosure(d)
        vals = sorted(((p + lo) / q, (p + hi) / q))
        flo, fhi = vals[0].__floor__(), vals[1].__floor__()
        assert flo == fhi
        assert _floor_quad(p, d, q) == flo


def test_mixed_radicand_arithmetic_rejected():
    a = Surd.make(0, 1, 2)
    b = Surd.make(0, 1, 3)
    with pytest.raises(ValueError):
        _ = a + b


def test_enclosure_requires_order():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))

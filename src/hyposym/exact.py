"""Exact real scalars: rationals, quadratic surds, and decimal enclosures.

Resonance certificates must never depend on floating point, so every value
that can influence a certificate is kept in one of three exact forms:

* ``Fraction``                 -- an exact rational,
* ``Surd``                     -- a + b*sqrt(d) with rational a, b,
* ``Enclosure``                -- a rational interval [lo, hi].

An ``Enclosure`` only certifies statements that hold for *every* real in
[lo, hi]; operations that cannot be decided at the given width raise
``PrecisionError`` instead of guessing.

Literal grammar (used in spec files and on the CLI):

* ``"p/q"`` or ``"p"``                  exact rational
* ``"(a+b*sqrt(d))/c"``                 quadratic surd, integer a, b, c, d
* ``"dec:<decimal>~<width>"``           enclosure  [decimal-width, decimal+width]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import PreconditionError

__all__ = [
    "Surd",
    "Enclosure",
    "RealSpec",
    "parse_real",
    "format_real",
    "is_square",
    "sqrt_enclosure",
]


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def sqrt_enclosure(d: int, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(d) with width 2**-bits."""
    if d < 0:
        raise ValueError("negative radicand")
    s = isqrt(d << (2 * bits))
    scale = 1 << bits
    return Fraction(s, scale), Fraction(s + 1, scale)


@dataclass(frozen=True)
class Surd:
    """The real number a + b*sqrt(d), with a, b rational and d a nonsquare.

    Instances are genuinely irrational by construction: ``make`` returns a
    plain ``Fraction`` whenever b = 0 or d is a perfect square.  Arithmetic
    stays inside one quadratic field; mixing distinct radicands raises.
    """

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b, d: int):
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            return a
        if d <= 0:
            raise ValueError("radicand must be positive")
        if is_square(d):
            return a + b * isqrt(d)
        return Surd(a, b, d)

    def _lift(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Surd.make(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Surd.make(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Surd.make(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return Surd.make(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0: positive iff a^2 > b^2 d
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return None
        diff = self - o
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __float__(self):
        lo, hi = self.enclosure()
        return float((lo + hi) / 2)

    def enclosure(self, bits: int = 128) -> tuple[Fraction, Fraction]:
        slo, shi = sqrt_enclosure(self.d, bits)
        if self.b >= 0:
            return self.a + self.b * slo, self.a + self.b * shi
        return self.a + self.b * shi, self.a + self.b * slo

    def __str__(self):
        den = gcd(self.a.denominator, self.b.denominator)
        c = self.a.denominator * self.b.denominator // den
        an = self.a.numerator * (c // self.a.denominator)
        bn = self.b.numerator * (c // self.b.denominator)
        sign = "+" if bn >= 0 else "-"
        return f"({an}{sign}{abs(bn)}*sqrt({self.d}))/{c}"


@dataclass(frozen=True)
class Enclosure:
    """Rational interval [lo, hi]; certifies only interval-wide statements."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("enclosure endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __float__(self):
        return float((self.lo + self.hi) / 2)

    def __str__(self):
        # fraction literals keep the round-trip exact; the grammar takes both
        mid = (self.lo + self.hi) / 2
        return f"dec:{mid}~{self.width / 2}"


RealSpec = Fraction | Surd | Enclosure

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_SURD_RE = re.compile(
    r"^\(\s*(?P<a>[+-]?\d+)\s*(?P<sign>[+-])\s*(?P<b>\d+)\s*\*\s*"
    r"sqrt\(\s*(?P<d>\d+)\s*\)\s*\)\s*/\s*(?P<c>[+-]?\d+)$"
)
_DEC_RE = re.compile(r"^dec:(?P<mid>[^~]+)~(?P<wid>.+)$")
_EXPONENT_RE = re.compile(r"[eE][+-]?([\d_]+)")


def _decimal(text: str) -> Fraction:
    """``Fraction(text)`` for a decimal whose exponent has at most 4 digits:
    Fraction expands 10**exponent, at a cost that grows with the exponent."""
    exp = _EXPONENT_RE.search(text)
    if exp and len(exp[1].replace("_", "").lstrip("0")) > 4:
        raise ValueError(f"the exponent of {text!r} has more than 4 digits")
    return Fraction(text)


def parse_real(text: str) -> RealSpec:
    """Parse the exact-real literal grammar; raises PreconditionError."""
    s = text.strip()
    try:
        if _RAT_RE.match(s):
            return Fraction(s)
        m = _SURD_RE.match(s)
        if m:
            c = int(m["c"])
            if c == 0:
                raise PreconditionError(f"zero denominator in {text!r}")
            b = int(m["b"]) * (1 if m["sign"] == "+" else -1)
            return Surd.make(Fraction(int(m["a"]), c), Fraction(b, c), int(m["d"]))
    except (ValueError, ZeroDivisionError) as exc:  # "1/0", a radicand 0, over 4300 digits
        raise PreconditionError(f"bad real literal {text!r}: {exc}") from None
    m = _DEC_RE.match(s)
    if m:
        try:
            mid = _decimal(m["mid"].strip())
            wid = _decimal(m["wid"].strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad enclosure literal {text!r}: {exc}")
        if wid < 0:
            raise PreconditionError("enclosure width must be nonnegative")
        return Enclosure(mid - wid, mid + wid)
    raise PreconditionError(f"unrecognized real literal {text!r}")


def format_real(value: RealSpec) -> str:
    """Inverse of parse_real on its range (round-trips exactly)."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)

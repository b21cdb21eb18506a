"""The exact operator algebra: coefficients, and the torus and SU(2)
diagonal polynomials whose sums, multiples and compositions are
polynomials again.  It needs no numpy, so a polynomial spec is parsed,
checked and echoed without it; ``symbols`` evaluates these polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import PreconditionError
from .exact import Surd, format_real

__all__ = ["Coefficient", "TorusPoly", "Su2DiagPoly"]

RealPart = Fraction | Surd | float


@dataclass(frozen=True)
class Coefficient:
    """A complex scalar whose parts are exact (Fraction/Surd) or float.

    Exactness is declared, not inferred: a float part keeps the whole
    coefficient off every certification path even when its value happens
    to be rational (every float is), while int/Fraction/Surd parts are
    treated as exact statements about the operator.
    """

    re: RealPart
    im: RealPart

    @staticmethod
    def make(re=0, im=0) -> "Coefficient":
        def norm(x):
            if isinstance(x, bool):
                raise PreconditionError("boolean is not a coefficient part")
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, (Fraction, Surd, float)):
                return x
            raise PreconditionError(f"unsupported coefficient part {x!r}")

        return Coefficient(norm(re), norm(im))

    @staticmethod
    def from_complex(z: complex) -> "Coefficient":
        return Coefficient(float(z.real), float(z.imag))

    @property
    def is_exact(self) -> bool:
        return not (isinstance(self.re, float) or isinstance(self.im, float))

    def to_complex(self) -> complex:
        """The float value, converted on the first call only (a surd goes
        through a Fraction enclosure); an exact part beyond float range
        (which poly algebra can build) is a precondition violation at every
        call."""
        return self._complex

    @functools.cached_property
    def _complex(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise PreconditionError(f"the coefficient {format_real(self.re)} + "
                                    f"{format_real(self.im)} i leaves float range") from None

    def is_zero(self) -> bool:
        if self.is_exact:
            return self.re == 0 and self.im == 0
        return float(self.re) == 0.0 and float(self.im) == 0.0

    def add(self, other: "Coefficient") -> "Coefficient":
        try:
            return Coefficient.make(self.re + other.re, self.im + other.im)
        except (ValueError, TypeError):
            # incompatible exact kinds (e.g. mixed radicands): fall back to float
            return Coefficient.from_complex(self.to_complex() + other.to_complex())

    def mul(self, other: "Coefficient") -> "Coefficient":
        """The product; exact when both are and their kinds combine, as in ``add``."""
        try:
            return Coefficient.make(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)
        except (ValueError, TypeError):
            return Coefficient.from_complex(self.to_complex() * other.to_complex())


def _as_coefficient(value) -> Coefficient:
    # a complex scalar is float; int, Fraction and Surd stay exact
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, complex):
        return Coefficient.from_complex(value)
    return Coefficient.make(value)


def _merge_terms(terms):
    merged: dict[tuple[int, int], Coefficient] = {}
    order: list[tuple[int, int]] = []
    for coeff, a, b in terms:
        if not isinstance(coeff, Coefficient):
            coeff = Coefficient.from_complex(complex(coeff))
        if a < 0 or b < 0:
            raise PreconditionError("degrees must be nonnegative")
        key = (a, b)
        if key in merged:
            merged[key] = merged[key].add(coeff)
        else:
            merged[key] = coeff
            order.append(key)
    return tuple(
        (merged[k], k[0], k[1]) for k in sorted(order) if not merged[k].is_zero()
    )


@dataclass(frozen=True)
class _Poly:
    """Terms (coefficient, degree, degree) in two commuting variables.

    ``make`` merges terms of equal degrees and drops zero ones, so two
    polynomials are equal exactly when their merged terms are.  ``add``,
    ``scale`` and ``mul`` are the operator algebra: the symbol of a sum,
    scalar multiple or composition of two operators of one model is the
    sum, multiple or product of their symbols.

    ``integral_form``, which every exact value is read from, is
    ``(den, terms)`` when every coefficient is rational, else None: each
    term ``(re, im, a, b)`` adds (re + i im) x^a y^b / den, re and im integers.
    """

    terms: tuple[tuple[Coefficient, int, int], ...]
    model_kind: ClassVar[str]

    @classmethod
    def make(cls, terms):
        return cls(_merge_terms(terms))

    @functools.cached_property
    def integral_form(self):
        if not all(isinstance(c.re, Fraction) and isinstance(c.im, Fraction)
                   for c, _, _ in self.terms):
            return None
        folded = []
        for c, a, b in self.terms:  # c i^turns / scale, see the subclasses' (x, y)
            turns, scale = (a + b, 1) if self.model_kind == "torus2" else (a, 2 ** (a + 2 * b))
            re, im = ((c.re, c.im), (-c.im, c.re), (-c.re, -c.im), (c.im, -c.re))[turns % 4]
            folded.append((re / scale, im / scale, a, b))
        den = math.lcm(*(x.denominator for re, im, _, _ in folded for x in (re, im)))
        return den, tuple((int(re * den), int(im * den), a, b) for re, im, a, b in folded)

    def coefficient(self, deg_a: int, deg_b: int) -> Coefficient | None:
        return next((c for c, a, b in self.terms if (a, b) == (deg_a, deg_b)), None)

    def _same_model(self, other: "_Poly") -> "_Poly":
        if type(other) is not type(self):
            raise PreconditionError(
                f"cannot combine a {type(self).__name__} with a {type(other).__name__}")
        return other

    def add(self, other):
        return self.make(self.terms + self._same_model(other).terms)

    def scale(self, scalar):
        """The polynomial times a Coefficient, int, Fraction, Surd, float or complex."""
        c = _as_coefficient(scalar)
        return self.make((c.mul(x), a, b) for x, a, b in self.terms)

    def mul(self, other):
        return self.make((x.mul(y), a + c, b + d) for x, a, b in self.terms
                         for y, c, d in self._same_model(other).terms)


class TorusPoly(_Poly):
    """Polynomial in the torus derivatives d_t, d_x.

    The symbol at (xi, eta) is sum of coeff * (i xi)^deg_t (i eta)^deg_x:
    its integral form takes (x, y) = (xi, eta), with i^(a+b) folded in.
    """

    model_kind = "torus2"


class Su2DiagPoly(_Poly):
    """Polynomial in the SU(2) tokens d0 (-> i m) and negLap (-> l(l+1)).

    The representation block at level l is diagonal with entries
    sum of coeff * (i m)^deg_d0 * (l(l+1))^deg_neglap, m = -l..l in unit steps.
    Its integral form takes the integers (x, y) = (2m, 4 l(l+1)) =
    (2m, T(T+2)) with T = twice_ell, with i^a / (2^a 4^b) folded in.
    """

    model_kind = "su2"

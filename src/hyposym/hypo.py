"""Global hypoellipticity analysis of a symbol.

The decision criterion: the operator is globally hypoelliptic exactly when
its gains admit a polynomial lower bound

    m(sigma(j)) >= L (1 + lambda_j)^{m/nu}   for all j >= R.

A finite window can never prove the bound, so the analysis is split into

* ``certify``       -- exact certificates of failure for the recognized
  algebraic families (rational torus resonances, imaginary half-integer
  shifts of the SU(2) neutral derivative, and the Pell-resonant quadratic
  family), each with an infinite-family description plus verified witnesses;
* ``singular_scan`` -- all in-window frequencies with vanishing gain;
* ``fit_growth``    -- the lower log-log envelope fit of the gains past the
  last singular frequency, yielding (L, m, R) and the exponent estimate.

Verdicts are labeled empirical unless a certificate fires; honesty about
window effects beats optimistic extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NoFitError, PreconditionError
from .fitting import bracket_weights, chunk_ranges, envelope_bound
from .spectral import FrequencyIndex, Su2Label, Torus2Label
from .symbols import (
    Coefficient,
    GainTable,
    OperatorSpec,
    Su2DiagPoly,
    TorusPoly,
    build_symbol,
    exact_values,
    gain_table,
    su2_diag_exact,
    torus_value_exact,
)

SINGULAR_TOL = 1e-12

__all__ = [
    "SINGULAR_TOL",
    "GrowthFit",
    "Witness",
    "Certificate",
    "Verdict",
    "singular_scan",
    "fit_growth",
    "estimate_h",
    "certify",
    "verdict",
]


# ---------------------------------------------------------------------------
# scanning and fitting


def singular_scan(table: GainTable, tol: float = SINGULAR_TOL) -> list[FrequencyIndex]:
    """Frequencies of a gain table whose gain vanishes under ``zero_mask``,
    sorted by eigenvalue."""
    if table.window.cutoff <= 0:
        raise PreconditionError("cutoff must be positive")
    return [table.window.freq(int(i)) for i in table.singular(tol)]


@dataclass(frozen=True)
class GrowthFit:
    """Fitted lower bound gain >= L (1+lambda)^{m/nu} for ordinals >= R.

    nu = ``NU`` = 2 is the Laplacian's order, fixed by the enumeration.
    ``m`` is reported in the bracket-power scale: with nu = 2 the weight
    (1+lambda)^{m/nu} equals the m-th power of the bracket (1+lambda)^{1/2}.
    ``residual`` is the largest relative violation over the fitted samples
    (nonpositive by construction of L).
    """

    L: float
    m: float
    R: int
    residual: float
    n_samples: int
    lam_max: float

    def as_dict(self) -> dict:
        return asdict(self)


def fit_growth(table: GainTable, tol: float = SINGULAR_TOL) -> GrowthFit:
    """Fit (L, m, R) from a gain table.

    R is the first ordinal past the last singular sample; m is the slope of
    the lower log-log envelope of the remaining gains against the bracket;
    L is the largest constant making the bound hold on every fitted sample.
    """
    if len(table) == 0:
        raise NoFitError("no samples")
    singular = table.singular(tol)
    r = int(singular[-1]) + 1 if len(singular) else 0
    # the samples are the blocks from ordinal R on: with tol >= 0 every zero
    # gain is singular, so all of their gains are positive
    lam, gain = table.lam[r:], table.gain[r:]
    if not tol >= 0:  # then a zero gain need not be singular
        keep = gain > 0
        lam, gain = lam[keep], gain[keep]
    if len(gain) < 8:
        raise NoFitError(
            f"only {len(gain)} usable samples past the last singular ordinal {r}"
        )
    slope, big_l, _ = envelope_bound(lam, gain, "min", lambda slope: NoFitError(
        f"the bound of slope {slope!r} leaves float range on the window"))
    # with every weight finite and big_l <= gain / weight, big_l * weight stays
    # near the gain: each violation is finite
    violations = []
    for lo, hi in chunk_ranges(len(gain)):
        w = bracket_weights(lam[lo:hi], slope)
        w *= big_l
        w /= gain[lo:hi]
        w -= 1.0
        violations.append(np.max(w))
    return GrowthFit(
        L=big_l,
        m=float(slope),
        R=r,
        residual=float(np.max(violations)),
        n_samples=len(gain),
        lam_max=float(lam[-1]),
    )


# ---------------------------------------------------------------------------
# exact certificates


@dataclass(frozen=True)
class Witness:
    """A verified singular frequency of a certified family."""

    label: object
    lam: float
    entry_index: int | None
    exact_zero: bool

    def as_dict(self) -> dict:
        return {
            "label": str(self.label),
            "lambda": self.lam,
            "entry_index": self.entry_index,
            "exact_zero": self.exact_zero,
        }


@dataclass(frozen=True)
class Certificate:
    """An analytic certificate that the gain bound fails forever."""

    family: str  # rational_resonance | imaginary_half_integer | pell_family
    description: str
    witnesses: tuple[Witness, ...]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "description": self.description,
            "witnesses": [w.as_dict() for w in self.witnesses],
        }


def _safe_float(x) -> float:
    # witness eigenvalues can exceed float range (tiny rational ratios give
    # astronomically far resonances); saturate for reporting, labels stay exact
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _verify_zero(op: TorusPoly | Su2DiagPoly, label, twice_m: int | None = None) -> Witness:
    """The witness at ``label``: its first entry that vanishes exactly, or,
    given ``twice_m``, the SU(2) entry at weight m = twice_m / 2 alone, which
    must vanish.  ``op`` has an integral form (every certifier checks it
    first)."""
    first = 0
    if isinstance(label, Torus2Label):
        _, values = torus_value_exact(op, label.xi, label.eta)
    elif twice_m is None:
        _, values = su2_diag_exact(op, label.twice_ell)
    else:  # the level's entries run over m = -l..l, so m is entry (twice_m + t) / 2
        t = label.twice_ell
        _, values = exact_values(op, (twice_m,), t * (t + 2))
        first = (twice_m + t) // 2
    if (0, 0) not in values:
        raise PreconditionError(f"no entry at the witness {label} vanishes exactly")
    return Witness(label=label, lam=_safe_float(label.eigenvalue()),
                   entry_index=first + values.index((0, 0)), exact_zero=True)


def _certify_torus(op: TorusPoly) -> Certificate | None:
    """Rational resonance of a degree-one torus polynomial.

    For a d_t + b d_x with exact rational a, b (not both zero, no other
    terms) the symbol i(a xi + b eta) vanishes on the integer points of a
    line; the primitive direction gives the infinite family.
    """
    if not op.terms or op.integral_form is None:
        return None
    if any((a, b) not in ((1, 0), (0, 1)) for _, a, b in op.terms):
        return None
    ca = op.coefficient(1, 0) or Coefficient.make(0)
    cb = op.coefficient(0, 1) or Coefficient.make(0)
    # the symbol is (a_re + i a_im) i xi + (b_re + i b_im) i eta; it vanishes
    # on a lattice line only when the real and imaginary coefficient rows
    # are parallel, i.e. both reduce to one rational direction
    rows = [r for r in ((ca.re, cb.re), (ca.im, cb.im)) if r != (0, 0)]
    if not rows:
        return None
    if len(rows) == 2:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det != 0:
            return None
    a, b = rows[0]
    # integer normal (A, B) of a xi + b eta = 0, primitive direction (-B, A)
    big_a, big_b = a.numerator * b.denominator, b.numerator * a.denominator
    g = gcd(big_a, big_b)
    dir_xi, dir_eta = -big_b // g, big_a // g
    if dir_eta < 0 or (dir_eta == 0 and dir_xi < 0):
        dir_xi, dir_eta = -dir_xi, -dir_eta
    witnesses = tuple(_verify_zero(op, Torus2Label(t * dir_xi, t * dir_eta)) for t in (1, 2, 3))
    c_str = f"{b / a}" if a != 0 else "infinity"
    return Certificate(
        family="rational_resonance",
        description=(
            f"symbol vanishes at (xi,eta) = t*({dir_xi},{dir_eta}) for every "
            f"integer t >= 1 (rational ratio {c_str})"
        ),
        witnesses=witnesses,
    )


def _certify_su2_neutral(op: Su2DiagPoly) -> Certificate | None:
    """Imaginary half-integer shift of the neutral derivative.

    For alpha d0 + q the block entries are i alpha m + q; they vanish at
    m0 = i q / alpha, which hits the weight lattice exactly when m0 is a
    half-integer -- then every level l >= |m0| with l - m0 integral is
    singular.
    """
    if op.integral_form is None:
        return None
    if any((a, b) not in ((1, 0), (0, 0)) for _, a, b in op.terms):
        return None
    alpha = op.coefficient(1, 0)
    if alpha is None:
        return None
    q = op.coefficient(0, 0) or Coefficient.make(0)
    norm2 = alpha.re * alpha.re + alpha.im * alpha.im
    if norm2 == 0:
        return None
    # m0 = i q / alpha = (i q) conj(alpha) / |alpha|^2, with i q = -q_im + i q_re
    re = (q.re * alpha.im - q.im * alpha.re) / norm2
    im = (q.re * alpha.re + q.im * alpha.im) / norm2
    if im != 0 or re.denominator > 2:
        return None
    twice_m0 = int(2 * re)
    start = abs(twice_m0)
    levels = (start, start + 2, start + 4)
    # alpha != 0 leaves one zero per level: the entry at m0 is the first, and
    # the only one evaluated, however far out the levels lie
    witnesses = tuple(_verify_zero(op, Su2Label(t), twice_m0) for t in levels)
    m0 = Fraction(twice_m0, 2)
    return Certificate(
        family="imaginary_half_integer",
        description=(
            f"block entries vanish at weight m = {m0} for every level "
            f"l >= {Fraction(start, 2)} with l - {m0} integral"
        ),
        witnesses=witnesses,
    )


def _certify_su2_pell(op: Su2DiagPoly) -> Certificate | None:
    """Pell resonance of the quadratic family with entries l(l+1) - 2 m^2.

    In tokens this is a*(negLap + 2 d0^2): the entries vanish exactly at the
    solutions of u^2 - 8 m^2 = 1 via l = (u-1)/2.  Other quadratic ratios
    take the empirical route.
    """
    if op.integral_form is None:
        return None
    if any((a, b) not in ((0, 1), (2, 0)) for _, a, b in op.terms):
        return None
    ca = op.coefficient(0, 1)
    cb = op.coefficient(2, 0)
    if ca is None or cb is None:
        return None
    if (cb.re, cb.im) != (2 * ca.re, 2 * ca.im):
        return None
    from .diophantine import pell_solutions  # only this certifier needs it

    sols = pell_solutions(8, 3)
    witnesses = tuple(_verify_zero(op, Su2Label(s.u - 1)) for s in sols)
    return Certificate(
        family="pell_family",
        description=(
            "block entries proportional to l(l+1) - 2 m^2 vanish at "
            "l = (u-1)/2 for every solution of u^2 - 8 m^2 = 1 "
            "(u, m) = (3,1), (17,6), (99,35), ..."
        ),
        witnesses=witnesses,
    )


def certify(op: OperatorSpec) -> Certificate | None:
    """Exact not-hypoelliptic certificate for the recognized families.

    Returns None when the family's hypoellipticity condition holds or the
    operator is not recognized; the empirical path takes over then.  Only
    declared-exact coefficients can certify.
    """
    if isinstance(op, TorusPoly):
        return _certify_torus(op)
    if isinstance(op, Su2DiagPoly):
        return _certify_su2_neutral(op) or _certify_su2_pell(op)
    return None


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    """Outcome of the hypoellipticity analysis on a window.

    ``certified_not_gh`` carries an exact infinite-family certificate;
    ``empirical_gh`` carries the growth fit and exponent estimate (window
    evidence, not proof); ``inconclusive`` lists the in-window singular
    frequencies that block a fit.
    """

    kind: str
    certificate: Certificate | None = None
    fit: GrowthFit | None = None
    h_hat: float | None = None
    singular: tuple[FrequencyIndex, ...] = field(default_factory=tuple)
    reason: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.certificate is not None:
            out["certificate"] = self.certificate.as_dict()
        if self.fit is not None:
            out["fit"] = self.fit.as_dict()
        if self.h_hat is not None:
            out["h_hat"] = self.h_hat if math.isfinite(self.h_hat) else "-inf"
        if self.singular:
            out["singular"] = [
                {"ordinal": f.j, "label": str(f.label), "lambda": f.lam}
                for f in self.singular
            ]
        if self.reason:
            out["reason"] = self.reason
        return out


def estimate_h(op: OperatorSpec, cutoff: float) -> float:
    """Estimated hypoellipticity exponent in the bracket-power scale.

    -inf when an exact not-hypoelliptic certificate fires; otherwise the
    fitted envelope slope.  Raises NoFitError when no usable window remains.
    """
    if certify(op) is not None:
        return float("-inf")
    return fit_growth(gain_table(build_symbol(op), cutoff)).m


def verdict(table: GainTable, tol: float = SINGULAR_TOL) -> Verdict:
    """Certificate of the table's operator if available; else growth fit
    past the singular set; else inconclusive with the singular frequencies
    listed.  The upper half is that of the table's window.
    """
    cert = certify(table.symbol.op)
    if cert is not None:
        return Verdict(kind="certified_not_gh", certificate=cert, h_hat=float("-inf"))

    singular = tuple(singular_scan(table, tol))
    if singular and max(f.lam for f in singular) > table.window.cutoff / 2.0:
        return Verdict(
            kind="inconclusive",
            singular=singular,
            reason=(
                "singular frequencies persist into the upper half of the "
                "window; no post-singular fit is trustworthy at this cutoff"
            ),
        )
    try:
        fit = fit_growth(table, tol)
    except NoFitError as exc:
        return Verdict(kind="inconclusive", singular=singular, reason=str(exc))
    return Verdict(kind="empirical_gh", fit=fit, h_hat=fit.m, singular=singular)

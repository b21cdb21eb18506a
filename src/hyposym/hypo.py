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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NoFitError, PreconditionError
from .fitting import envelope_fit
from .spectral import FrequencyIndex, SpectralModel, Su2Label, Torus2Label
from .symbols import (
    Coefficient,
    GainTable,
    MatrixSymbol,
    OperatorSpec,
    Su2DiagPoly,
    TorusPoly,
    build_symbol,
    gain_table,
    su2_diag_exact,
    torus_value_exact,
    zero_mask,
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


def singular_scan(
    symbol: MatrixSymbol,
    model: SpectralModel,
    cutoff: float,
    tol: float = SINGULAR_TOL,
) -> list[FrequencyIndex]:
    """Frequencies with eigenvalue <= cutoff whose gain vanishes under
    ``zero_mask``, sorted by eigenvalue."""
    if cutoff <= 0:
        raise PreconditionError("cutoff must be positive")
    table = gain_table(symbol, model, cutoff)
    hits = np.flatnonzero(zero_mask(table.gain, table.opnorm, tol))
    return [table.window.freq(int(i)) for i in hits]


@dataclass(frozen=True)
class GrowthFit:
    """Fitted lower bound gain >= L (1+lambda)^{m/nu} for ordinals >= R.

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
        return {
            "L": self.L,
            "m": self.m,
            "R": self.R,
            "residual": self.residual,
            "n_samples": self.n_samples,
            "lam_max": self.lam_max,
        }


def fit_growth(table: GainTable, nu: float, tol: float = SINGULAR_TOL) -> GrowthFit:
    """Fit (L, m, R) from a gain table.

    R is the first ordinal past the last singular sample; m is the slope of
    the lower log-log envelope of the remaining gains against the bracket;
    L is the largest constant making the bound hold on every fitted sample.
    """
    ordinals, lam, gain = table.ordinals, table.lam, table.gain
    if len(ordinals) == 0:
        raise NoFitError("no samples")
    singular = zero_mask(gain, table.opnorm, tol)
    if singular.any():
        r = int(ordinals[singular].max()) + 1
    else:
        r = int(ordinals.min())
    keep = (ordinals >= r) & (gain > 0)
    if keep.sum() < 8:
        raise NoFitError(
            f"only {int(keep.sum())} usable samples past the last singular ordinal {r}"
        )
    x = np.log1p(lam[keep]) / nu
    y = np.log(gain[keep])
    slope, _, _ = envelope_fit(x, y, mode="min")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(np.log1p(lam[keep]) * (slope / nu))
        big_l = float(np.min(gain[keep] / weights))
        residual = float(np.max(big_l * weights / gain[keep] - 1.0))
    if not (math.isfinite(big_l) and math.isfinite(residual)):
        raise NoFitError(f"the bound of slope {slope!r} leaves float range on the window")
    return GrowthFit(
        L=big_l,
        m=float(slope),
        R=r,
        residual=residual,
        n_samples=int(keep.sum()),
        lam_max=float(lam[keep].max()),
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


def _verify_torus_zero(op: TorusPoly, xi: int, eta: int) -> Witness:
    val = torus_value_exact(op, xi, eta)
    if val is None or val != (Fraction(0), Fraction(0)):
        raise PreconditionError(f"witness ({xi},{eta}) does not vanish exactly")
    label = Torus2Label(xi, eta)
    return Witness(label=label, lam=_safe_float(label.eigenvalue()), entry_index=0,
                   exact_zero=True)


def _verify_su2_zero(op: Su2DiagPoly, twice_ell: int) -> Witness:
    entries = su2_diag_exact(op, twice_ell)
    if entries is None:
        raise PreconditionError("witness needs exact coefficients")
    for idx, (re, im) in enumerate(entries):
        if re == 0 and im == 0:
            label = Su2Label(twice_ell)
            return Witness(label=label, lam=float(label.eigenvalue()),
                           entry_index=idx, exact_zero=True)
    raise PreconditionError(f"no vanishing entry at level {twice_ell}/2")


def _certify_torus(op: TorusPoly) -> Certificate | None:
    """Rational resonance of a degree-one torus polynomial.

    For a d_t + b d_x with exact rational a, b (not both zero, no other
    terms) the symbol i(a xi + b eta) vanishes on the integer points of a
    line; the primitive direction gives the infinite family.
    """
    if not op.terms:
        return None
    if any((a, b) not in ((1, 0), (0, 1)) for _, a, b in op.terms):
        return None
    ca = op.coefficient(1, 0) or Coefficient.make(0)
    cb = op.coefficient(0, 1) or Coefficient.make(0)
    pa, pb = ca.rational_parts(), cb.rational_parts()
    if pa is None or pb is None:
        return None
    # the symbol is (a_re + i a_im) i xi + (b_re + i b_im) i eta; it vanishes
    # on a lattice line only when the real and imaginary coefficient rows
    # are parallel, i.e. both reduce to one rational direction
    rows = [(pa[0], pb[0]), (pa[1], pb[1])]
    rows = [r for r in rows if r != (Fraction(0), Fraction(0))]
    if not rows:
        return None
    if len(rows) == 2:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det != 0:
            return None
    a, b = rows[0]
    # integer normal (A, B) of a xi + b eta = 0, primitive direction (-B, A)
    da, db = a.denominator, b.denominator
    big_a = a.numerator * db
    big_b = b.numerator * da
    g = gcd(abs(big_a), abs(big_b))
    dir_xi, dir_eta = -big_b // g, big_a // g
    if dir_eta < 0 or (dir_eta == 0 and dir_xi < 0):
        dir_xi, dir_eta = -dir_xi, -dir_eta
    witnesses = tuple(
        _verify_torus_zero(op, t * dir_xi, t * dir_eta) for t in (1, 2, 3)
    )
    c_str = f"{b}/{a}" if a != 0 else "infinity"
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
    if any((a, b) not in ((1, 0), (0, 0)) for _, a, b in op.terms):
        return None
    alpha = op.coefficient(1, 0)
    if alpha is None:
        return None
    q = op.coefficient(0, 0) or Coefficient.make(0)
    pa, pq = alpha.rational_parts(), q.rational_parts()
    if pa is None or pq is None:
        return None
    norm2 = pa[0] * pa[0] + pa[1] * pa[1]
    if norm2 == 0:
        return None
    # m0 = i q / alpha = (i q) conj(alpha) / |alpha|^2
    iq = (-pq[1], pq[0])
    re = (iq[0] * pa[0] + iq[1] * pa[1]) / norm2
    im = (iq[1] * pa[0] - iq[0] * pa[1]) / norm2
    if im != 0 or re.denominator > 2:
        return None
    twice_m0 = int(2 * re)
    start = abs(twice_m0)
    levels = (start, start + 2, start + 4)
    witnesses = tuple(_verify_su2_zero(op, t) for t in levels)
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
    if any((a, b) not in ((0, 1), (2, 0)) for _, a, b in op.terms):
        return None
    ca = op.coefficient(0, 1)
    cb = op.coefficient(2, 0)
    if ca is None or cb is None:
        return None
    pa, pb = ca.rational_parts(), cb.rational_parts()
    if pa is None or pb is None:
        return None
    if (pb[0], pb[1]) != (2 * pa[0], 2 * pa[1]):
        return None
    from .diophantine import pell_solutions  # only this certifier needs it

    sols = pell_solutions(8, 3)
    witnesses = tuple(_verify_su2_zero(op, s.u - 1) for s in sols)
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


def estimate_h(op: OperatorSpec, model: SpectralModel, cutoff: float) -> float:
    """Estimated hypoellipticity exponent in the bracket-power scale.

    -inf when an exact not-hypoelliptic certificate fires; otherwise the
    fitted envelope slope.  Raises NoFitError when no usable window remains.
    """
    if certify(op) is not None:
        return float("-inf")
    symbol = build_symbol(op, model)
    table = gain_table(symbol, model, cutoff)
    return fit_growth(table, model.nu).m


def verdict(
    op: OperatorSpec,
    model: SpectralModel,
    cutoff: float,
    tol: float = SINGULAR_TOL,
    table: GainTable | None = None,
) -> Verdict:
    """Certificate if available; else growth fit past the singular set;
    else inconclusive with the singular frequencies listed.

    ``table`` reuses a gain table of the operator's symbol up to ``cutoff``.
    """
    if op.model_kind != model.kind:
        raise PreconditionError("operator/model mismatch")
    cert = certify(op)
    if cert is not None:
        return Verdict(kind="certified_not_gh", certificate=cert, h_hat=float("-inf"))

    if table is None:
        table = gain_table(build_symbol(op, model), model, cutoff)
    sing_idx = np.flatnonzero(zero_mask(table.gain, table.opnorm, tol))
    singular = tuple(table.window.freq(int(i)) for i in sing_idx)
    if singular and max(f.lam for f in singular) > cutoff / 2.0:
        return Verdict(
            kind="inconclusive",
            singular=singular,
            reason=(
                "singular frequencies persist into the upper half of the "
                "window; no post-singular fit is trustworthy at this cutoff"
            ),
        )
    try:
        fit = fit_growth(table, model.nu, tol)
    except NoFitError as exc:
        return Verdict(kind="inconclusive", singular=singular, reason=str(exc))
    return Verdict(kind="empirical_gh", fit=fit, h_hat=fit.m, singular=singular)

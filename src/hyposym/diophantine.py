"""Exact number theory behind the resonance analysis.

Everything here runs in exact arithmetic (big integers, rationals,
quadratic surds, rational intervals); floating point appears only in
reports and in enclosures that rule lattice points out before the exact
comparison.  Provided operations:

* continued fractions of rationals, quadratic surds (with period
  detection), and decimal enclosures (certified common prefix),
* Pell equation solutions u^2 - D m^2 = 1 (fundamental solution from the
  continued fraction of sqrt(D), then the standard composition recurrence),
* certified minima of |xi + c eta| (1+|xi|+|eta|)^{-N} over lattice balls,
* Liouville-witness searches (evidence, never proof, unless the input is an
  exact series with a supplied tail enclosure),
* classification of an operator coefficient into the three arms that decide
  the degree-one torus operator: nonzero imaginary part, exact rational,
  or irrational with approximation-quality evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt, log
from statistics import median

from .errors import PreconditionError, PrecisionError
from .exact import Enclosure, RealSpec, Surd, is_square

__all__ = [
    "ContinuedFraction",
    "PellSolution",
    "TorusGainResult",
    "Classification",
    "continued_fraction",
    "pell_solutions",
    "torus_min_gain",
    "liouville_witnesses",
    "classify_coefficient",
]


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a real number.

    ``period`` is (start, length) in quotient indices when the expansion is
    eventually periodic (quadratic surds).  ``complete`` marks a fully
    expanded rational.  ``limited_by_precision`` marks an enclosure whose
    certified common prefix ran out before the requested term count.
    """

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    period: tuple[int, int] | None = None
    complete: bool = False
    limited_by_precision: bool = False


def _convergents(quotients, bound: int | None = None) -> tuple[tuple[int, int], ...]:
    """The convergents of ``quotients``; with ``bound``, up to the first one
    whose numerator or denominator is at least ``bound`` in magnitude."""
    out = []
    p1, q1 = 1, 0  # h_{-1}
    p2, q2 = 0, 1  # h_{-2}
    for a in quotients:
        p, q = a * p1 + p2, a * q1 + q2
        out.append((p, q))
        if bound is not None and max(abs(p), abs(q)) >= bound:
            break
        p2, q2, p1, q1 = p1, q1, p, q
    return tuple(out)


def _euclid_quotients(x: Fraction, n_terms: int):
    quotients = []
    num, den = x.numerator, x.denominator
    while den != 0 and len(quotients) < n_terms:
        a = num // den
        quotients.append(a)
        num, den = den, num - a * den
    return quotients, den == 0


def _cmp_sqrt(d: int, t: int) -> int:
    """Sign of sqrt(d) - t for nonsquare d."""
    if t < 0:
        return 1
    return 1 if t * t < d else -1


def _floor_quad(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d)) / q) exactly; d positive nonsquare, q != 0."""
    s = isqrt(d)
    n = (p + s) // q

    def at_most(k: int) -> bool:
        # k <= (p + sqrt(d)) / q ?
        t = k * q - p
        c = _cmp_sqrt(d, t)
        return c >= 0 if q > 0 else c <= 0

    while not at_most(n):
        n -= 1
    while at_most(n + 1):
        n += 1
    return n


def _surd_quotients(x: Surd, n_terms: int):
    """PQa expansion of a quadratic surd with period detection."""
    r = x.a.denominator * x.b.denominator
    p = x.a.numerator * (r // x.a.denominator)
    b = x.b.numerator * (r // x.b.denominator)
    d = b * b * x.d
    if b < 0:
        p, r = -p, -r
    if (d - p * p) % r != 0:
        p, d, r = p * abs(r), d * r * r, r * abs(r)

    quotients: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    period = None
    while len(quotients) < n_terms:
        state = (p, r)
        if state in seen:
            start = seen[state]
            period = (start, len(quotients) - start)
            cycle = quotients[start:]
            while len(quotients) < n_terms:
                quotients.append(cycle[(len(quotients) - start) % len(cycle)])
            break
        seen[state] = len(quotients)
        a = _floor_quad(p, d, r)
        quotients.append(a)
        p = a * r - p
        r = (d - p * p) // r
    return quotients, period


def continued_fraction(c: RealSpec, n_terms: int, bound: int | None = None) -> ContinuedFraction:
    """Exact continued fraction of ``c`` with up to ``n_terms`` quotients.

    Rationals terminate naturally; quadratic surds are exact with period
    detection; enclosures emit only quotients certified identical for both
    endpoints and stop there.  With ``bound``, the expansion also stops at
    the first convergent with a numerator or denominator of at least
    ``bound`` in magnitude.
    """
    if n_terms < 1:
        raise PreconditionError("need at least one quotient")
    if bound is not None:
        # the k-th convergent's denominator is at least phi^(k-1), phi the
        # golden ratio, so one within this many terms reaches the bound
        n_terms = min(n_terms, int(log(bound) / log((1 + 5**0.5) / 2)) + 4)
    if isinstance(c, Fraction):
        quotients, complete = _euclid_quotients(c, n_terms)
        conv = _convergents(quotients, bound)
        return ContinuedFraction(
            tuple(quotients[:len(conv)]), conv, complete=complete and len(conv) == len(quotients)
        )
    if isinstance(c, Surd):
        quotients, period = _surd_quotients(c, n_terms)
        conv = _convergents(quotients, bound)
        return ContinuedFraction(tuple(quotients[:len(conv)]), conv, period)
    if isinstance(c, Enclosure):
        qlo, lo_done = _euclid_quotients(c.lo, n_terms + 1)
        qhi, hi_done = _euclid_quotients(c.hi, n_terms + 1)
        common = []
        for a, b in zip(qlo, qhi):
            if a != b:
                break
            common.append(a)
        if not common:
            raise PrecisionError(
                "enclosure too wide to certify the first partial quotient"
            )
        limited = len(common) < n_terms and not (
            lo_done and hi_done and common == qlo == qhi
        )
        common = common[:n_terms]
        conv = _convergents(common, bound)
        return ContinuedFraction(
            tuple(common[:len(conv)]),
            conv,
            complete=False,
            limited_by_precision=limited,
        )
    raise PreconditionError(f"not a real spec: {c!r}")


# ---------------------------------------------------------------------------
# Pell equation


@dataclass(frozen=True)
class PellSolution:
    """Positive solution of u^2 - D m^2 = 1, validated on construction."""

    u: int
    m: int
    d: int

    def __post_init__(self):
        if self.u * self.u - self.d * self.m * self.m != 1:
            raise ValueError(f"not a Pell solution: {self}")

    def singular_twice_ell(self) -> int:
        """The level 2*ell = u - 1 where ell(ell+1) = 2 m^2 (for D = 8)."""
        return self.u - 1


def pell_solutions(d: int, count: int, bound: int | None = None) -> list[PellSolution]:
    """First ``count`` solutions of u^2 - D m^2 = 1 in increasing u.

    The fundamental solution is read off the continued fraction of sqrt(D)
    (period-end convergent; squared when the period is odd) and further
    solutions follow the composition rule u' = u1 u + D m1 m,
    m' = m1 u + u1 m.  With ``bound``, the list ends at the first solution
    with u >= bound (u is the largest of its numbers).
    """
    if count < 1:
        raise PreconditionError("count must be at least 1")
    if d <= 0 or is_square(d):
        raise PreconditionError("D must be a positive nonsquare integer")

    root = Surd.make(0, 1, d)
    terms = 16
    cf = continued_fraction(root, terms)
    while cf.period is None:
        terms *= 2
        cf = continued_fraction(root, terms)
    start, length = cf.period
    need = start + 2 * length + 2
    if len(cf.quotients) < need:
        cf = continued_fraction(root, need)

    # the fundamental solution is the first convergent solving the equation
    fundamental = None
    for u, m in cf.convergents:
        if u * u - d * m * m == 1 and m > 0:
            fundamental = (u, m)
            break
    if fundamental is None:  # unreachable: a solution sits at the period end
        raise PreconditionError(f"no fundamental solution found for D={d}")

    u1, m1 = fundamental
    out = [PellSolution(u1, m1, d)]
    u, m = u1, m1
    for _ in range(count - 1):
        if bound is not None and u >= bound:
            break
        u, m = u1 * u + d * m1 * m, m1 * u + u1 * m
        out.append(_composed(u, m, d))
    return out


def _composed(u: int, m: int, d: int) -> PellSolution:
    """A PellSolution built without its check: the composition rule keeps the
    equation, (u1 u + D m1 m)^2 - D (m1 u + u1 m)^2
    = (u1^2 - D m1^2)(u^2 - D m^2) = 1, and the squares of big solutions
    would cost most of the time."""
    solution = object.__new__(PellSolution)
    for name, value in (("u", u), ("m", m), ("d", d)):
        object.__setattr__(solution, name, value)
    return solution


# ---------------------------------------------------------------------------
# certified lattice minima


@dataclass(frozen=True)
class TorusGainResult:
    """Certified minimum of |xi + c eta| (1+|xi|+|eta|)^{-N} over a ball."""

    argmin: tuple[int, int]
    objective_lo: Fraction
    objective_hi: Fraction
    gain_lo: Fraction
    gain_hi: Fraction
    exponent: int
    radius: int
    exact_objective: Fraction | Surd | None = None
    exact_gain: Fraction | Surd | None = None

    @property
    def objective(self) -> float:
        return float((self.objective_lo + self.objective_hi) / 2)

    @property
    def gain(self) -> float:
        return float((self.gain_lo + self.gain_hi) / 2)

    def is_zero(self) -> bool:
        return self.exact_gain == 0


# points per run of the float screen, at least one row of the ball
BALL_CHUNK_POINTS = 1 << 16


def _ball_arrays(radius: int):
    """The points of 0 < |xi| + |eta| <= radius, xi ascending and then eta,
    as int64 arrays ``(xi, eta)`` over runs of whole rows of about
    BALL_CHUNK_POINTS points."""
    import numpy as np

    rows = max(1, BALL_CHUNK_POINTS // (2 * radius + 1))
    for first in range(-radius, radius + 1, rows):
        xi = np.arange(first, min(first + rows, radius + 1))
        rem = radius - np.abs(xi)
        lens = 2 * rem + 1
        x = np.repeat(xi, lens)
        eta = np.arange(len(x)) - np.repeat(np.cumsum(lens) - lens + rem, lens)
        keep = (x != 0) | (eta != 0)
        yield x[keep], eta[keep]


# unit roundoff and smallest normal of float64, and the relative widening
# of the log screen
_U = 2.0**-53
_TINY = 2.0**-1022
_SLACK = 2.0**-40


def _ball_candidates(c: RealSpec, radius: int, exponent: int) -> list[tuple[int, int]]:
    """The points of the ball whose objective can be the least, in the
    order of ``_ball_arrays``.

    For every c' in ``_bounds(c)`` the log objective
    log|xi + c' eta| - N log(1 + d) is enclosed from floats.  ``e_c``
    bounds twice every |c' - c_f|, c_f = float(c); the product and the sum
    in |xi + c_f eta| add 4u (|xi| + |c_f eta|), and err, 4 times that
    first-order sum plus the smallest normal float, also covers the
    roundings of err and of |xi + c_f eta| -+ err.  The logs of those ends
    are at most 745 in size, or -inf for 0, a lower end that keeps the
    point.  numpy's log and log1p, the product N log1p(d) and the
    differences are off by a few ulps of 745 + |N log1p(d)|, far less than
    the 2^-40 of it (plus 2^-40) that widens each end.  A point is kept
    when its lower end is at or below the least upper end.  So are the
    argmin and its exact ties, and for an enclosure every point whose
    interval starts below the least upper end of an interval, which are
    all the points that can decide its candidate or its PrecisionError.
    Every point is kept when c or N log1p(d) is beyond float range.
    """
    import numpy as np

    try:
        c_f = float(c)
        # twice the float of the largest |c' - c_f|, plus that float's own underflow
        e_c = 2 * float(max(abs(b - Fraction(c_f)) for b in _bounds(c))) + 5e-324
        n_log = float(exponent) * np.log1p(np.arange(radius + 1))
        screened = np.isfinite([8 * (abs(c_f) + e_c + 1) * radius, *n_log]).all()
    except OverflowError:
        screened = False
    if not screened:
        return [p for xi, eta in _ball_arrays(radius) for p in zip(xi.tolist(), eta.tolist())]
    slack = _SLACK * (745 + np.abs(n_log).max() + 1)
    least_hi, kept = inf, []
    for xi, eta in _ball_arrays(radius):
        x, ae = xi.astype(float), np.abs(eta)
        w = n_log[np.abs(xi) + ae]
        v = np.abs(x + c_f * eta)
        err = (4 * e_c + 16 * _U * abs(c_f)) * ae + 16 * _U * np.abs(x) + _TINY
        with np.errstate(divide="ignore"):
            lo_end = np.log(np.maximum(v - err, 0.0)) - w - slack
        least_hi = min(least_hi, float((np.log(v + err) - w).min()) + slack)
        keep = lo_end <= least_hi
        kept.append((xi[keep], eta[keep], lo_end[keep]))
    xi, eta, lo_end = (np.concatenate(a) for a in zip(*kept))
    keep = lo_end <= least_hi
    return list(zip(xi[keep].tolist(), eta[keep].tolist()))


def _weight(d: int, exponent: int) -> Fraction:
    """The weight (1 + d)^-N of the points at distance d = |xi| + |eta|."""
    s = 1 + d
    if exponent >= 0:
        return Fraction(1, s**exponent)
    return Fraction(s ** (-exponent))


def _bounds(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, Fraction):
        return x, x
    if isinstance(x, Enclosure):
        return x.lo, x.hi
    return x.enclosure()


def _rational_zero(c: RealSpec, radius: int) -> tuple[int, int] | None:
    """The argmin of a rational c = p/q whose zeros t (-p, q) reach the ball:
    the objective is then 0 at every zero and positive elsewhere, and the
    least |xi| + |eta|, then the least pair, is (-p, q) or (p, -q)."""
    if not isinstance(c, Fraction) or abs(c.numerator) + c.denominator > radius:
        return None
    return min((-c.numerator, c.denominator), (c.numerator, -c.denominator))


def objective_scale(c: Fraction | Surd, radius: int) -> int | None:
    """A K that bounds the exact objectives of ``torus_min_gain`` before any
    weight is built, or None when xi + c eta vanishes in the ball (the least
    objective is 0).  Every other point (s = 1 + |xi| + |eta| >= 2) has, for
    N > 0, an int of at least 2^N / K in the exact text of its objective, and
    for N < 0 an objective of at least 2^-N / K.

    Write c = a + b sqrt(d) (b = d = 0 for a rational) with D the common
    denominator of a and b, and M = |num a| + den a + |num b| + den b + d.
    For N > 0 the objective's denominator is at least s^N over the
    numerator of its irrational part (|num b| |eta| <= M R), or over that
    of |xi q + p eta| (<= M R) for c = p/q.  For N < 0 the gain is at least
    1/q for c = p/q, and for a surd at least 1/(D^2 g') by its conjugate g',
    as g g' = |(xi + a eta)^2 - d b^2 eta^2| is a nonzero rational of
    denominator dividing D^2 and g' <= R (1 + |a| + |b| sqrt d) <= R (1 + M)^2.
    So K = R (D (1 + M))^2 serves both.
    """
    if _rational_zero(c, radius) is not None:
        return None
    a, b, d = (c, Fraction(0), 0) if isinstance(c, Fraction) else (c.a, c.b, c.d)
    big_d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    big_m = abs(a.numerator) + a.denominator + abs(b.numerator) + b.denominator + d
    return radius * (big_d * (1 + big_m)) ** 2


def torus_min_gain(c: RealSpec, radius: int, exponent: int = 0) -> TorusGainResult:
    """Exact minimum of |xi + c eta| (1+|xi|+|eta|)^{-N} over 0 < |xi|+|eta| <= radius.

    ``c`` must be a real spec (the nonzero-imaginary-part case is decided
    upstream and never reaches this search).  A float enclosure of every
    log objective (``_ball_candidates``) only rules points out, and exact
    arithmetic compares the points it keeps, with one weight per distance
    among them.  Rational and quadratic-surd coefficients give a fully
    exact answer.  Enclosures are accepted only when they order every
    candidate (exact ties other than the mirror pair (-xi,-eta) therefore
    need exact input), otherwise a ``PrecisionError`` asks for more
    precision.  Exact ties prefer the smallest |xi|+|eta|, then the
    lexicographically smallest pair.
    """
    if not isinstance(c, (Fraction, Surd, Enclosure)):
        raise PreconditionError("torus gain search takes a real coefficient spec")
    if radius < 1:
        raise PreconditionError("radius must be at least 1")
    if not isinstance(exponent, int):
        raise PreconditionError("exponent must be an integer for exact weights")

    zero = _rational_zero(c, radius)
    if zero is not None:  # no weight needed: the least objective is exactly 0
        return TorusGainResult(argmin=zero, objective_lo=Fraction(0),
                               objective_hi=Fraction(0), gain_lo=Fraction(0),
                               gain_hi=Fraction(0), exponent=exponent, radius=radius,
                               exact_objective=Fraction(0), exact_gain=Fraction(0))
    points = _ball_candidates(c, radius, exponent)
    weights = {d: _weight(d, exponent) for d in {abs(xi) + abs(eta) for xi, eta in points}}
    if isinstance(c, (Fraction, Surd)):
        best = None
        for xi, eta in points:
            gain = abs(xi + c * eta)
            obj = gain * weights[abs(xi) + abs(eta)]
            tie = (abs(xi) + abs(eta), (xi, eta))
            if best is None or obj < best[0] or (obj == best[0] and tie < best[1]):
                best = (obj, tie, gain, (xi, eta))
        obj, _, gain, arg = best
        olo, ohi = _bounds(obj)
        glo, ghi = _bounds(gain)
        return TorusGainResult(
            argmin=arg,
            objective_lo=olo,
            objective_hi=ohi,
            gain_lo=glo,
            gain_hi=ghi,
            exponent=exponent,
            radius=radius,
            exact_objective=obj,
            exact_gain=gain,
        )

    # enclosure coefficient: an interval objective per mirror representative
    # (eta > 0, or eta = 0 < xi) of a kept point; the objective is even under
    # the mirror (xi, eta) -> (-xi, -eta), so the other half carries nothing
    entries = []
    for xi, eta in {(xi, eta) if eta > 0 or (eta == 0 and xi > 0) else (-xi, -eta)
                    for xi, eta in points}:
        vlo, vhi = xi + c.lo * eta, xi + c.hi * eta  # eta > 0 except on the axis
        if eta == 0:
            vlo = vhi = Fraction(xi)
        if vlo >= 0:
            alo, ahi = vlo, vhi
        elif vhi <= 0:
            alo, ahi = -vhi, -vlo
        else:
            alo, ahi = Fraction(0), max(-vlo, vhi)
        w = weights[abs(xi) + abs(eta)]
        entries.append((alo * w, ahi * w, alo, ahi, (xi, eta)))

    cand = min(entries, key=lambda e: (e[1], abs(e[4][0]) + abs(e[4][1]), e[4]))
    for other in entries:
        if other[4] != cand[4] and other[0] < cand[1]:
            raise PrecisionError(
                "enclosure too wide to order candidates; widen the coefficient"
            )
    pair = min(cand[4], (-cand[4][0], -cand[4][1]))
    return TorusGainResult(
        argmin=pair,
        objective_lo=cand[0],
        objective_hi=cand[1],
        gain_lo=cand[2],
        gain_hi=cand[3],
        exponent=exponent,
        radius=radius,
    )


# ---------------------------------------------------------------------------
# Liouville witnesses and coefficient classification


def _abs_error_bounds(c: RealSpec, p: int, q: int):
    """Bounds on |c - p/q|: (lo, hi) as Fractions (lo may be 0)."""
    target = Fraction(p, q)
    if isinstance(c, Fraction):
        e = abs(c - target)
        return e, e
    if isinstance(c, Surd):
        e = abs(c - target)
        lo, hi = e.enclosure() if isinstance(e, Surd) else (e, e)
        return max(lo, Fraction(0)), hi
    lo_err = c.lo - target
    hi_err = c.hi - target
    if lo_err >= 0:
        return lo_err, hi_err
    if hi_err <= 0:
        return -hi_err, -lo_err
    return Fraction(0), max(-lo_err, hi_err)


def _exact_error_less_than(c, p: int, q: int, bound: Fraction) -> bool:
    """Certified |c - p/q| < bound (surds compared exactly)."""
    if isinstance(c, Surd):
        diff = abs(c - Fraction(p, q))
        return diff < bound
    _, hi = _abs_error_bounds(c, p, q)
    return hi < bound


def liouville_witnesses(
    c: RealSpec,
    n_max: int,
    q_bound: int,
    *,
    q_min: int = 3,
    n_floor: int = 3,
) -> list[dict]:
    """Convergents approximating ``c`` to super-quadratic order.

    A witness is a convergent p/q with q in [q_min, q_bound] certified to
    satisfy |c - p/q| < q^{-N}; its ``n_achieved`` is the largest such
    N <= n_max.  Only witnesses with n_achieved >= n_floor are reported:
    every irrational has quality-2 convergents (and trivial hits at q <= 2),
    so smaller exponents carry no Liouville signal.  An empty list is
    evidence (not proof) of non-Liouville behavior on the searched range.
    """
    if isinstance(c, Fraction):
        raise PreconditionError("coefficient is rational; witnesses need an irrational")
    if not isinstance(c, (Surd, Enclosure)):
        raise PreconditionError("liouville search takes a real coefficient spec")
    if n_max < n_floor:
        raise PreconditionError(f"n_max must be at least {n_floor}")

    n_terms = 32
    cf = continued_fraction(c, n_terms)
    while cf.convergents[-1][1] <= q_bound:
        if cf.complete or cf.limited_by_precision or len(cf.quotients) < n_terms:
            break
        n_terms *= 2
        cf = continued_fraction(c, n_terms)

    witnesses = []
    for p, q in cf.convergents:
        if q < q_min or q > q_bound:
            continue
        achieved = 0
        for n in range(n_floor, n_max + 1):
            if _exact_error_less_than(c, p, q, Fraction(1, q**n)):
                achieved = n
            else:
                break
        if achieved >= n_floor:
            _, hi = _abs_error_bounds(c, p, q)
            witnesses.append(
                {"p": p, "q": q, "n_achieved": achieved, "err_hi": float(hi)}
            )
    return witnesses


@dataclass(frozen=True)
class Classification:
    """Exact classification of an operator coefficient.

    kind is one of ``im_nonzero``, ``rational``, ``irrational_evidence``.
    The first two arms are exact; the third carries the estimated
    irrationality exposure mu_hat fitted from convergent quality.
    """

    kind: str
    p: int | None = None
    q: int | None = None
    mu_hat: float | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.p is not None:
            out["p"], out["q"] = self.p, self.q
        if self.mu_hat is not None:
            out["mu_hat"] = self.mu_hat
        if self.note:
            out["note"] = self.note
        return out


def _split_complex(c):
    if isinstance(c, tuple) and len(c) == 2:
        return c[0], c[1]
    if isinstance(c, complex):
        return c.real, c.imag
    if isinstance(c, (int, float, Fraction, Surd, Enclosure)):
        return c, 0
    raise PreconditionError(f"cannot classify coefficient {c!r}")


def _estimate_mu(cf: ContinuedFraction) -> float | None:
    qs = [q for _, q in cf.convergents]
    mus = [
        1.0 + log(qs[k + 1]) / log(qs[k])
        for k in range(len(qs) - 1)
        if qs[k] >= 10
    ]
    if not mus:
        return None
    return float(median(mus[-5:]))


def classify_coefficient(c) -> Classification:
    """Sort a coefficient into the arms that decide the torus operator.

    Floats are classified as the exact binary rational they denote (a float
    cannot witness irrationality); pass a surd or enclosure spec to get
    irrationality evidence.
    """
    re_part, im_part = _split_complex(c)

    im_zero = (isinstance(im_part, float) and im_part == 0.0) or im_part == 0
    if not im_zero:
        return Classification(kind="im_nonzero")

    if isinstance(re_part, float):
        f = Fraction(re_part)
        return Classification(
            kind="rational",
            p=f.numerator,
            q=f.denominator,
            note="float literal treated as its exact binary value",
        )
    if isinstance(re_part, (int, Fraction)):
        f = Fraction(re_part)
        return Classification(kind="rational", p=f.numerator, q=f.denominator)
    if isinstance(re_part, Surd):
        cf = continued_fraction(re_part, 48)
        return Classification(kind="irrational_evidence", mu_hat=_estimate_mu(cf))
    if isinstance(re_part, Enclosure):
        if re_part.lo == re_part.hi:
            f = re_part.lo
            return Classification(kind="rational", p=f.numerator, q=f.denominator)
        try:
            cf = continued_fraction(re_part, 48)
        except PrecisionError:
            return Classification(
                kind="irrational_evidence",
                note="enclosure too wide to certify any convergent",
            )
        return Classification(
            kind="irrational_evidence",
            mu_hat=_estimate_mu(cf),
            note="evidence from the certified prefix of an enclosure",
        )
    raise PreconditionError(f"cannot classify coefficient {c!r}")

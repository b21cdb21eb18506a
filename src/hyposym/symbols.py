"""Matrix symbols of invariant operators.

An invariant operator acts on the coefficient vector of each frequency
through one matrix per frequency; this module represents those matrices,
evaluates them (in float and, where every coefficient is rational, exactly
from the operator's integral form: one integer polynomial over one
denominator), measures their gain (smallest singular value) and operator
norm, and fits the polynomial order of their norm growth.

An operator is given by its spec: a torus polynomial, an SU(2) diagonal
polynomial, or an explicit matrix table.  Both polynomial symbols are
commutative polynomials in the same variables at every frequency, so sums,
scalar multiples and compositions of polynomial operators are polynomials
again (``add``, ``scale``, ``mul``), and keep their exact evaluation and
rounding bound.

Structure short-circuits keep the cost honest: on both models the symbol
is a block-diagonal replication of one representation block (1x1 on the
torus), so gains, norms, kernels, and products are always computed on the
block, never on the full matrix; diagonal blocks skip the SVD entirely
(gain is the smallest |entry|, norm the largest).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping

import numpy as np

from .errors import PreconditionError, WindowTooSmallError
from .exact import Surd, format_real
from .fitting import chunk_ranges, envelope_bound
from .spectral import (
    FrequencyIndex,
    Label,
    SpectralModel,
    Su2Label,
    Window,
)

__all__ = [
    "Coefficient",
    "TorusPoly",
    "Su2DiagPoly",
    "MatrixTable",
    "OperatorSpec",
    "MatrixSymbol",
    "GainTable",
    "OrderEstimate",
    "build_symbol",
    "zero_mask",
    "block_values",
    "block_extrema",
    "gain_lower_bounds",
    "smallest_gain",
    "gain_table",
    "estimate_order",
]

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
        for c, a, b in self.terms:
            if (a, b) == (deg_a, deg_b):
                return c
        return None

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


class MatrixTable:
    """Explicit per-frequency blocks loaded from a table: the
    ``label.rep_dim()`` square representation block, 1x1 on the torus
    (replication across the eigenspace is implicit).
    ``path`` is the table file as a spec names it; equality ignores it.
    A complex block that owns its data and is read-only, so that no caller
    can write it, is adopted; any other is copied into one.
    """

    def __init__(self, model_kind: str, entries: Mapping[Label, np.ndarray], path: str = ""):
        if model_kind not in ("torus2", "su2"):
            raise PreconditionError(f"unknown model kind {model_kind!r}")
        self.model_kind = model_kind
        self.path = path
        table = {}
        for label, mat in entries.items():
            if (isinstance(mat, np.ndarray) and mat.dtype == complex
                    and mat.flags.owndata and not mat.flags.writeable):
                arr = mat
            else:
                arr = np.array(mat, dtype=complex)
                arr.setflags(write=False)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise PreconditionError(f"table block for {label} is not square")
            expected = label.rep_dim()
            if arr.shape[0] != expected:
                raise PreconditionError(
                    f"table block for {label} has size {arr.shape[0]}, expected {expected}"
                )
            table[label] = arr
        self.entries = table

    def block(self, label: Label) -> np.ndarray:
        try:
            return self.entries[label]
        except KeyError:
            raise PreconditionError(f"matrix table missing frequency {label}")

    def __eq__(self, other):
        if not isinstance(other, MatrixTable):
            return NotImplemented
        return (
            self.model_kind == other.model_kind
            and set(self.entries) == set(other.entries)
            and all(
                np.array_equal(self.entries[k], other.entries[k])
                for k in self.entries
            )
        )


OperatorSpec = TorusPoly | Su2DiagPoly | MatrixTable


# ---------------------------------------------------------------------------
# evaluation (float and exact)


def torus_values(op: TorusPoly, xi, eta) -> np.ndarray:
    """Vectorized symbol values sum c (i xi)^a (i eta)^b."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.zeros(np.broadcast(xi, eta).shape, dtype=complex)
    for coeff, a, b in op.terms:
        out += coeff.to_complex() * (1j * xi) ** a * (1j * eta) ** b
    return out


def exact_values(op: TorusPoly | Su2DiagPoly, xs, y: int):
    """``(den, [(re, im), ...])``: the integral form of ``op`` at (x, y) for
    each x of ``xs``, as integers over den, or None when a coefficient is
    not rational.  The terms are summed per degree in x at this y, then
    each value is one Horner pass over integers, highest degree first."""
    form = op.integral_form
    if form is None:
        return None
    den, terms = form
    poly = [[0, 0] for _ in range(1 + max((a for _, _, a, _ in terms), default=0))]
    for re, im, a, b in terms:
        poly[a][0] += re * y**b
        poly[a][1] += im * y**b
    values = []
    for x in xs:
        re = im = 0
        for c_re, c_im in reversed(poly):
            re, im = re * x + c_re, im * x + c_im
        values.append((re, im))
    return den, values


def torus_value_exact(op: TorusPoly, xi: int, eta: int):
    """The exact symbol at (xi, eta), as ``exact_values`` of one point."""
    return exact_values(op, (xi,), eta)


def _level_powers(levels: np.ndarray):
    """lam^b per level, computed for each b on first use: 1 and lam itself
    for b = 0 and 1, Python float powers for b >= 2 (numpy's array power
    rounds differently there)."""
    lam = levels * (levels + 2) / 4.0
    return functools.cache(lambda b: np.array([x**b for x in lam.tolist()]) if b >= 2
                           else lam if b == 1 else np.ones(len(lam)))


def _su2_entries(op: Su2DiagPoly, levels, powers, level, start, size) -> np.ndarray:
    """Entries sum c (i m)^a lam^b of runs of consecutive m, concatenated.

    Run j holds entries start[j] .. start[j] + size[j] - 1, counted from
    m = -l, of level ``levels[level[j]]``; ``powers`` is ``_level_powers(levels)``.
    The formula is elementwise: an entry's bits do not depend on which
    other entries are evaluated with it.
    """
    offsets = np.cumsum(size) - size
    # entry k is twice_m = 2 k + shift of its run
    shift = np.repeat(2 * (start - offsets) - levels[level], size)
    entry_level = np.repeat(level, size)
    im = 1j * ((2 * np.arange(len(shift)) + shift) / 2.0)
    out = np.zeros(im.shape, dtype=complex)
    for coeff, a, b in op.terms:
        out += coeff.to_complex() * im**a * powers(b)[entry_level]
    return out


def su2_diag_values_bulk(op: Su2DiagPoly, levels: np.ndarray) -> np.ndarray:
    """Diagonals of the blocks at the given twice_ell levels, concatenated."""
    every = np.arange(len(levels))
    return _su2_entries(op, levels, _level_powers(levels), every, 0 * levels, levels + 1)


# unit roundoff of float64
_U = 2.0**-53


def _rounding_gamma(op: TorusPoly | Su2DiagPoly) -> float:
    """Factor on the term magnitudes that bounds a bulk value's rounding error.

    Along one term c (i x)^a y^b of ``torus_values``/``su2_diag_values_bulk`` the
    roundings are: the coefficient's float (1), the power (i x)^a, which numpy
    forms by repeated squaring for a < 100 (a - 1 complex products, and b - 1
    for (i eta)^b on the torus), the Python power lam^b of a rounded lam
    (b + 1: lam's own rounding carried through the power, and the power's)
    and two complex products.  That is at most a + b + 3 <= D + 3
    roundings, D the largest a + b, each at most 3u relative to the term's
    magnitude (sqrt(5) u for a complex product).  The T - 1 complex
    additions over the T terms add (T - 1) u times the sum of term
    magnitudes (the recursive-sum bound), and |z| one more u.  So the
    first-order error is below 3 n u times that sum with n = D + T + 3; the
    factor 16 covers the second-order terms and the rounding of the bound
    itself.  numpy forms powers of degree 100 and up through the complex
    exponential and logarithm, with no such bound: the factor is then inf.
    """
    if max((max(a, b) for _, a, b in op.terms), default=0) >= 100:
        return math.inf
    n = max((a + b for _, a, b in op.terms), default=0) + len(op.terms) + 3
    return 16 * 3 * n * _U


def _coeff_magnitude(coeff: Coefficient) -> float:
    # floored at 2**-800: a term then stays above 2**-800 * 2**-99 * 0.75**99
    # times its factors, so every rounding in it is relative (no underflow)
    return max(abs(coeff.to_complex()), 2.0**-800)


def _rounding_bound(op: TorusPoly | Su2DiagPoly, x, y) -> np.ndarray:
    """gamma * sum |c| x^a y^b (see ``_rounding_gamma``): with x = |xi| and
    y = |eta| per character, or x = l >= |m| and y = lam per SU(2) level, a
    bound on how far each float |entry| lies from the exact |entry|."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mag = sum(_coeff_magnitude(c) * x**a * y**b for c, a, b in op.terms)
        return _rounding_gamma(op) * mag


def su2_diag_exact(op: Su2DiagPoly, twice_ell: int):
    """The exact diagonal entries at level twice_ell / 2, m = -l..l, as
    ``exact_values``."""
    return exact_values(op, range(-twice_ell, twice_ell + 1, 2), twice_ell * (twice_ell + 2))


# ---------------------------------------------------------------------------
# the symbol object

# (get, set) names of the thread count in the OpenBLAS builds numpy bundles
_BLAS_THREAD_CALLS = [("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads")]


@functools.cache
def _blas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS in numpy's wheel
    (``numpy.libs``), or None for a BLAS without a known setter."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:  # not a library this process can load
            continue
        for get, set_ in _BLAS_THREAD_CALLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    thread count.  OpenBLAS splits a large block's LAPACK work (an SVD from
    81 x 81 up) by its threads, which changes the last bits of the result,
    so a dense table's reports would depend on the CPU count; on one thread
    they do not.  A BLAS without a known setter is left as it is.  No
    ``forked`` worker enters this: they make no BLAS call."""
    calls = _blas_thread_calls()
    old = calls[0]() if calls else 1
    if old == 1:
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](old)


def smallest_gain(matrix) -> float:
    """Smallest singular value: inf over unit vectors of ||A v||."""
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.shape[0] != a.shape[1]:
        raise PreconditionError("gain needs a square matrix")
    with one_blas_thread():
        return float(np.linalg.svd(a, compute_uv=False)[-1])


def zero_mask(values, norm, tol: float):
    """Which values count as zero: ``values <= tol * max(1, norm)``.

    The one singular rule for gains, singular values and diagonal entries.
    The threshold is relative to the block norm, so verdicts are scale
    invariant; the floor 1 keeps tiny symbols from vanishing wholesale.  A
    threshold beyond float range is inf: everything counts as zero.
    """
    with np.errstate(over="ignore"):
        bound = np.maximum(1.0, norm)
        bound *= tol  # in place: one full-length buffer, then the mask
        return values <= bound


class MatrixSymbol:
    """Per-frequency matrix of the operator spec ``op``.

    Everything else follows from the spec's type, the ``model`` too.  The
    full matrix is ``label.rep_dim()`` copies of one representation block,
    and every computation happens at block level.  A polynomial symbol
    ``is_diagonal``; a ``MatrixTable`` gives dense blocks and has no exact
    path.

    For a polynomial, ``bulk`` evaluates the diagonals of a run of blocks in
    one call: ``bulk(xi, eta)`` on the torus (one entry per character) and
    ``bulk(twice_ell)`` on SU(2) (2l+1 entries per level), concatenated in
    the order of the label arrays.  ``diagonal`` is ``bulk`` on length-1
    label arrays, so one frequency and a run of them share one formula.
    ``bulk_err`` takes the same label arrays and bounds per block how far
    the |entries| of ``bulk`` lie from the exact |entries|: those of the
    rational coefficients when all are rational, else those of the
    coefficients' floats.
    """

    def __init__(self, op: OperatorSpec):
        if not isinstance(op, OperatorSpec):
            raise PreconditionError(f"unknown operator spec {op!r}")
        self.op = op
        self.model = SpectralModel(op.model_kind)
        self.is_diagonal = not isinstance(op, MatrixTable)

    def _check(self, freq: FrequencyIndex):
        if (self.model.kind == "su2") != isinstance(freq.label, Su2Label):
            raise PreconditionError("frequency does not match the symbol's model")

    def bulk(self, *labels) -> np.ndarray:
        if isinstance(self.op, Su2DiagPoly):
            return su2_diag_values_bulk(self.op, *labels)
        return torus_values(self.op, *labels)

    def bulk_err(self, *labels) -> np.ndarray:
        if isinstance(self.op, Su2DiagPoly):
            (levels,) = labels
            return _rounding_bound(self.op, levels / 2, levels * (levels + 2) / 4)
        xi, eta = labels
        return _rounding_bound(self.op, np.abs(xi), np.abs(eta))

    def diagonal(self, freq: FrequencyIndex) -> np.ndarray | None:
        """Diagonal of the representation block, when diagonal; entries
        beyond float range come out inf or nan, without a warning."""
        if not self.is_diagonal:
            return None
        self._check(freq)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.bulk(*self._label_arrays([freq]))

    def _label_arrays(self, freqs) -> tuple[np.ndarray, ...]:
        """The label arrays ``bulk`` takes, for a list of frequencies."""
        if isinstance(self.op, Su2DiagPoly):
            return (np.array([f.label.twice_ell for f in freqs]),)
        return np.array([f.label.xi for f in freqs]), np.array([f.label.eta for f in freqs])

    def block(self, freq: FrequencyIndex) -> np.ndarray:
        """The representation block (the full matrix is rep_dim copies of it)."""
        d = self.diagonal(freq)
        if d is not None:
            return np.diag(d)
        self._check(freq)
        return np.asarray(self.op.block(freq.label), dtype=complex)

    def exact_diagonal(self, freq: FrequencyIndex):
        """Exact diagonal entries as ``(den, [(re, im), ...])``, integers over
        one denominator (``exact_values``), or None when unavailable."""
        if not self.is_diagonal:
            return None
        self._check(freq)
        label = freq.label
        if isinstance(self.op, Su2DiagPoly):
            return su2_diag_exact(self.op, label.twice_ell)
        return torus_value_exact(self.op, label.xi, label.eta)

    def values(self, freq: FrequencyIndex) -> np.ndarray:
        """|entries| of a diagonal block, or the descending singular values
        (values-only SVD) of a dense one."""
        d = self.diagonal(freq)
        if d is not None:
            return np.abs(d)
        with one_blas_thread():
            return np.linalg.svd(self.block(freq), compute_uv=False)

    def vectors(self, freq: FrequencyIndex, columns) -> np.ndarray:
        """The ``columns`` of V, the block's unit right vectors in ``values``
        order: just those identity columns of a diagonal block, and those of
        vh^H from a dense block's full SVD (whose values round differently
        in the last bits: values come from ``values``)."""
        if self.is_diagonal:
            self._check(freq)
            rows = np.zeros((len(columns), freq.label.rep_dim()), dtype=complex)
            rows[np.arange(len(columns)), columns] = 1.0
        else:
            with one_blas_thread():
                rows = np.linalg.svd(self.block(freq))[2][columns].conj()
        return rows.T

    def place(self, values: np.ndarray, value: float) -> int:
        """The place in a block's ``values`` of one of them: its first place in
        a diagonal block, its last in a dense one, whose values descend (so
        a dense block's least value is at its last place)."""
        hits = np.flatnonzero(values == value)
        return int(hits[0] if self.is_diagonal else hits[-1])

    def gain(self, freq: FrequencyIndex) -> float:
        """Smallest gain m(sigma(j)); block-level, diagonal short-circuit."""
        return float(np.min(self.values(freq)))

    def opnorm(self, freq: FrequencyIndex) -> float:
        return float(np.max(self.values(freq)))

    def apply_to_vectors(self, freqs, vecs) -> list[np.ndarray]:
        """Multiply full coefficient vectors by the symbol, each at its
        frequency: a list of fresh arrays (see ``iter_apply``)."""
        return list(self.iter_apply(freqs, vecs))

    def iter_apply(self, freqs, vecs):
        """An iterator of each full coefficient vector multiplied by the
        symbol at its frequency, in order, each a fresh array computed when
        it is asked for (inf or nan where the symbol leaves float range,
        without a warning).  Every frequency and length is checked here, and
        a diagonal symbol evaluates the diagonals of all of them in one
        ``bulk`` call."""
        vecs = [np.asarray(v, dtype=complex) for v in vecs]
        for freq, v in zip(freqs, vecs):
            self._check(freq)
            if v.shape != (freq.dim,):
                raise PreconditionError(
                    f"coefficient vector has length {v.shape}, expected ({freq.dim},)"
                )
        diags = [None] * len(vecs)
        if self.is_diagonal and vecs:
            with np.errstate(over="ignore", invalid="ignore"):
                values = self.bulk(*self._label_arrays(freqs))
            dims = [f.label.rep_dim() for f in freqs]
            diags = [values[end - dim:end] for dim, end in zip(dims, np.cumsum(dims))]

        def product(freq, v, d):
            rep = freq.label.rep_dim()
            chunks, out = v.reshape(rep, rep), np.empty(freq.dim, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                if d is not None:
                    np.multiply(chunks, d[None, :], out=out.reshape(rep, rep))
                else:
                    with one_blas_thread():
                        np.matmul(chunks, self.block(freq).T, out=out.reshape(rep, rep))
            return out

        return map(product, freqs, vecs, diags)


def build_symbol(op: OperatorSpec) -> MatrixSymbol:
    """Build the evaluable symbol of an operator spec."""
    return MatrixSymbol(op)


# ---------------------------------------------------------------------------
# gain sampling over a window


class GainTable:
    """Gain and operator norm per block of a ``Window``, as arrays, read
    from ``symbol``; the block at position i has ordinal i.  On 1x1 blocks
    ``opnorm`` is ``gain``."""

    def __init__(self, symbol: MatrixSymbol, window: Window, gain: np.ndarray,
                 opnorm: np.ndarray):
        self.symbol, self.window, self.lam = symbol, window, window.lam
        self.gain, self.opnorm = gain, opnorm

    def singular(self, tol: float) -> np.ndarray:
        """The ordinals whose gain vanishes under ``zero_mask``, ascending,
        found a chunk at a time."""
        return np.concatenate([np.empty(0, np.int64)] + [
            lo + np.flatnonzero(zero_mask(self.gain[lo:hi], self.opnorm[lo:hi], tol))
            for lo, hi in chunk_ranges(len(self))])

    def __len__(self):
        return len(self.window)


# block values per chunk: each complex temporary (64 KB) stays in cache; a
# block larger than this is a chunk of its own
BULK_CHUNK_ENTRIES = 4096


def _chunks(sizes: np.ndarray, limit: int):
    """Yield ``(lo, hi)`` over runs of whole items of the given sizes, each
    run up to ``limit`` in total size, or one item larger than that.  Every
    size is at least 1, so a run holds at most ``limit`` items, and only
    the next ``limit`` sizes are summed: no full-length sum is made."""
    lo = 0
    while lo < len(sizes):
        ends = np.cumsum(sizes[lo:lo + limit])
        hi = lo + max(1, int(np.searchsorted(ends, limit, side="right")))
        yield lo, hi
        lo = hi


def block_values(symbol: MatrixSymbol, window: Window, start: int = 0):
    """Yield ``(lo, hi, values, offsets)`` over runs of whole blocks.

    The values of blocks lo..hi-1, up to BULK_CHUNK_ENTRIES of them, are
    concatenated; block lo + k starts at ``offsets[k]``, ready for
    ``np.minimum.reduceat``.  They are |bulk(labels)| for a diagonal
    symbol, else ``symbol.values`` per block: the values-only SVD of a
    dense block, as a full SVD rounds differently in the last bits and
    gains and C* are read from these.  Values beyond float range are a
    precondition violation.  The runs are those of a pass from block 0, cut
    to begin at block ``start``: the blocks before it are not evaluated.
    """
    sizes = window.sizes
    for lo, hi in _chunks(sizes, BULK_CHUNK_ENTRIES):
        if hi <= start:
            continue
        lo = max(lo, start)
        with np.errstate(over="ignore", invalid="ignore"):
            if symbol.is_diagonal:
                values = np.abs(symbol.bulk(*(x[lo:hi] for x in window.labels)))
            else:
                with one_blas_thread():  # once per run: each block's own switch is then idle
                    values = np.concatenate([symbol.values(window.freq(i))
                                             for i in range(lo, hi)])
        if not np.isfinite(values).all():
            raise PreconditionError(
                f"symbol values beyond float range at eigenvalues <= {window.lam[hi - 1]}")
        yield lo, hi, values, np.cumsum(sizes[lo:hi]) - sizes[lo:hi]


# a level the screen trusts has l^a, lam^b and every |c| l^a lam^b below
# this, so each of its entries and each screen slack is finite
_SCREEN_RANGE = 2.0**1000


def _su2_runs(levels: np.ndarray):
    """Run length ceil(sqrt(2l+1)) and run count per level of the screen."""
    length = np.ceil(np.sqrt(levels + 1)).astype(np.int64)
    return length, -(-(levels + 1) // length)


def _screen_slack(op: Su2DiagPoly, levels: np.ndarray, level, twice_m, r):
    """The screen's slack D of each run, of centre twice_m / 2 and
    half-width r at level ``levels[level]`` (see ``_screened_su2_extrema``),
    or None where the screen is not trusted."""
    ell, lam = levels / 2, levels * (levels + 2) / 4.0
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [(_coeff_magnitude(c), a, ell**a, lam**b) for c, a, b in op.terms]
        top = np.max([np.maximum(np.maximum(x, y), cm * x * y) for cm, _, x, y in terms],
                     initial=0.0)
        slack = 2 * np.broadcast_to(_rounding_bound(op, ell, lam), levels.shape)[level]
        for cm, a, _, y in terms:
            if a:
                slack += cm * y[level] * a * (np.abs(twice_m) / 2 + r) ** (a - 1) * r
        slack *= 1 + 2.0**-20
    return slack if top <= _SCREEN_RANGE and np.isfinite(slack).all() else None


def _run_extrema(op: Su2DiagPoly, levels, powers, level, start, size):
    """Least and largest |entry| of each run of ``_su2_entries``, evaluated in
    batches of whole runs that stay in cache."""
    least, most = np.empty(len(size)), np.empty(len(size))
    for lo, hi in _chunks(size, BULK_CHUNK_ENTRIES):
        values = np.abs(_su2_entries(op, levels, powers, level[lo:hi], start[lo:hi], size[lo:hi]))
        offsets = np.cumsum(size[lo:hi]) - size[lo:hi]
        least[lo:hi] = np.minimum.reduceat(values, offsets)
        most[lo:hi] = np.maximum.reduceat(values, offsets)
    return least, most


def _screened_su2_extrema(op: Su2DiagPoly, levels: np.ndarray):
    """Least and largest float |entry| of each level, read from the runs
    of its entries a screen keeps, or None where the screen is not trusted.

    A level's 2l+1 entries are cut into runs of ceil(sqrt(2l+1)) consecutive
    m.  Let v(m) be the float |entry| of ``_su2_entries`` and E(m) the exact
    |entry|, from which v lies within e = ``bulk_err`` of the level
    (``_rounding_gamma``).  Within a run of centre m_c and half-width r
    (|m - m_c| <= r) the exact entries differ by at most
    sum |c| lam^b |m^a - m_c^a| <= sum |c| lam^b a (|m_c| + r)^(a-1) r, the
    mean value bound, so every v(m) of the run lies within
    D = that sum + 2 e of v(m_c).  Computing D rounds at most T + 12 times
    along any of its T terms, each time by at most 2u relative (|c|, which
    is within 3u of the exact modulus, the powers lam^b and
    (|m_c| + r)^(a-1), the four products, the sum and 2 e), and the
    computed D times 1 + 2^-20 covers them all.  A run whose float lower end
    v(m_c) - D lies above the level's least centre value holds no entry
    below that value: rounding to nearest is monotone, so a float lower end
    above a float value means the exact lower end is above it too.  Such a
    run holds neither the level's minimum nor its ties; the upper ends and
    the largest centre value rule out runs for the maximum alike.  The kept
    runs are evaluated entry by entry with the same elementwise formula,
    so their least and largest v(m) are the level's, bit for bit.

    The screen is trusted when e is finite (degrees below 100, see
    ``_rounding_gamma``), D is finite and every term's l^a, lam^b and
    |c| l^a lam^b stay within ``_SCREEN_RANGE``: no entry of the level then
    leaves float range, and Python's float power lam^b does not overflow.
    """
    length, runs = _su2_runs(levels)
    level = np.repeat(np.arange(len(levels)), runs)
    first = np.cumsum(runs) - runs
    start = (np.arange(len(level)) - first[level]) * length[level]
    size = np.minimum(length[level], levels[level] + 1 - start)
    centre = start + (size - 1) // 2
    r = start + size - 1 - centre  # the farthest entry of the run from its centre
    slack = _screen_slack(op, levels, level, 2 * centre - levels[level], r)
    if slack is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _level_powers(levels)
        centre_value = np.abs(_su2_entries(op, levels, powers, level, centre, 1 + 0 * centre))
        least = np.minimum.reduceat(centre_value, first)[level]
        most = np.maximum.reduceat(centre_value, first)[level]
        keep = (centre_value - slack <= least) | (centre_value + slack >= most)
        least, most = _run_extrema(op, levels, powers, level[keep], start[keep], size[keep])
    first = np.searchsorted(level[keep], np.arange(len(levels)))
    return np.minimum.reduceat(least, first), np.maximum.reduceat(most, first)


def _walked_su2_extrema(op: Su2DiagPoly, levels: np.ndarray):
    """Least and largest float |entry| of each level of a real symbol of
    d0 degree <= 2, read by walks over its entries, or None where the screen
    (``_screened_su2_extrema``) is not trusted.

    Level l's entries are E(m) = C0 - C2 m^2 + i C1 m with real
    C_a = sum_b c_ab lam^b, so |E(m)|^2 = g(m^2) with the convex
    g(u) = C2^2 u^2 + (C1^2 - 2 C0 C2) u + C0^2: on m >= 0, |E| falls to its
    least value near u* = (2 C0 C2 - C1^2) / (2 C2^2), clipped to [0, l^2],
    and then rises.  The float |entries| v of ``_su2_entries`` satisfy
    v(-m) = v(m) bit for bit (negating m negates the odd parts exactly), so
    the walks read m >= 0 only.  D is the screen's slack of a run of one
    entry, 2 e times 1 + 2^-20.  Each walk takes batches of 1, 2, 4, ...
    entries, so a flat level costs O(log l) batches.

    Least value: two walks go down and up from the entry nearest sqrt(u*).
    A walk stops after a batch whose largest v less D lies above the least
    v found before the batch (rounding is monotone, as for the screen).
    That entry's E then lies above that least v plus e, and it lies
    between the entries beyond it and the entry of that least v, so every
    entry beyond it has an E at least as large and a v above the least v.

    Largest value: two walks go inward from m = l and from the smallest m,
    sharing the entries between them.  A walk stops after a batch whose
    least v plus D lies below the largest v found before the batch, so
    that entry's E lies below that largest v less e.  Every entry the walks
    leave between their stopping points has an E below the larger of
    theirs, and a v below the largest v.

    So the least and largest v found are the level's, bit for bit.
    """
    n = len(levels)
    slack = _screen_slack(op, levels, np.arange(n), 0, 0)
    if slack is None:
        return None
    powers = _level_powers(levels)
    last = levels // 2  # the entries m >= 0 are j = 0 .. last, m = j + (l - floor(l))
    c0, c1, c2 = (sum((c.to_complex().real * powers(b) for c, a, b in op.terms if a == k),
                      np.zeros(n)) for k in range(3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = c0 / c2 - (c1 / c2) ** 2 / 2  # nan or -inf for C2 = 0: then the least is at m = 0
        nearest = np.rint(np.sqrt(np.fmin(np.fmax(u, 0.0), (levels / 2) ** 2)) - levels % 2 / 2)
    nearest = np.clip(nearest, 0, last).astype(np.int64)

    def extrema(run, j, size):  # runs of entries j .. j + size - 1 of m >= 0, level run % n
        level = run % n
        with np.errstate(over="ignore", invalid="ignore"):
            return _run_extrema(op, levels, powers, level, j + (levels[level] + 1) // 2, size)

    # the entry nearest sqrt(u*) and both ends, then batches of 1, 2, 4, ...
    low, high = extrema(np.arange(3 * n), np.concatenate([nearest, 0 * last, last]),
                        np.ones(3 * n, np.int64))
    least, most = low[:n], np.maximum(high[n:2 * n], high[2 * n:])
    down, up, rise, fall = nearest - 1, nearest + 1, np.ones(n, np.int64), last - 1
    rising, falling = rise <= fall, rise <= fall
    size = 1
    while True:
        # the next entries of each walk: down to 0, up to last, and the two
        # walks for the largest value within rise .. fall
        n_down, n_up = np.clip(down + 1, 0, size), np.clip(last - up + 1, 0, size)
        n_rise = np.where(rising, np.clip(fall - rise + 1, 0, size), 0)
        n_fall = np.where(falling, np.clip(fall - rise + 1 - n_rise, 0, size), 0)
        sizes = np.concatenate([n_down, n_up, n_rise, n_fall])
        run = np.flatnonzero(sizes)
        if not len(run):
            return least, most
        low, high = np.full(4 * n, np.inf), np.full(4 * n, -np.inf)
        starts = np.concatenate([down - n_down + 1, up, rise, fall - n_fall + 1])
        low[run], high[run] = extrema(run, starts[run], sizes[run])
        low, high = low.reshape(4, n), high.reshape(4, n)
        down = np.where(high[0] - slack > least, -1, down - n_down)
        up = np.where(high[1] - slack > least, last + 1, up + n_up)
        rising &= ~(low[2] + slack < most)
        falling &= ~(low[3] + slack < most)
        rise, fall = rise + n_rise, fall - n_fall
        least = np.minimum(least, np.minimum(low[0], low[1]))
        most = np.maximum(most, np.maximum(high[2], high[3]))
        size *= 2


def block_extrema(symbol: MatrixSymbol, window: Window):
    """Yield ``(lo, hi, gain, opnorm)`` over runs of the window's blocks, in
    order: the least and largest value of blocks lo..hi-1.  An SU(2)
    polynomial symbol is read from a few of its entries as far as the
    screen is trusted, in groups of levels holding up to BULK_CHUNK_ENTRIES
    runs: a real one of d0 degree <= 2 by walks (``_walked_su2_extrema``),
    whose four runs per level are a step's batches, any other by the screen
    (``_screened_su2_extrema``).  The other blocks are reduced from
    ``block_values``.  All give the same bits, and the same errors.  On 1x1
    blocks ``opnorm`` is ``gain``.
    """
    op, start, levels = symbol.op, 0, window.labels[0]
    groups = ()
    if isinstance(op, Su2DiagPoly):
        walk = all(a <= 2 and c.im == 0 for c, a, _ in op.terms)
        read = _walked_su2_extrema if walk else _screened_su2_extrema
        groups = _chunks(np.full_like(levels, 4) if walk else _su2_runs(levels)[1],
                         BULK_CHUNK_ENTRIES)
    for lo, hi in groups:
        try:
            extrema = read(op, levels[lo:hi])
        except PreconditionError:  # a coefficient beyond float range: block_values raises it
            break
        if extrema is None:
            break
        yield lo, hi, *extrema
        start = hi
    if start == len(window):
        return
    for lo, hi, values, offsets in block_values(symbol, window, start):
        extrema = values, values  # 1x1 blocks: each value is the gain and the norm
        if len(values) > hi - lo:
            extrema = np.minimum.reduceat(values, offsets), np.maximum.reduceat(values, offsets)
        yield lo, hi, *extrema


def gain_lower_bounds(symbol: MatrixSymbol, window: Window):
    """Yield ``(lo, hi, lower)`` over runs of the window's blocks, in order.

    ``lower[i - lo]`` is at most block i's exact gain and its float gain
    ``symbol.gain``: the ``block_extrema`` gain less the symbol's
    ``bulk_err``.  It is -inf for a dense symbol, which has no rounding
    bound, and from the first run whose values leave float range onwards.
    """
    done = 0
    if symbol.is_diagonal:
        try:
            for lo, hi, gain, _ in block_extrema(symbol, window):
                err = symbol.bulk_err(*(x[lo:hi] for x in window.labels))
                with np.errstate(invalid="ignore"):  # inf - inf; no yield inside the context
                    lower = gain - err
                yield lo, hi, lower
                done = hi
        except (PreconditionError, OverflowError):  # values beyond float range
            pass
    yield done, len(window), np.full(len(window) - done, -np.inf)


def gain_table(symbol: MatrixSymbol, cutoff: float) -> GainTable:
    """Gains and operator norms of all frequencies with eigenvalue <= cutoff,
    filled from ``block_extrema``."""
    window = Window(symbol.model, cutoff)
    gains = np.empty(len(window))
    # 1x1 torus blocks: each norm is the gain
    norms = gains if symbol.model.kind == "torus2" else np.empty(len(window))
    for lo, hi, gain, opnorm in block_extrema(symbol, window):
        gains[lo:hi] = gain
        if norms is not gains:
            norms[lo:hi] = opnorm
    return GainTable(symbol, window, gains, norms)


# ---------------------------------------------------------------------------
# order estimation


@dataclass(frozen=True)
class OrderEstimate:
    """Envelope fit of log ||sigma|| against log (1+lambda)^{1/nu}, with
    nu = ``NU`` = 2 the Laplacian's order, fixed by the enumeration.

    order_hat is the fitted polynomial order; c_hat makes
    ||sigma(j)|| <= c_hat (1+lambda_j)^{order_hat/nu} hold on every sample.
    """

    order_hat: float
    c_hat: float
    n_envelope: int


def estimate_order(table: GainTable) -> OrderEstimate:
    """Fit the norm growth of the operator norms of a gain table."""
    lam, norms = table.lam, table.opnorm
    # lam is nondecreasing and nonnegative: the positive ones follow the zeros
    if len(lam) - np.searchsorted(lam, 0.0, side="right") < 8:
        raise WindowTooSmallError(
            "order estimation needs at least 8 frequencies with positive eigenvalue"
        )
    if not norms.any():  # norms are >= 0: the samples are the positive ones
        return OrderEstimate(float("-inf"), 0.0, 0)
    slope, c_hat, npts = envelope_bound(lam, norms, "max", lambda slope: WindowTooSmallError(
        f"the order {slope!r} leaves float range on the window"))
    return OrderEstimate(slope, c_hat, npts)

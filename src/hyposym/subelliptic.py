"""A-priori inequalities on spectral truncations.

On a truncation the subelliptic estimates become exact finite-dimensional
linear algebra: the kernel is frequency-local (the symbol acts blockwise),
the per-frequency constants are smallest nonzero singular values, and the
optimal constant in

    ||P f||_s >= C ||f||_{s+m}      (f orthogonal to the kernel)

is an explicit minimum over frequencies of weighted singular values --
independent of s, which the report records and asserts.  The companion
inequality

    ||f||_{s+m} <= K (||f||_s + ||P f||_s)

holds with K = max(K1, 1/C*) where K1 is the norm-equivalence constant of
the (finite-dimensional) truncated kernel.  Reports carry the cutoff so
truncation-level statements are never passed off as asymptotic ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .coefficients import CoefficientField, squared_norm, weighted_norm
from .errors import PreconditionError
from .spectral import NU, FrequencyIndex, Window, bracket_power
from .symbols import MatrixSymbol, block_extrema, one_blas_thread, zero_mask

KERNEL_TOL = 1e-12

__all__ = [
    "KERNEL_TOL",
    "TruncatedKernel",
    "SubellipticReport",
    "AlphaCheck",
    "BetaCheck",
    "kernel_on_truncation",
    "best_alpha_constant",
    "extremal_field",
    "check_alpha",
    "check_beta",
    "check_probe",
]


@dataclass(frozen=True)
class TruncatedKernel:
    """Per-frequency nullspaces of the symbol up to a cutoff.

    Bases are stored at block level; the kernel of the full matrix is the
    block kernel repeated in every one of its rep_dim chunks, so
    ``total_dim`` counts block nullity times rep_dim.
    ``boundary_singular`` flags kernel frequencies in the top fifth of the
    window -- evidence that the kernel keeps growing with the cutoff (as
    with rational torus resonances).  ``window`` is the window the kernel
    was read from, kept so the rest of a command draws on it and
    ``check_alpha`` reads its cutoff.
    """

    window: Window
    blocks: dict
    total_dim: int
    boundary_singular: bool

    def project_out(self, freq: FrequencyIndex, vec: np.ndarray) -> np.ndarray:
        """Remove the kernel component of a full coefficient vector.

        Kernel orthogonality in any s-weighted inner product agrees with the
        Euclidean one: the weight is a per-frequency scalar.  ``vec`` itself
        comes back at a frequency without kernel, and a fresh read-only
        array at any other.
        """
        basis = self.blocks.get(freq.label)
        if basis is None:
            return vec
        rep = freq.label.rep_dim()
        chunks, out = vec.reshape(rep, rep), np.empty(freq.dim, dtype=complex)
        with one_blas_thread():
            coefs = chunks @ basis.conj()  # (copies x nullity)
            np.subtract(chunks, coefs @ basis.T, out=out.reshape(rep, rep))
        out.setflags(write=False)
        return out


def _window_pass(symbol: MatrixSymbol, cutoff: float, tol: float, m: float):
    """The truncated kernel and the C* witness, from the runs of
    ``block_extrema``.  Only a block whose gain ``zero_mask`` flags has a
    kernel, and only it is evaluated again, for its basis and least nonzero
    value.  The witness (C*, freq, entry) is the first strict minimum over
    blocks of the least nonzero value times (1 + lam)^{-m/nu}, or None when
    every block is entirely kernel.  Its entry, from one more evaluation,
    is the place of that value (``MatrixSymbol.place``)."""
    if cutoff <= 0:
        raise PreconditionError("cutoff must be positive")
    window = Window(symbol.model, cutoff)
    blocks = {}
    total = 0
    boundary = False
    best = None
    for lo, hi, gain, opnorm in block_extrema(symbol, window):
        kernel = np.flatnonzero(zero_mask(gain, opnorm, tol)).tolist()
        least = gain.copy() if kernel else gain  # the least nonzero value per block
        for k in kernel:
            freq = window.freq(lo + k)
            values = symbol.values(freq)
            zero = zero_mask(values, opnorm[k], tol)
            basis = symbol.vectors(freq, np.flatnonzero(zero))
            basis.setflags(write=False)
            blocks[freq.label] = basis
            total += basis.shape[1] * freq.label.rep_dim()
            boundary = boundary or freq.lam > 0.8 * cutoff
            least[k] = np.min(values[~zero], initial=np.inf)
        cand = least  # at m = 0 every weight (1 + lam)^-0.0 is exactly 1.0
        if m:
            # one weight per distinct eigenvalue: they are nondecreasing, so equal ones are adjacent
            lam = window.lam[lo:hi]
            new = np.flatnonzero(np.diff(lam, prepend=-np.inf))
            weights = np.repeat([bracket_power(x, -m / NU) for x in lam[new].tolist()],
                                np.diff(new, append=len(lam)))
            # an all-kernel block stays out, even where its weight underflows to 0
            cand = least * np.where(least < np.inf, weights, 1.0)
        k = int(np.argmin(cand))
        if cand[k] < np.inf and (best is None or cand[k] < best[0]):
            best = (float(cand[k]), lo + k, least[k])
    if best is not None:
        c_star, i, least = best
        freq = window.freq(i)
        best = (c_star, freq, symbol.place(symbol.values(freq), least))
    return TruncatedKernel(window, blocks, total, boundary), best


def kernel_on_truncation(
    symbol: MatrixSymbol, cutoff: float, tol: float = KERNEL_TOL
) -> TruncatedKernel:
    """Null vectors of every block with eigenvalue <= cutoff."""
    return _window_pass(symbol, cutoff, tol, 0.0)[0]


@dataclass(frozen=True)
class SubellipticReport:
    """Exact constants of the truncated a-priori inequalities.

    c_star is attained at the recorded witness; k_star = max(k1, 1/c_star)
    is a sufficient constant for the companion inequality, with k1 the
    norm-equivalence constant of the truncated kernel.  ``witness`` is the
    frequency of the witness; ``kernel`` is that kernel, from the same
    window pass, and ``as_dict`` leaves it out.
    """

    s: float
    m: float
    cutoff: float
    c_star: float
    k_star: float
    k1: float
    witness: FrequencyIndex
    witness_index: int
    kernel_dim: int
    boundary_singular: bool
    kernel: TruncatedKernel = field(compare=False, repr=False)

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "m": self.m,
            "cutoff": self.cutoff,
            "c_star": self.c_star,
            "k_star": self.k_star,
            "k1": self.k1,
            "witness": {
                "label": str(self.witness.label),
                "entry_index": self.witness_index,
                "lambda": self.witness.lam,
            },
            "kernel_dim": self.kernel_dim,
            "boundary_singular": self.boundary_singular,
        }


def best_alpha_constant(
    symbol: MatrixSymbol,
    s: float,
    m: float,
    cutoff: float,
    tol: float = KERNEL_TOL,
) -> SubellipticReport:
    """Exact optimal C in ||P f||_s >= C ||f||_{s+m} on the truncation.

    C* is the minimum over frequencies and nonzero singular values of
    s_r(j) (1+lambda_j)^{-m/nu}; the witness achieves it.  The value does
    not depend on s (the weights cancel), which callers can assert by
    recomputation.  The truncated kernel comes from the same window pass.
    """
    kernel, best = _window_pass(symbol, cutoff, tol, m)
    if best is None:
        raise PreconditionError("every block is entirely kernel on the truncation")

    c_star, freq, entry = best
    k1 = max((bracket_power(float(lab.eigenvalue()), m / NU) for lab in kernel.blocks),
             default=0.0)
    if c_star == 0.0 or not math.isfinite(max(k1, 1.0 / c_star)):
        raise PreconditionError(f"C* = {c_star!r} and k1 = {k1!r} leave no finite K* at m = {m}")
    k_star = max(k1, 1.0 / c_star)
    return SubellipticReport(
        s=s,
        m=m,
        cutoff=cutoff,
        c_star=c_star,
        k_star=k_star,
        k1=k1,
        witness=freq,
        witness_index=entry,
        kernel_dim=kernel.total_dim,
        boundary_singular=kernel.boundary_singular,
        kernel=kernel,
    )


def extremal_field(report: SubellipticReport, symbol: MatrixSymbol) -> CoefficientField:
    """The witness vector of a report, as a coefficient field: the unit
    right vector of the extremal value (``MatrixSymbol.vectors``), placed
    in the first representation chunk.
    """
    freq = report.witness
    block_vec = symbol.vectors(freq, [report.witness_index])[:, 0]
    full = np.zeros(freq.dim, dtype=complex)
    full[:len(block_vec)] = block_vec
    return CoefficientField(explicit={freq: full})


@dataclass(frozen=True)
class AlphaCheck:
    passed: bool
    ratio: float | None
    margin: float | None
    vacuous: bool
    projected_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BetaCheck:
    passed: bool
    achieved_k: float | None
    margin: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def _probe_terms(symbol: MatrixSymbol, f: CoefficientField, cutoff: float,
                 kernel: TruncatedKernel | None):
    """The ``weighted_norm`` terms of one probe, from one walk of ``f`` up to
    ``cutoff``: ``(f, P f, f_perp, P f_perp)``, each a list of ``(lam, |v|^2)``
    over its nonzero vectors in canonical order, with f_perp the part of f
    off ``kernel`` (empty without a kernel).  P is applied once per
    frequency.  Only where the projection changes a vector are it, its
    image and their norms computed again; elsewhere f_perp shares f's terms.
    """
    pairs = list(f.window(cutoff))
    images = symbol.iter_apply([freq for freq, _ in pairs], [vec for _, vec in pairs])
    terms = f_t, pf_t, perp_t, pperp_t = [], [], [], []
    for freq, vec in pairs:
        f_t.append((freq.lam, squared_norm(vec)))
        image_t = _nonzero_term(freq.lam, next(images))  # one image of P at a time
        pf_t += image_t
        if kernel is None:
            continue
        w = kernel.project_out(freq, vec)
        # numerical kernels (dense SVD bases) leave roundoff residue; treat
        # a relatively vanished projection as gone so it flags vacuous.  Off
        # the kernel w is vec, and |vec| > 1e-12 |vec| holds exactly when its
        # squared norm, already in f_t, is positive and finite
        if w is vec:
            if 0.0 < f_t[-1][1] < math.inf:
                perp_t.append(f_t[-1])
                pperp_t += image_t
        elif np.linalg.norm(w) > 1e-12 * np.linalg.norm(vec):
            perp_t.append((freq.lam, squared_norm(w)))
            pperp_t += _nonzero_term(freq.lam, next(symbol.iter_apply([freq], [w])))
    return terms


def _nonzero_term(lam: float, vec: np.ndarray) -> list:
    """``[(lam, |vec|^2)]``, or no term for a zero vector."""
    return [(lam, squared_norm(vec))] if vec.any() else []


def _alpha(terms, s: float, m: float, c: float) -> AlphaCheck:
    perp, p_perp = terms[2:]
    denom = weighted_norm(perp, s + m)
    if denom == 0.0:
        return AlphaCheck(passed=True, ratio=None, margin=None, vacuous=True,
                          projected_norm=0.0)
    ratio = weighted_norm(p_perp, s) / denom
    return AlphaCheck(
        passed=ratio >= c * (1.0 - 1e-12),
        ratio=ratio,
        margin=ratio - c,
        vacuous=False,
        projected_norm=denom,
    )


def _beta(terms, s: float, m: float, k: float) -> BetaCheck:
    f, pf = terms[:2]
    lhs = weighted_norm(f, s + m)
    rhs0 = weighted_norm(f, s) + weighted_norm(pf, s)
    if rhs0 == 0.0:
        return BetaCheck(passed=lhs == 0.0, achieved_k=None, margin=None)
    achieved = lhs / rhs0
    return BetaCheck(
        passed=lhs <= k * rhs0 * (1.0 + 1e-12),
        achieved_k=achieved,
        margin=k - achieved,
    )


def check_alpha(
    symbol: MatrixSymbol,
    f: CoefficientField,
    s: float,
    m: float,
    c: float,
    kernel: TruncatedKernel,
) -> AlphaCheck:
    """Verify ||P f||_s >= c ||f||_{s+m} after projecting f off the kernel,
    on the kernel's window.

    A field living entirely in the kernel passes vacuously (flagged).
    """
    return _alpha(_probe_terms(symbol, f, kernel.window.cutoff, kernel), s, m, c)


def check_beta(
    symbol: MatrixSymbol,
    f: CoefficientField,
    s: float,
    m: float,
    k: float,
    cutoff: float,
) -> BetaCheck:
    """Verify ||f||_{s+m} <= k (||f||_s + ||P f||_s) on the truncation.

    No orthogonality is required; ``achieved_k`` is the smallest constant
    this probe admits.
    """
    return _beta(_probe_terms(symbol, f, cutoff, None), s, m, k)


def check_probe(
    symbol: MatrixSymbol, f: CoefficientField, report: SubellipticReport
) -> tuple[AlphaCheck, BetaCheck]:
    """``check_alpha`` against the report's C* and kernel, then ``check_beta``
    against its K*, at its s, m and cutoff, from one walk of ``f``."""
    terms = _probe_terms(symbol, f, report.cutoff, report.kernel)
    return (_alpha(terms, report.s, report.m, report.c_star),
            _beta(terms, report.s, report.m, report.k_star))

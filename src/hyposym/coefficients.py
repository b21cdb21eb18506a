"""Coefficient sequences: distributions as per-frequency vectors.

A distribution or smooth function enters the analysis only through its
coefficient vectors u_hat(j) in C^{dim_j}.  This module provides the
finitely supported field type, Sobolev norms on truncations, decay-based
regularity classification, symbol application, and the counterexample
constructor that turns a failing gain bound into an explicit non-smooth
field with smooth image.

Floating-point reductions run in fixed frequency order so repeated runs
reproduce bit-for-bit on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PreconditionError, SearchExhaustedError, WindowTooSmallError
from .spectral import NU, FrequencyIndex, Label, Window, bracket_power, frequency_for_label
from .symbols import MatrixSymbol, gain_lower_bounds

__all__ = [
    "CoefficientField",
    "RegularityReport",
    "CounterexampleCertificate",
    "Counterexample",
    "sobolev_norm",
    "squared_norm",
    "weighted_norm",
    "classify_regularity",
    "apply_symbol",
    "build_counterexample",
    "random_field",
]


class CoefficientField:
    """A finitely supported coefficient sequence: frequencies mapped to
    complex vectors whose lengths match the block dimension.

    Zero vectors are dropped, and the support is ordered once, here, by
    (eigenvalue, label), each frequency stored beside its vector; every
    label is of one kind, torus or SU(2).  A 1-D complex128 array that is
    read-only and owns its data is adopted as it is; any other vector is
    copied, so no caller can change a field after it is built.
    """

    def __init__(self, explicit: Mapping[FrequencyIndex, np.ndarray]):
        if len({type(freq.label) for freq in explicit}) > 1:
            raise PreconditionError("a field's labels must be all torus or all SU(2) labels")
        entries = []
        for freq, vec in explicit.items():
            if (isinstance(vec, np.ndarray) and vec.dtype == complex and vec.ndim == 1
                    and vec.flags.owndata and not vec.flags.writeable):
                arr = vec
            else:
                arr = np.array(vec, dtype=complex).reshape(-1)
                arr.setflags(write=False)
            if arr.shape[0] != freq.dim:
                raise PreconditionError(
                    f"vector at {freq.label} has length {arr.shape[0]}, expected {freq.dim}"
                )
            if arr.any():
                entries.append((freq, arr))
        entries.sort(key=lambda e: (e[0].lam, e[0].label))
        self._support = {freq.label: (freq, arr) for freq, arr in entries}

    @staticmethod
    def from_dict(data: Mapping[Label, np.ndarray]) -> "CoefficientField":
        """The field of a mapping label -> vector; each label's frequency is
        counted once, here."""
        return CoefficientField(explicit={
            frequency_for_label(label): vec for label, vec in data.items()})

    def coeff(self, freq: FrequencyIndex) -> np.ndarray:
        entry = self._support.get(freq.label)
        if entry is None:
            return np.zeros(freq.dim, dtype=complex)
        return entry[1]

    def window(self, cutoff: float):
        """The stored (freq, vector) pairs with lam <= cutoff, in canonical order."""
        for freq, vec in self._support.values():
            if not freq.lam <= cutoff:
                break
            yield freq, vec


def sobolev_norm(u: CoefficientField, s: float, cutoff: float) -> float:
    """Sobolev norm on the truncation: sqrt of the weighted coefficient sum.

    The weight per frequency is (1 + lambda_j)^{2s/nu}; summation runs in
    canonical frequency order (see ``weighted_norm``).
    """
    return weighted_norm(((freq.lam, squared_norm(vec)) for freq, vec in u.window(cutoff)), s)


def squared_norm(vec: np.ndarray) -> float:
    """|vec|^2, as ``sobolev_norm`` sums it."""
    return float(np.vdot(vec, vec).real)


def weighted_norm(terms, s: float) -> float:
    """sqrt of the sum of (1 + lam)^{2s/nu} |v|^2 over ``(lam, |v|^2)`` terms
    of nonzero vectors, in the order given.  A norm beyond float range, or a
    weight that underflows to 0, is a precondition violation.
    """
    total = 0.0
    exponent = 2.0 * s / NU
    for lam, sq in terms:
        weight = bracket_power(lam, exponent)
        if weight == 0.0 and lam > 0:
            raise PreconditionError(f"weight (1 + {lam}) ** {exponent} underflows to 0")
        total += weight * sq
    if not math.isfinite(total):
        raise PreconditionError(f"the Sobolev norm of order {s} overflows on the window")
    return math.sqrt(total)


@dataclass(frozen=True)
class RegularityReport:
    """Decay classification of a coefficient field on a finite window.

    kinds: ``smooth_evidence`` (every probed decay rate validated),
    ``distribution_order`` (smallest validated polynomial growth bound),
    ``indeterminate``.  Desk-scale smoothness is evidence up to n_probe,
    never proof; the window travels with the report so claims stay
    falsifiable.
    """

    kind: str
    exponent: int | None
    n_probe: int
    cutoff: float
    constant: float | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "n_probe": self.n_probe, "cutoff": self.cutoff}
        if self.exponent is not None:
            out["exponent"] = self.exponent
        if self.constant is not None:
            out["constant"] = self.constant
        if self.note:
            out["note"] = self.note
        return out


def _stabilized(lam: np.ndarray, values: np.ndarray, cutoff: float) -> bool:
    """True when the max of ``values`` is already attained in the lower
    half of the eigenvalue window (relative tolerance 1e-9)."""
    top = float(np.max(values))
    lower = values[lam <= cutoff / 2.0]
    if len(lower) == 0:
        return False
    return float(np.max(lower)) >= top * (1.0 - 1e-9)


def classify_regularity(u: CoefficientField, cutoff: float, n_probe: int = 10) -> RegularityReport:
    """Classify decay/growth of ||u_hat(j)|| against powers of (1+lambda).

    A rate is accepted only when the extremal constant has stabilized in the
    lower half of the window, so finite windows cannot fake asymptotics.
    The identically-zero field is smooth exactly; otherwise at least 8
    nonzero frequencies are required.
    """
    pairs = list(u.window(cutoff))
    if not pairs:
        return RegularityReport(
            kind="smooth_evidence",
            exponent=n_probe,
            n_probe=n_probe,
            cutoff=cutoff,
            constant=0.0,
            note="field vanishes on the window",
        )
    if len(pairs) < 8:
        raise WindowTooSmallError(
            f"classification needs at least 8 nonzero frequencies, found {len(pairs)}"
        )
    lam = np.array([f.lam for f, _ in pairs])
    norms = np.array([float(np.linalg.norm(v)) for _, v in pairs])

    smooth = True
    for n in range(1, n_probe + 1):
        scaled = norms * (1.0 + lam) ** n
        if not _stabilized(lam, scaled, cutoff):
            smooth = False
            break
    if smooth:
        c = float(np.max(norms * (1.0 + lam) ** n_probe))
        return RegularityReport(
            kind="smooth_evidence",
            exponent=n_probe,
            n_probe=n_probe,
            cutoff=cutoff,
            constant=c,
        )

    for n in range(0, n_probe + 1):
        scaled = norms * (1.0 + lam) ** (-n)
        if _stabilized(lam, scaled, cutoff):
            return RegularityReport(
                kind="distribution_order",
                exponent=n,
                n_probe=n_probe,
                cutoff=cutoff,
                constant=float(np.max(scaled)),
            )
    return RegularityReport(
        kind="indeterminate",
        exponent=None,
        n_probe=n_probe,
        cutoff=cutoff,
        note=f"no growth bound up to (1+lambda)^{n_probe} stabilized on the window",
    )


def apply_symbol(
    symbol: MatrixSymbol, u: CoefficientField, cutoff: float
) -> CoefficientField:
    """The coefficient field of P u: per frequency, the block product.

    The result is valid on the truncation lambda <= cutoff.  A diagonal
    symbol is evaluated once over the whole support.  The images are fresh,
    so the field adopts them.
    """
    pairs = list(u.window(cutoff))
    freqs = [freq for freq, _ in pairs]
    images = list(symbol.iter_apply(freqs, [vec for _, vec in pairs]))
    for image in images:
        image.setflags(write=False)
    return CoefficientField(explicit=dict(zip(freqs, images)))


@dataclass(frozen=True)
class CounterexampleCertificate:
    """One verified step of the counterexample construction."""

    k: int
    ordinal: int
    label: Label
    lam: float
    image_norm: float
    bound: float
    exact: bool


@dataclass(frozen=True)
class Counterexample:
    """The field, its frequencies and certificates, and its image under the
    symbol (see ``build_counterexample`` for where that comes from)."""

    field: CoefficientField
    frequencies: tuple[FrequencyIndex, ...]
    certificates: tuple[CounterexampleCertificate, ...]
    image: CoefficientField


# upward slack on the screen's ceiling (1+lambda)^{-k}: it covers the rounding
# of the float power (k + 2 roundings, k < 1100 wherever the ceiling is above
# the smallest normal float), of gain - err, and the guard band of every tol >= 0
_SCREEN_SLACK = 2.0**-20
_TINY = np.finfo(float).tiny


def _admissible(symbol: MatrixSymbol, freq: FrequencyIndex, k: int, tol: float):
    """The per-frequency test of step k: ``(freq, entry, exact)`` when the
    gain at ``freq`` is below (1+lambda)^{-k}, else None.  ``entry`` is the
    place of the least value (``MatrixSymbol.place``); ``exact`` is that
    entry (re + i im) / den as ``(den, (re, im))``, tested in integers, or
    None when the float test decided."""
    exact = symbol.exact_diagonal(freq)
    if exact is not None:
        den, entries = exact
        p, q = (1 + freq.label.eigenvalue()).as_integer_ratio()
        sq = [re * re + im * im for re, im in entries]
        i = sq.index(min(sq))
        below = sq[i] * p ** (2 * k) < (den * q**k) ** 2  # |entry|^2 < (q/p)^2k
        return (freq, i, (den, entries[i])) if below else None
    values = symbol.values(freq)
    gain = np.min(values)
    if not gain < (1.0 + freq.lam) ** (-k) * (1.0 - tol):
        return None
    return freq, symbol.place(values, gain), None


def build_counterexample(
    symbol: MatrixSymbol, k_steps: int, cutoff: float, tol: float = 1e-12
) -> Counterexample:
    """Construct a field whose image decays faster than every probed rate.

    For each k the search finds a frequency whose gain is below
    (1+lambda)^{-k}; the field takes the corresponding least-gain unit
    vector there, zero elsewhere.  The search starts past ordinal 1 (the
    first step of the induction takes threshold ordinal R = 1) and advances
    with strictly increasing eigenvalue.  The strict inequality is checked
    in exact arithmetic when the symbol evaluates rationally, otherwise
    with the relative guard band ``tol``.  A float screen goes first: a
    frequency whose gain lower bound (``gain_lower_bounds``) is above the
    ceiling (1+lambda)^{-k}, raised by a slack, fails both tests and is
    skipped; every other one is tested in ordinal order.  Raises
    SearchExhaustedError when no admissible frequency exists within the
    window.  A certificate's image, and its norm, is the float one; where
    that is not finite, an exact certificate takes it from the exact entry,
    and any other is a PreconditionError.
    """
    if k_steps < 1:
        raise PreconditionError("need at least one step")
    if not tol >= 0:
        raise PreconditionError(f"guard band tol must be nonnegative, got {tol!r}")
    window = Window(symbol.model, cutoff)
    screen = gain_lower_bounds(symbol, window)
    lo = hi = 0
    support: dict[FrequencyIndex, np.ndarray] = {}
    images: dict[FrequencyIndex, np.ndarray] = {}
    chosen: list[FrequencyIndex] = []
    certs: list[CounterexampleCertificate] = []
    lam_prev = 0.0
    idx = 0
    for k in range(1, k_steps + 1):
        found = None
        idx = max(idx, 2, int(np.searchsorted(window.lam, lam_prev, "right")))
        while found is None and idx < len(window):
            while idx >= hi:
                lo, hi, lower = next(screen)
            ceiling = (1.0 + window.lam[idx:hi]) ** -k * (1.0 + _SCREEN_SLACK) + _TINY
            for i in (idx + np.flatnonzero(~(lower[idx - lo:] > ceiling))).tolist():
                found = _admissible(symbol, window.freq(i), k, tol)
                if found is not None:
                    idx = i
                    break
            else:
                idx = hi
        if found is None:
            raise SearchExhaustedError(k, cutoff)

        freq, entry_idx, exact = found
        block_vec = symbol.vectors(freq, [entry_idx])[:, 0]
        # phase-fixed: the first component above 1e-14 in modulus is positive real
        first = np.flatnonzero(np.abs(block_vec) > 1e-14)
        if len(first):
            comp = block_vec[first[0]]
            block_vec = block_vec * (comp.conjugate() / abs(comp))
        full = np.zeros(freq.dim, dtype=complex)
        full[: len(block_vec)] = block_vec  # first representation block carries the vector
        image = next(symbol.iter_apply([freq], [full]))
        with np.errstate(over="ignore"):  # a norm beyond float range is refused below
            image_norm = float(np.linalg.norm(image))
        if not math.isfinite(image_norm) and exact is not None:
            # the float symbol left float range here; the exact entry is
            # below 1 (int / int rounds correctly)
            den, (re, im) = exact
            image = np.zeros(freq.dim, dtype=complex)
            image[entry_idx] = complex(re / den, im / den)
            image_norm = math.sqrt((re * re + im * im) / (den * den))
        full.setflags(write=False)  # read-only: the fields adopt, not copy, them
        image.setflags(write=False)
        if not math.isfinite(image_norm):
            raise PreconditionError(f"the image norm at {freq.label} is beyond float range")
        bound = (1.0 + freq.lam) ** (-k)
        certs.append(
            CounterexampleCertificate(
                k=k,
                ordinal=freq.j,
                label=freq.label,
                lam=freq.lam,
                image_norm=image_norm,
                bound=bound,
                exact=exact is not None,
            )
        )
        support[freq] = full
        images[freq] = image
        chosen.append(freq)
        lam_prev = freq.lam
        idx += 1

    return Counterexample(
        field=CoefficientField(explicit=support),
        frequencies=tuple(chosen),
        certificates=tuple(certs),
        image=CoefficientField(explicit=images),
    )


def random_field(
    window: Window, rng: np.random.Generator, n_support: int = 6
) -> CoefficientField:
    """A finitely supported field with standard-normal complex entries on a
    random subset of the window (probe generator for estimate checks).

    Each vector draws its real parts, then its imaginary parts, straight
    into one complex array: the bits of ``re + 1j * im`` unless a draw is
    -0.0."""
    count = min(n_support, len(window))
    picks = rng.choice(len(window), size=count, replace=False)
    data = {}
    for i in sorted(int(p) for p in picks):
        f = window.freq(i)
        vec = np.empty(f.dim, dtype=complex)
        vec.real = rng.standard_normal(f.dim)
        vec.imag = rng.standard_normal(f.dim)
        vec.setflags(write=False)
        data[f] = vec
    return CoefficientField(explicit=data)

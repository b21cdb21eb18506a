"""Spectral data of the reference elliptic operator on the two model geometries.

Both models use the (positive) Laplacian as reference operator, elliptic
order nu = 2:

* ``torus2`` -- frequencies are characters (xi, eta) in Z^2 with eigenvalue
  xi^2 + eta^2 and one-dimensional blocks.  Indexing is per character, not
  per eigenvalue shell.
* ``su2``    -- frequencies are representation levels ell in (1/2) N_0 with
  eigenvalue ell(ell+1) and block dimension (2 ell + 1)^2.  Half-integers
  are stored doubled (``twice_ell``) so arithmetic stays exact.

Enumeration is in nondecreasing eigenvalue order with lexicographic label
tie-breaks, so ordinals are stable across cutoffs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError

NU = 2.0

__all__ = [
    "NU",
    "Torus2Label",
    "Su2Label",
    "Label",
    "FrequencyIndex",
    "SpectralModel",
    "TORUS2",
    "SU2",
    "Window",
    "bracket_power",
    "enumerate_frequencies",
    "frequency_for_label",
    "torus_lattice",
    "su2_levels",
]


@dataclass(frozen=True, order=True)
class Torus2Label:
    xi: int
    eta: int

    def eigenvalue(self) -> int:
        return self.xi * self.xi + self.eta * self.eta

    def block_dim(self) -> int:
        return 1

    def __str__(self):
        return f"({self.xi},{self.eta})"


@dataclass(frozen=True, order=True)
class Su2Label:
    twice_ell: int

    def __post_init__(self):
        if self.twice_ell < 0:
            raise ValueError("twice_ell must be nonnegative")

    @property
    def ell(self) -> Fraction:
        return Fraction(self.twice_ell, 2)

    def eigenvalue(self) -> Fraction:
        t = self.twice_ell
        return Fraction(t * (t + 2), 4)

    def block_dim(self) -> int:
        # full eigenspace dimension (2 ell + 1)^2
        return (self.twice_ell + 1) ** 2

    def rep_dim(self) -> int:
        # dimension 2 ell + 1 of a single representation block
        return self.twice_ell + 1

    def __str__(self):
        if self.twice_ell % 2 == 0:
            return f"l={self.twice_ell // 2}"
        return f"l={self.twice_ell}/2"


Label = Torus2Label | Su2Label


@dataclass(frozen=True)
class FrequencyIndex:
    """One spectral block: ordinal, eigenvalue, block dimension, label."""

    j: int
    lam: float
    dim: int
    label: Label

    def lam_exact(self):
        return self.label.eigenvalue()


@dataclass(frozen=True)
class SpectralModel:
    kind: str
    nu: float = NU

    def __post_init__(self):
        if self.kind not in ("torus2", "su2"):
            raise PreconditionError(f"unknown model kind {self.kind!r}")
        if self.nu <= 0:
            raise PreconditionError("elliptic order must be positive")


TORUS2 = SpectralModel("torus2")
SU2 = SpectralModel("su2")


def torus_lattice(lambda_cutoff: float):
    """All (xi, eta) with xi^2 + eta^2 <= cutoff, in enumeration order.

    Returns int64 arrays (xi, eta, lam) sorted by (lam, xi, eta); the heavy
    scans work on these arrays directly instead of FrequencyIndex objects.
    """
    if lambda_cutoff < 0:
        raise PreconditionError("lambda cutoff must be nonnegative")
    r = math.isqrt(int(lambda_cutoff))
    side = np.arange(-r, r + 1, dtype=np.int64)
    xi, eta = np.meshgrid(side, side, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    lam = xi * xi + eta * eta
    keep = lam <= lambda_cutoff
    xi, eta, lam = xi[keep], eta[keep], lam[keep]
    order = np.lexsort((eta, xi, lam))
    return xi[order], eta[order], lam[order]


def su2_levels(lambda_cutoff: float) -> np.ndarray:
    """twice_ell values with ell(ell+1) <= cutoff, ascending."""
    if lambda_cutoff < 0:
        raise PreconditionError("lambda cutoff must be nonnegative")
    # t(t+2)/4 <= c  <=>  t <= sqrt(4c+1) - 1; 4c is exact, where a float
    # 4 * cutoff could overflow
    four_c = 4 * Fraction(lambda_cutoff)
    tmax = math.isqrt(math.floor(four_c) + 1) - 1
    while (tmax + 1) * (tmax + 3) <= four_c:
        tmax += 1
    while tmax >= 0 and tmax * (tmax + 2) > four_c:
        tmax -= 1
    return np.arange(0, tmax + 1, dtype=np.int64)


class Window:
    """The frequencies with eigenvalue <= cutoff as arrays, ordinal i at position i.

    ``labels``: (xi, eta) on the torus, (twice_ell,) on SU(2); ``lam``: the
    eigenvalues as floats (t(t+2)/4.0 is float(Fraction) exactly); ``sizes``:
    diagonal entries per representation block (1, or 2l+1).  FrequencyIndex
    objects are built on demand, by ``freq(i)`` or lazily by iterating.
    """

    def __init__(self, model: SpectralModel, lambda_cutoff: float):
        self.model = model
        try:
            if model.kind == "torus2":
                xi, eta, lam = torus_lattice(lambda_cutoff)
                self.labels, self.lam = (xi, eta), lam.astype(float)
                self.sizes = np.ones(len(xi), dtype=np.int64)
            else:
                levels = su2_levels(lambda_cutoff)
                self.labels, self.lam = (levels,), levels * (levels + 2) / 4.0
                self.sizes = levels + 1
        except (ValueError, OverflowError, MemoryError):  # numpy refused the arrays' size
            raise PreconditionError(
                f"the window of cutoff {lambda_cutoff!r} is too large to enumerate") from None

    def __len__(self):
        return len(self.lam)

    def label(self, i: int) -> Label:
        if self.model.kind == "torus2":
            return Torus2Label(int(self.labels[0][i]), int(self.labels[1][i]))
        return Su2Label(int(self.labels[0][i]))

    def freq(self, i: int) -> FrequencyIndex:
        label = self.label(i)
        return FrequencyIndex(int(i), float(self.lam[i]), label.block_dim(), label)

    def __iter__(self):
        return map(self.freq, range(len(self)))


def enumerate_frequencies(model: SpectralModel, lambda_cutoff: float) -> list[FrequencyIndex]:
    """Exactly the frequencies with eigenvalue <= cutoff, in canonical order."""
    return list(Window(model, lambda_cutoff))


def bracket_power(lam: float, exponent: float) -> float:
    """(1 + lam) ** exponent as a Python float power (numpy's array power may
    round differently); an overflowing weight is a precondition violation."""
    try:
        return (1.0 + lam) ** exponent
    except OverflowError:
        raise PreconditionError(f"weight (1 + {lam}) ** {exponent} overflows") from None


def _torus_ordinal(xi: int, eta: int) -> int:
    """The ordinal of (xi, eta) in (lam, xi, eta) order, counted in O(sqrt(lam)):
    the points with x^2 + y^2 < lam, 2 isqrt(lam - 1 - x^2) + 1 per row x, and
    those of the shell lam before (xi, eta): the ones in rows x < xi, and
    (xi, -eta) when eta > 0."""
    lam = xi * xi + eta * eta
    r = math.isqrt(lam - 1) if lam else -1
    below = sum(2 * math.isqrt(lam - 1 - x * x) + 1 for x in range(-r, r + 1))
    shell = 0
    for x in range(-math.isqrt(lam), xi):
        y = math.isqrt(lam - x * x)
        if y * y == lam - x * x:
            shell += 2 if y else 1
    return below + shell + (eta > 0)


def frequency_for_label(model: SpectralModel, label: Label) -> FrequencyIndex:
    """Materialize the FrequencyIndex of a label (ordinal found by counting)."""
    if model.kind == "torus2":
        if not isinstance(label, Torus2Label):
            raise PreconditionError("label does not match model")
        try:
            j = _torus_ordinal(operator.index(label.xi), operator.index(label.eta))
        except TypeError:  # not a lattice point
            raise PreconditionError(f"label {label} not enumerable") from None
        return FrequencyIndex(j, float(label.eigenvalue()), 1, label)
    if not isinstance(label, Su2Label):
        raise PreconditionError("label does not match model")
    return FrequencyIndex(label.twice_ell, float(label.eigenvalue()), label.block_dim(), label)

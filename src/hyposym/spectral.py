"""Spectral data of the reference elliptic operator on the two model geometries.

Both models use the (positive) Laplacian as reference operator; its
elliptic order nu = ``NU`` = 2 is fixed by the enumeration below:

* ``torus2`` -- frequencies are characters (xi, eta) in Z^2 with eigenvalue
  xi^2 + eta^2; a character is a 1x1 representation, so its block is 1x1.
  Indexing is per character, not per eigenvalue shell.
* ``su2``    -- frequencies are representation levels ell in (1/2) N_0 with
  eigenvalue ell(ell+1) and block dimension (2 ell + 1)^2.  Half-integers
  are stored doubled (``twice_ell``) so arithmetic stays exact.

Enumeration is in nondecreasing eigenvalue order with lexicographic label
tie-breaks, so ordinals are stable across cutoffs.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .operators import Label, Su2Label, Torus2Label

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


@dataclass(frozen=True)
class FrequencyIndex:
    """One spectral block: ordinal, eigenvalue, block dimension, label.

    On both models the block dimension is ``label.rep_dim() ** 2``: a
    coefficient vector is rep_dim chunks of rep_dim entries."""

    j: int
    lam: float
    dim: int
    label: Label

    def lam_exact(self):
        return self.label.eigenvalue()


@dataclass(frozen=True)
class SpectralModel:
    kind: str

    def __post_init__(self):
        if self.kind not in ("torus2", "su2"):
            raise PreconditionError(f"unknown model kind {self.kind!r}")


TORUS2 = SpectralModel("torus2")
SU2 = SpectralModel("su2")

# eigenvalues per band of the torus enumeration: a band of width w holds
# about pi w characters, sorted on their own by their eigenvalue less the
# band's first, which fits 16 bits and so takes numpy's radix sort
LATTICE_BAND = 16384


def _isqrt(v: np.ndarray) -> np.ndarray:
    """isqrt of each int64 of ``v`` (each below 2**52): the float root is off
    by at most one."""
    s = np.sqrt(v).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def torus_lattice(lambda_cutoff: float):
    """All (xi, eta) with xi^2 + eta^2 <= cutoff, in enumeration order.

    Returns arrays (xi, eta, lam) sorted by (lam, xi, eta): the labels as
    int32 (int64 from a cutoff of 2**31 on) and the eigenvalues as floats;
    the heavy scans work on these arrays directly instead of FrequencyIndex
    objects.  The outputs are filled band by band of LATTICE_BAND
    eigenvalues [a, b).  Row xi of a band holds the eta with
    isqrt(a - 1 - xi^2) < |eta| <= isqrt(b - 1 - xi^2), so its points are
    generated in (xi, eta) order and one stable sort by lam gives
    (lam, xi, eta) order; no full-length temporary is made.
    """
    if lambda_cutoff < 0:
        raise PreconditionError("lambda cutoff must be nonnegative")
    c = int(lambda_cutoff)
    r = math.isqrt(c)
    half = np.fromiter((math.isqrt(c - x * x) for x in range(-r, r + 1)), np.int64, 2 * r + 1)
    n = int((2 * half + 1).sum())
    small = np.int32 if c < 2**31 else np.int64  # lam <= c and |xi|, |eta| <= sqrt(c)
    xi_out, eta_out, lam_out = np.empty(n, small), np.empty(n, small), np.empty(n)
    rows = np.arange(-r, r + 1, dtype=np.int64)
    inner = np.full(2 * r + 1, -1, dtype=np.int64)  # isqrt(a - 1 - xi^2), -1 below 0
    pos = 0
    for a in range(0, c + 1, LATTICE_BAND):
        b = min(a + LATTICE_BAND, c + 1)
        w = math.isqrt(b - 1)
        band = slice(r - w, r + w + 1)  # the rows that reach the band
        outer = half[band] if b == c + 1 else _isqrt(b - 1 - rows[band] ** 2)
        low = inner[band]
        # per row the pieces -outer..-low-1 and max(low+1, 1)..outer, empty ones dropped
        lens = np.stack([outer - low, outer - np.maximum(low, 0)], axis=1).ravel()
        starts = np.stack([-outer, np.maximum(low + 1, 1)], axis=1).ravel()
        starts, lens = starts[lens > 0], lens[lens > 0]
        m = int(lens.sum())
        # eta steps by 1 along a piece and jumps from its last value to the next start
        eta = np.ones(m, dtype=small)
        eta[np.cumsum(lens) - lens] = starts - np.concatenate(([0], starts[:-1] + lens[:-1] - 1))
        np.cumsum(eta, out=eta)
        xi = np.repeat(rows[band].astype(small), 2 * outer + 1 - np.maximum(2 * low + 1, 0))
        key = xi * xi
        key += eta * eta
        key -= a
        order = np.argsort(key.astype(np.uint16), kind="stable")
        np.take(xi, order, out=xi_out[pos:pos + m])
        np.take(eta, order, out=eta_out[pos:pos + m])
        lam = lam_out[pos:pos + m]
        lam[:] = key[order]
        lam += a
        inner[band] = outer
        pos += m
    return xi_out, eta_out, lam_out


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


# bytes a window and its gain table keep per frequency: on the torus the
# int32 labels xi and eta (4 each), the float eigenvalue and the gain (which
# is the norm); on SU(2) the level, the eigenvalue, the size, the gain and
# the norm
_WINDOW_BYTES = {"torus2": 24, "su2": 40}


def _physical_memory() -> float:
    """Bytes of physical memory, capped by this process's memory cgroup and
    by its soft address-space limit (``ulimit -v``), or inf where none says."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        pages = size = -1
    host = pages * size if pages > 0 and size > 0 else math.inf  # -1: indeterminate
    try:
        import resource

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft == resource.RLIM_INFINITY or soft <= 0:
            soft = math.inf
    except (ImportError, AttributeError, ValueError, OSError):  # no such limit here
        soft = math.inf
    return min(host, _cgroup_memory_limit(), soft)


# where the kernel names this process's cgroups, and where it mounts them
_PROC_CGROUP, _CGROUP_ROOT = "/proc/self/cgroup", "/sys/fs/cgroup"


def _cgroup_memory_limit() -> float:
    """The least memory limit of the cgroups ``_PROC_CGROUP`` names, as
    "id:controllers:path" lines, or inf: v2's ``memory.max``, or v1's
    ``memory.limit_in_bytes`` under the memory mount.  "max", a v1 value
    from 2^62 up (unlimited) and any read error mean no limit."""
    try:
        with open(_PROC_CGROUP) as fh:
            groups = [line.split(":", 2) for line in fh.read().splitlines()]
    except OSError:
        return math.inf
    limit = math.inf
    for _, controllers, path in (g for g in groups if len(g) == 3 and g[2].startswith("/")):
        if controllers and "memory" not in controllers.split(","):
            continue
        name, unlimited = ((f"{_CGROUP_ROOT}/memory{path}/memory.limit_in_bytes", 2**62)
                           if controllers else (f"{_CGROUP_ROOT}{path}/memory.max", math.inf))
        try:
            with open(name) as fh:
                value = int(fh.read())
        except (OSError, ValueError):  # no such file, or "max"
            continue
        if 0 < value < unlimited:
            limit = min(limit, value)
    return limit


def _count_bound(model: SpectralModel, lambda_cutoff: float) -> float:
    """An upper bound on the number of frequencies up to the cutoff c: the
    unit squares centred at the characters are disjoint and lie in the disk of
    radius sqrt(c) + 1, so there are at most pi (sqrt(c) + 1)^2 of them; SU(2)
    has at most sqrt(4c + 1) <= 2 sqrt(c) + 1 levels."""
    root = math.sqrt(max(lambda_cutoff, 0.0))
    return math.pi * (root + 1) ** 2 if model.kind == "torus2" else 2 * root + 1


class Window:
    """The frequencies with eigenvalue <= cutoff as arrays, ordinal i at position i.

    ``labels``: (xi, eta) on the torus, (twice_ell,) on SU(2); ``lam``: the
    eigenvalues as floats (t(t+2)/4.0 is float(Fraction) exactly); ``sizes``:
    diagonal entries per representation block (2l+1 on SU(2); on the torus a
    read-only broadcast of 1).  FrequencyIndex objects are built on demand,
    by ``freq(i)`` or lazily by iterating; ``cutoff`` is the cutoff they were
    enumerated up to.  A window whose frequencies would take more than the
    physical memory at _WINDOW_BYTES each is refused before anything is
    allocated.
    """

    def __init__(self, model: SpectralModel, lambda_cutoff: float):
        self.model, self.cutoff = model, lambda_cutoff
        try:
            need = _count_bound(model, lambda_cutoff) * _WINDOW_BYTES[model.kind]
            if not need <= _physical_memory():
                raise MemoryError
            if model.kind == "torus2":
                xi, eta, lam = torus_lattice(lambda_cutoff)
                self.labels, self.lam = (xi, eta), lam
                self.sizes = np.broadcast_to(np.int64(1), xi.shape)
            else:
                levels = su2_levels(lambda_cutoff)
                self.labels, self.lam = (levels,), levels * (levels + 2) / 4.0
                self.sizes = levels + 1
        except (ValueError, OverflowError, MemoryError):  # too large for numpy or the memory
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


def frequency_for_label(label: Label) -> FrequencyIndex:
    """Materialize the FrequencyIndex of a label (ordinal found by counting).
    Its lam is the correctly rounded eigenvalue, from int arithmetic."""
    if isinstance(label, Torus2Label):
        try:
            xi, eta = operator.index(label.xi), operator.index(label.eta)
        except TypeError:  # not a lattice point
            raise PreconditionError(f"label {label} not enumerable") from None
        return FrequencyIndex(_torus_ordinal(xi, eta), float(xi * xi + eta * eta), 1, label)
    t = label.twice_ell
    return FrequencyIndex(t, t * (t + 2) / 4, label.block_dim(), label)

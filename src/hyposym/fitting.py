"""Log-log envelope fits over spectral windows.

The growth/decay criteria quantify over all large frequencies, so a fit must
track the envelope of the sample cloud, not its bulk:

* samples are binned by log-bracket x = log(1+lambda)/nu, where
  nu = ``NU`` = 2 is the Laplacian's order, fixed by the enumeration,
* one extreme point (min or max) is kept per bin,
* the low-frequency head of the range is dropped (the criteria are
  asymptotic and small eigenvalues only add curvature),
* a least-squares line through the surviving bin points gives the exponent.

The bin width must exceed the gap between consecutive best rational
approximations (ratio ~ golden mean, i.e. ~0.48 in log scale) or bins with
no near-resonance would bias Diophantine envelopes upward; 0.5 is used.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowTooSmallError
from .spectral import NU

BIN_WIDTH = 0.5
HEAD_FRACTION = 0.3
MIN_POINTS = 2

# samples per chunk of a full-length reduction: each float temporary of a
# chunk takes 256 KB, far below the window it reduces
REDUCE_CHUNK = 1 << 15

__all__ = ["BIN_WIDTH", "HEAD_FRACTION", "REDUCE_CHUNK", "chunk_ranges", "bracket_weights",
           "envelope_points", "envelope_fit", "envelope_bound"]


def chunk_ranges(n: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` over 0..n in steps of REDUCE_CHUNK."""
    step = REDUCE_CHUNK
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def bracket_weights(lam: np.ndarray, slope: float) -> np.ndarray:
    """(1 + lam)^(slope/nu), as exp(log(1 + lam) * (slope/nu))."""
    w = np.log1p(lam)
    w *= slope / NU
    return np.exp(w, out=w)


def envelope_points(read, n: int, mode: str = "min"):
    """One envelope sample per bin of width BIN_WIDTH, head bins dropped.

    ``read(a, b)`` gives the samples ``(x, y)`` of positions a..b of n, two
    arrays of one length, which may drop positions (a filter); each pass
    reads them a chunk at a time.  ``x`` must be nondecreasing (the callers
    pass it in window order), so its range runs from the first sample to
    the last, each bin meets a chunk in one index range, found by
    ``np.searchsorted``, and the first extreme of a bin is the first extreme
    among those of its ranges.
    """
    spans = chunk_ranges(n)
    firsts = (read(a, b)[0] for a, b in spans)
    lo = next((p[0] for p in firsts if len(p)), None)
    if lo is None:
        raise WindowTooSmallError("no samples for envelope fit")
    lasts = (read(a, b)[0] for a, b in reversed(spans))
    lo, hi = float(lo), float(next(p[-1] for p in lasts if len(p)))
    if hi - lo < 1e-12:
        xs, ys = zip(*[read(a, b) for a, b in spans])
        return np.concatenate(xs, dtype=float), np.concatenate(ys, dtype=float)
    nbins = max(4, math.ceil((hi - lo) / BIN_WIDTH))
    edges = np.linspace(lo, hi + 1e-12, nbins + 1)
    pick = np.argmin if mode == "min" else np.argmax
    found = [([], []) for _ in range(nbins)]  # per bin, (x, y) of each range's extreme
    for a, b in spans:
        part_x, part_y = read(a, b)
        # bin i holds the samples with edges[i] <= x < edges[i + 1]
        bounds = np.searchsorted(part_x, edges, side="left").tolist()
        for (bin_xs, bin_ys), start, stop in zip(found, bounds, bounds[1:]):
            if start < stop:
                k = start + int(pick(part_y[start:stop]))
                bin_xs.append(float(part_x[k]))
                bin_ys.append(float(part_y[k]))
    xs, ys = [], []
    for bin_xs, bin_ys in found:
        if bin_ys:
            k = int(pick(bin_ys))
            xs.append(bin_xs[k])
            ys.append(bin_ys[k])
    xs_arr, ys_arr = np.array(xs), np.array(ys)
    cut = lo + HEAD_FRACTION * (hi - lo)
    keep = xs_arr >= cut
    if keep.sum() >= 4:
        xs_arr, ys_arr = xs_arr[keep], ys_arr[keep]
    return xs_arr, ys_arr


def envelope_fit(read, n: int, mode: str = "min"):
    """Least-squares slope/intercept of the binned envelope of the samples
    ``read`` gives (as for ``envelope_points``).

    Returns (slope, intercept, n_points).
    """
    xs, ys = envelope_points(read, n, mode)
    if len(xs) < MIN_POINTS:
        raise WindowTooSmallError("fewer than two envelope bins in window")
    if len(xs) == MIN_POINTS and xs[0] == xs[-1]:
        raise WindowTooSmallError("degenerate envelope window")
    if float(np.ptp(xs)) < 1e-12:
        return 0.0, float(np.mean(ys)), len(xs)
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(coef[0]), float(coef[1]), len(xs)


def envelope_bound(lam, values, mode: str, error):
    """The growth of the positive ``values`` against ``lam`` (nondecreasing):
    ``(slope, bound, n_points)``.

    ``slope`` and ``n_points`` are those of ``envelope_fit`` on
    x = log(1 + lam) / nu and y = log(values), and ``bound`` is the
    least (mode "min") or largest ("max") value / ``bracket_weights``, so
    that every positive value is at least (or at most)
    bound (1 + lam)^(slope/nu).  Raises ``error(slope)`` when a weight or
    the bound leaves float range.  Every pass runs a chunk at a time.
    """
    def positive(a, b):  # views where every value of a..b is positive
        x, y = lam[a:b], values[a:b]
        keep = y > 0
        return (x, y) if keep.all() else (x[keep], y[keep])

    def read(a, b):
        x, y = positive(a, b)
        x = np.log1p(x)
        x /= NU
        return x, np.log(y)

    slope, _, n_points = envelope_fit(read, len(values), mode)
    reduce, initial = (np.min, np.inf) if mode == "min" else (np.max, -np.inf)
    finite, bounds = True, []
    with np.errstate(over="ignore", divide="ignore"):
        for a, b in chunk_ranges(len(values)):
            x, y = positive(a, b)
            weights = bracket_weights(x, slope)
            finite = finite and bool(np.isfinite(weights).all())
            bounds.append(reduce(y / weights, initial=initial))
        bound = float(reduce(bounds))
    if not (finite and math.isfinite(bound)):
        raise error(slope)
    return slope, bound, n_points

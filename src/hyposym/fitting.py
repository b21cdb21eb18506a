"""Log-log envelope fits over spectral windows.

The growth/decay criteria quantify over all large frequencies, so a fit must
track the envelope of the sample cloud, not its bulk:

* samples are binned by log-bracket x = log(1+lambda)/nu,
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

BIN_WIDTH = 0.5
HEAD_FRACTION = 0.3
MIN_POINTS = 2

__all__ = ["BIN_WIDTH", "HEAD_FRACTION", "envelope_points", "envelope_fit"]


def envelope_points(x: np.ndarray, y: np.ndarray, mode: str = "min"):
    """One envelope sample per bin of width BIN_WIDTH, head bins dropped.

    ``x`` must be nondecreasing (the callers pass it in window order), so
    each bin is a contiguous index range, found by ``np.searchsorted``.
    """
    if len(x) == 0:
        raise WindowTooSmallError("no samples for envelope fit")
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi - lo < 1e-12:
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nbins = max(4, math.ceil((hi - lo) / BIN_WIDTH))
    edges = np.linspace(lo, hi + 1e-12, nbins + 1)
    # bin i holds the samples with edges[i] <= x < edges[i + 1]
    bounds = np.searchsorted(x, edges, side="left").tolist()
    pick = np.argmin if mode == "min" else np.argmax
    xs, ys = [], []
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            continue
        k = a + int(pick(y[a:b]))
        xs.append(float(x[k]))
        ys.append(float(y[k]))
    xs_arr, ys_arr = np.array(xs), np.array(ys)
    cut = lo + HEAD_FRACTION * (hi - lo)
    keep = xs_arr >= cut
    if keep.sum() >= 4:
        xs_arr, ys_arr = xs_arr[keep], ys_arr[keep]
    return xs_arr, ys_arr


def envelope_fit(x: np.ndarray, y: np.ndarray, mode: str = "min"):
    """Least-squares slope/intercept of the binned envelope.

    Returns (slope, intercept, n_points).
    """
    xs, ys = envelope_points(np.asarray(x, float), np.asarray(y, float), mode)
    if len(xs) < MIN_POINTS:
        raise WindowTooSmallError("fewer than two envelope bins in window")
    if len(xs) == MIN_POINTS and xs[0] == xs[-1]:
        raise WindowTooSmallError("degenerate envelope window")
    if float(np.ptp(xs)) < 1e-12:
        return 0.0, float(np.mean(ys)), len(xs)
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(coef[0]), float(coef[1]), len(xs)

"""Dip statistic: sup-norm distance from a sample's empirical cdf to the
nearest continuous unimodal distribution function.

Computed by the classic shrinking-modal-interval scheme: the greatest convex
minorant and least concave majorant of the empirical cdf are intersected, the
modal interval shrinks to where they stay farthest apart, and deviations of
the cdf from the envelopes outside the modal interval accumulate the bound.
Unimodal samples on n points give values near the 1/(2n) floor; well-separated
mixtures give large values.  Thresholds for rejecting unimodality are
calibrated by Monte Carlo against the uniform null (see data/dip_thresholds
and the report module).
"""

from __future__ import annotations

import numpy as np


def _hull(xs: np.ndarray, ys: np.ndarray, lower: bool) -> list[int]:
    """Touch points (indices into xs) of the greatest convex minorant if
    ``lower``, else of the least concave majorant."""
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            turn = (ys[b] - ys[a]) * (xs[i] - xs[a])
            chord = (ys[i] - ys[a]) * (xs[b] - xs[a])
            if (turn >= chord) if lower else (turn <= chord):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _interp(hull: list[int], xs: np.ndarray, ys: np.ndarray, xq: float) -> float:
    """Piecewise-linear value of the hull curve at xq (within hull range)."""
    hx = xs[hull]
    j = int(np.searchsorted(hx, xq, side="right")) - 1
    if j < 0:
        return float(ys[hull[0]])
    if j >= len(hull) - 1:
        return float(ys[hull[-1]])
    a, b = hull[j], hull[j + 1]
    if xs[b] == xs[a]:
        return float(ys[a])
    frac = (xq - xs[a]) / (xs[b] - xs[a])
    return float(ys[a] + frac * (ys[b] - ys[a]))


def dip_statistic(values) -> float:
    """Dip of a 1-d sample.  Degenerate samples (n < 2 or a single distinct
    value) return 0 by convention."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 2 or x[0] == x[-1]:
        return 0.0
    yl = np.arange(n) / n          # left limits of the empirical cdf
    yr = np.arange(1, n + 1) / n   # right values

    lo, hi = 0, n - 1
    best = 1.0 / n                 # tube must at least span one cdf jump
    while True:
        seg = slice(lo, hi + 1)
        gcm = [lo + j for j in _hull(x[seg], yl[seg], lower=True)]
        lcm = [lo + j for j in _hull(x[seg], yr[seg], lower=False)]

        # Largest gap between the two envelope curves, tracked with the
        # envelope vertices that bracket it (the next modal interval).
        d = 0.0
        new_lo, new_hi = lo, hi
        for i in gcm:
            gap = _interp(lcm, x, yr, float(x[i])) - yl[i]
            if gap > d:
                d = gap
                pos = int(np.searchsorted(np.asarray(x[lcm]), x[i], side="left"))
                pos = min(pos, len(lcm) - 1)
                new_lo, new_hi = i, lcm[pos]
        for j in lcm:
            gap = yr[j] - _interp(gcm, x, yl, float(x[j]))
            if gap > d:
                d = gap
                pos = int(np.searchsorted(np.asarray(x[gcm]), x[j], side="right")) - 1
                pos = max(pos, 0)
                new_lo, new_hi = gcm[pos], j

        if d <= best:
            break

        # Deviations of the cdf from the envelopes outside the new modal
        # interval become unavoidable tube width.
        d_lo = 0.0
        for i in range(lo, new_lo + 1):
            d_lo = max(d_lo, yr[i] - _interp(gcm, x, yl, float(x[i])))
        d_hi = 0.0
        for i in range(new_hi, hi + 1):
            d_hi = max(d_hi, _interp(lcm, x, yr, float(x[i])) - yl[i])
        best = max(best, d_lo, d_hi)

        if (new_lo, new_hi) == (lo, hi):
            break  # defensive; the gap maximum always shrinks one side
        lo, hi = new_lo, new_hi

    return best / 2.0

"""Deterministic 1-d probe grids and local maximization.

The query grid is the base-2 van der Corput sequence scaled into the
interval: its prefixes are nested, so enlarging the budget probes a
strict superset of points and scan maxima can only grow.
"""

from __future__ import annotations

import numpy as np

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def vdc_points(lo: float, hi: float, size: int) -> np.ndarray:
    """First `size` points of the base-2 van der Corput sequence on (lo, hi)."""
    if size < 1:
        raise ValueError("grid size must be >= 1")
    idx = np.arange(1, size + 1, dtype=np.uint64)
    frac = np.zeros(size)
    denom = 1.0
    work = idx.copy()
    while work.any():
        denom *= 2.0
        frac += (work & 1) / denom
        work >>= 1
    return lo + (hi - lo) * frac


def refine_max_rows(f, probes: np.ndarray, k: np.ndarray, top: np.ndarray,
                    lo: float, hi: float, iters: int = 30):
    """Golden-section maximization in lockstep over rows, one function per
    row, from its best probe k with value top, over sorted probes: each
    row is bracketed by the neighbours of probes[k]; f maps one query per
    row to its value.  Returns (x, v) per row: the best point seen, or
    probes[k] at top if that is at least as high or is NaN."""
    a = np.where(k > 0, probes[k - 1], lo)
    b = np.where(k + 1 < probes.size, probes[np.minimum(k + 1, probes.size - 1)], hi)
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    up = fc >= fd
    x, v = np.where(up, c, d), np.where(up, fc, fd)  # the better interior point
    best_x, best_v = x, v
    for _ in range(iters):
        # x stays inside the bracket, which shrinks to [a, d] or to [c, b]
        a, b = np.where(up, a, c), np.where(up, d, b)
        new_x = np.where(up, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        new_v = f(new_x)
        c, fc = np.where(up, new_x, x), np.where(up, new_v, v)
        d, fd = np.where(up, x, new_x), np.where(up, v, new_v)
        up = fc >= fd
        x, v = np.where(up, c, d), np.where(up, fc, fd)
        better = v > best_v
        best_x, best_v = np.where(better, x, best_x), np.where(better, v, best_v)
    keep = (top >= best_v) | np.isnan(top)
    return np.where(keep, probes[k], best_x), np.where(keep, top, best_v)


def refine_max(f, probes: np.ndarray, values: np.ndarray, lo: float, hi: float,
               iters: int = 30):
    """refine_max_rows for one function, from its values at the probes, in
    any order: f maps a query to its value, and the result (x, v) is a
    pair of floats."""
    order = np.argsort(probes)
    probes, values = probes[order], values[order]
    k = values.argmax(keepdims=True)
    x, v = refine_max_rows(lambda q: np.array([f(q[0])]), probes, k, values[k], lo, hi,
                           iters=iters)
    return float(x[0]), float(v[0])

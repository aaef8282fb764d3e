"""Deterministic scalar optimizers shared across modules.

All minimizers follow the same recipe: a coarse grid locates a bracket, then
golden-section refines it.  No RNG anywhere; identical inputs give identical
optima, which regression tests rely on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...

LOG_BRACKET_LO = 1e-12
LOG_BRACKET_HI = 1e12


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray | float:
    """log(sum(exp(a))) that tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def _golden_section(
    safe: Callable[[float], float], a: float, b: float, rel_tol: float, max_iter: int
) -> tuple[float, float]:
    """Golden-section refinement of the bracket [a, b]; returns the better
    of the two final probes as (x, value)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b), 1.0):
            break
        if f1 <= f2:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = safe(x1)
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = safe(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def golden_min(
    fn: Callable[[float], float],
    lo: float = LOG_BRACKET_LO,
    hi: float = LOG_BRACKET_HI,
    *,
    log_space: bool = True,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
    grid: int = 33,
) -> tuple[float, float]:
    """Minimize a quasiconvex scalar function on [lo, hi].

    Returns (argmin, min value).  With log_space=True the search runs in
    log-coordinates, matching the documented bracket [1e-12, 1e12].
    """
    if log_space:
        a, b = math.log(lo), math.log(hi)
        decode = math.exp
    else:
        a, b = float(lo), float(hi)
        decode = lambda s: s  # noqa: E731

    def safe(x: float) -> float:
        v = fn(decode(x))
        return v if v == v else math.inf  # NaN -> inf

    xs = [a + (b - a) * i / (grid - 1) for i in range(grid)]
    fs = [safe(x) for x in xs]
    i = min(range(grid), key=fs.__getitem__)
    a2 = xs[max(i - 1, 0)]
    b2 = xs[min(i + 1, grid - 1)]
    xbest, fbest = _golden_section(safe, a2, b2, rel_tol, max_iter)
    if fs[i] < fbest:
        xbest, fbest = xs[i], fs[i]
    return decode(xbest), fbest


def golden_min_vec(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    shape: tuple[int, ...],
    *,
    log_space: bool = True,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
    grid: int = 33,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise golden-section: minimizes fn(x)[k] over x[k] in [lo, hi].

    fn must map an array of shape `shape` to an array of the same shape
    (inf/NaN values are treated as "worse than anything").
    Returns (argmin array, value array).
    """
    lo = np.broadcast_to(np.asarray(lo, dtype=float), shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), shape)
    if log_space:
        a, b = np.log(lo), np.log(hi)
        decode = np.exp
    else:
        a, b = lo.astype(float), hi.astype(float)
        decode = lambda s: s  # noqa: E731

    def safe(x: np.ndarray) -> np.ndarray:
        v = np.asarray(fn(decode(x)), dtype=float)
        return np.where(np.isnan(v), np.inf, v)

    best_f = np.full(shape, np.inf)
    best_x = np.array(a, dtype=float, copy=True)
    idx = np.zeros(shape, dtype=np.int64)
    step = (b - a) / (grid - 1)
    for i in range(grid):
        x = a + i * step
        f = safe(x)
        better = f < best_f
        best_f = np.where(better, f, best_f)
        best_x = np.where(better, x, best_x)
        idx = np.where(better, i, idx)
    a2 = a + np.maximum(idx - 1, 0) * step
    b2 = a + np.minimum(idx + 1, grid - 1) * step

    x1 = b2 - _INVPHI * (b2 - a2)
    x2 = a2 + _INVPHI * (b2 - a2)
    f1 = safe(x1)
    f2 = safe(x2)
    for _ in range(max_iter):
        width = b2 - a2
        tol = rel_tol * np.maximum(np.maximum(np.abs(a2), np.abs(b2)), 1.0)
        if np.all(width <= tol):
            break
        left = f1 <= f2
        b2 = np.where(left, x2, b2)
        a2 = np.where(left, a2, x1)
        x_keep = np.where(left, x1, x2)
        f_keep = np.where(left, f1, f2)
        x1n = b2 - _INVPHI * (b2 - a2)
        x2n = a2 + _INVPHI * (b2 - a2)
        x_new = np.where(left, x1n, x2n)
        f_new = safe(x_new)
        x1 = np.where(left, x1n, x_keep)
        f1 = np.where(left, f_new, f_keep)
        x2 = np.where(left, x_keep, x2n)
        f2 = np.where(left, f_keep, f_new)

    take1 = f1 <= f2
    xb = np.where(take1, x1, x2)
    fb = np.where(take1, f1, f2)
    better = best_f < fb
    xb = np.where(better, best_x, xb)
    fb = np.where(better, best_f, fb)
    return decode(xb), fb


def min_convex_line(
    fn: Callable[[float], float],
    x0: float = 0.0,
    step: float = 1.0,
    *,
    rel_tol: float = 1e-10,
    max_expand: int = 200,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize a convex function on the whole real line.

    Brackets the minimum by doubling steps away from x0, then golden-sections.
    Returns (argmin, value).
    """

    def safe(x: float) -> float:
        v = fn(x)
        return v if v == v else math.inf

    a, m, b = x0 - step, x0, x0 + step
    fa, fm, fb = safe(a), safe(m), safe(b)
    for _ in range(max_expand):
        if fa < fm:
            a, m, b = a - 2.0 * (m - a), a, m
            fa, fm, fb = safe(a), fa, fm
        elif fb < fm:
            a, m, b = m, b, b + 2.0 * (b - m)
            fa, fm, fb = fm, fb, safe(b)
        else:
            break
    return _golden_section(safe, a, b, rel_tol, max_iter)


def bisect_increasing(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    *,
    residual: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of fn(x) = target for nondecreasing fn; returns the hi side.

    Stops once |fn(mid) - target| <= residual or the bracket is exhausted.
    Assumes fn(lo) <= target <= fn(hi).
    """
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        v = fn(mid)
        if abs(v - target) <= residual:
            return mid
        if v < target:
            a = mid
        else:
            b = mid
    return b


def bisect_increasing_vec(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    target,
    shape: tuple[int, ...],
    *,
    max_iter: int = 80,
) -> np.ndarray:
    """Vector bisection for elementwise nondecreasing fn; returns the hi side."""
    a = np.broadcast_to(np.asarray(lo, dtype=float), shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), shape).copy()
    t = np.broadcast_to(np.asarray(target, dtype=float), shape)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        below = np.asarray(fn(mid)) < t
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return b

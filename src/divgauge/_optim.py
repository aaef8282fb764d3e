"""Deterministic numeric primitives shared across modules.

The scalar minimizers (the Young-Fenchel search, numeric conjugates and
custom-gauge Amemiya norms) refine a bracket by golden-section: a coarse
grid locates it on a fixed log range, or doubling steps on the whole line.
Every root in the package comes from one bisection,
:func:`bisect_increasing_vec`, of a nondecreasing function inside a bracket
the caller derives; scalar roots are its calls at shape ``()``.  It returns
the hi side of its final bracket, where the function is not below the
target as evaluated: the sound side of every bound inverted this way.  No
RNG anywhere; identical inputs give identical results, which regression
tests rely on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...

LOG_BRACKET_LO = 1e-12
LOG_BRACKET_HI = 1e12

# settings of the searches (golden_min, min_convex_line, bisect_increasing_vec)
REL_TOL = 1e-10  # golden-section stops at a bracket this wide, relative
MAX_ITER = 200  # golden-section steps
GRID = 33  # coarse grid points of golden_min
MAX_EXPAND = 200  # bracket doublings of min_convex_line
VEC_BISECT_STEPS = 80  # halvings of bisect_increasing_vec


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


def _golden_section(safe: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section refinement of the bracket [a, b]; returns the better
    of the two final probes as (x, value)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(MAX_ITER):
        if (b - a) <= REL_TOL * max(abs(a), abs(b), 1.0):
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
    fn: Callable[[float], float], lo: float = LOG_BRACKET_LO, hi: float = LOG_BRACKET_HI
) -> tuple[float, float]:
    """Minimize a quasiconvex scalar function on [lo, hi] (lo > 0).

    Returns (argmin, min value).  The search runs in log-coordinates,
    matching the documented bracket [1e-12, 1e12].
    """
    a, b = math.log(lo), math.log(hi)

    def safe(x: float) -> float:
        v = fn(math.exp(x))
        return v if v == v else math.inf  # NaN -> inf

    xs = [a + (b - a) * i / (GRID - 1) for i in range(GRID)]
    fs = [safe(x) for x in xs]
    i = min(range(GRID), key=fs.__getitem__)
    a2 = xs[max(i - 1, 0)]
    b2 = xs[min(i + 1, GRID - 1)]
    xbest, fbest = _golden_section(safe, a2, b2)
    if fs[i] < fbest:
        xbest, fbest = xs[i], fs[i]
    return math.exp(xbest), fbest


def numeric_conjugate(f: Callable[[float], float], u: float) -> float:
    """sup_{t>0} (u t - f(t)) by :func:`golden_min` over the log bracket.

    A supremum pinned to the upper bracket edge looks infinite and is
    reported as +inf: a finite value there would understate it, and a
    smaller conjugate makes every bound built on it unsound.
    """
    t_star, neg = golden_min(lambda t: -(u * t - float(f(t))))
    return math.inf if t_star > 0.999 * LOG_BRACKET_HI else -neg


def min_convex_line(
    fn: Callable[[float], float], x0: float = 0.0, step: float = 1.0
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
    for _ in range(MAX_EXPAND):
        if fa < fm:
            a, m, b = a - 2.0 * (m - a), a, m
            fa, fm, fb = safe(a), fa, fm
        elif fb < fm:
            a, m, b = m, b, b + 2.0 * (b - m)
            fa, fm, fb = fm, fb, safe(b)
        else:
            break
    return _golden_section(safe, a, b)


def bisect_increasing_vec(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    target,
    shape: tuple[int, ...],
) -> np.ndarray:
    """Bisection for elementwise nondecreasing fn on arrays of the given shape
    (``()`` for a scalar root); returns the hi side, where fn is not below
    target as evaluated (or hi itself where fn never reaches target), after
    a fixed number of halvings."""
    a = np.broadcast_to(np.asarray(lo, dtype=float), shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), shape).copy()
    t = np.broadcast_to(np.asarray(target, dtype=float), shape)
    for _ in range(VEC_BISECT_STEPS):
        mid = 0.5 * (a + b)
        below = np.asarray(fn(mid)) < t
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return b

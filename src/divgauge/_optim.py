"""Deterministic numeric primitives shared across modules.

The scalar minimizers (numeric conjugates and custom-gauge Amemiya norms)
refine a bracket by golden-section, which a coarse grid locates on a fixed
log range.
Every root the package searches for comes from one root-finder,
:func:`increasing_root`, for a nondecreasing function on a range [lo, hi]
searched from a start the caller derives; scalar roots are its calls at
shape ``()``, which take a one-element path with the same points and steps
on float64 scalars, without blocks or masks.  The caller guarantees that
the function is below the target at lo wherever lo < hi (every bound
kernel's constraint is 0 at q, and a zero target gets an empty range), so
lo is never evaluated.  Each point is evaluated once: the start, which
splits the range into a bracket, then hi where the bracket is [start, hi]
and hi is not the start, then one point per step.  The bound kernels
pass only the elements they search, and evaluate a constraint themselves
only to check a closed form; an empty range (lo == hi) is not evaluated.
The root-finder settles every element whose bracket already decides it,
then takes Newton steps from the hi side on the open elements, falling
back to a secant or halving step where the Newton point is not inside
the bracket, and drops the elements that have converged on the steps
where some have.  An element ends when the Newton step from its upper
end is at most 2 ulp, without evaluating that step, or when the bracket
is.  The fallback is computed only for the elements that need it, and a
step moves the lower ends only of the elements whose point fell below
the target.  The elements are searched in blocks that are views of the
caller's arrays, which are never written.  It returns the hi side, where
the function is not below the target as evaluated: the sound side of
every bound inverted this way.  For an increasing convex function every
Newton step from the hi side stays there, so the sharp inversions
converge from above, from starts that are above the root too.  No RNG
anywhere; identical inputs give identical results, which regression
tests rely on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...

LOG_BRACKET_LO = 1e-12
LOG_BRACKET_HI = 1e12

# settings of the searches (golden_min, increasing_root)
REL_TOL = 1e-10  # golden-section stops at a bracket this wide, relative
MAX_ITER = 200  # golden-section steps
GRID = 33  # coarse grid points of golden_min
ROOT_STEPS = 100  # cap on the Newton or halving steps of increasing_root
ROOT_BLOCK = 1 << 14  # elements increasing_root searches at a time, bounding its memory
_ULP = 2.0**-52  # |x| times this is between 1 and 2 ulp of x


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray | float:
    """log(sum(exp(a))) that tolerates -inf entries; it holds one array of
    a's size, the shifted copy, exponentiated in place."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = a - m
        out = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


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
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, GRID - 1)]
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(MAX_ITER):  # golden-section refinement of [a, b]
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
    xbest, fbest = (x1, f1) if f1 <= f2 else (x2, f2)
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


def increasing_root(fn: Callable[..., tuple], lo, start, hi, target, *args) -> np.ndarray:
    """Root of an elementwise nondecreasing function on [lo, hi], searched
    from start in [lo, hi].

    ``fn(x, *args)`` returns (value, slope) at x; the arrays ``args`` are
    per-element parameters, broadcast with lo, start, hi and target and
    passed for the elements still open.  At shape ``()`` x and args are
    np.float64 scalars (Python's ** on them is the C library's pow, an
    ulp off np.power's vector loop at some points, so a fn that must give
    the same bits at every size uses np.power).
    The caller guarantees fn(lo) < target wherever lo < hi.

    Each point is evaluated once, and lo never.  fn is evaluated at start,
    which makes the bracket [lo, start] where it reaches target and
    [start, hi] where it does not, and then at hi where that bracket is
    left open, unless hi is start itself.  The value at an unevaluated lo
    is taken as -inf.  An element with lo == hi is settled at hi and not
    evaluated at all.

    Returns the hi side, where fn is not below target as evaluated: hi
    where fn(hi) does not reach target, the upper end of the first bracket
    where fn is NaN at either of its ends, and otherwise the upper end of
    a bracket narrowed until its width, or the Newton step from its upper
    end, is at most |upper end| 2^-52 (1 to 2 ulp; a short Newton step ends
    the element without being evaluated), or a Newton point leaves the
    value unchanged.
    Each step takes the Newton point from the upper end where it falls
    inside the bracket.  Elsewhere (the function is concave there, or the
    point rounded onto the root from below) it takes the secant point of
    the bracket, kept above its lower end; at an unevaluated lo that point
    is the upper end, so the step halves.  It halves the bracket instead
    where the slope at the upper end is infinite or NaN, so a caller
    without a derivative returns NaN and gets pure halving.  Open
    elements stop after ROOT_STEPS steps.  The elements are searched
    ROOT_BLOCK at a time; the inputs are not written.  At shape ``()``
    :func:`_root_one` takes the same points and steps as a block of one,
    with nothing to index, and returns the same value as a float64 scalar.
    """
    arrays = [np.asarray(v, dtype=float) for v in (lo, start, hi, target, *args)]
    if all(v.ndim == 0 for v in arrays):
        return _root_one(fn, *(v[()] for v in arrays))
    arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape

    def evaluate(x, params):  # (value, slope) in x's shape; the search may write the value
        value, slope = (np.asarray(v, dtype=float) for v in fn(x, *params))
        value, slope = (v.reshape(x.shape) if v.size == x.size else np.broadcast_to(v, x.shape)
                        for v in (value, slope))
        if any(np.may_share_memory(value, v) for v in (x, *params)) or not value.flags.writeable:
            value = value.copy()
        return value, slope

    out = np.empty(arrays[0].size)
    flat = [v.reshape(-1) for v in arrays]  # views, unless an input was broadcast
    for i in range(0, out.size, ROOT_BLOCK):
        out[i:i + ROOT_BLOCK] = _root_block(evaluate, *(v[i:i + ROOT_BLOCK] for v in flat))
    return out.reshape(shape)


def _root_block(evaluate, a, x, b, t, *args) -> np.ndarray:
    """increasing_root on flat arrays, with fn behind ``evaluate``; writes to
    none of them."""
    out = b.copy()
    live = np.flatnonzero(a < b)
    if live.size == 0:
        return out
    if live.size < out.size:
        a, x, b, t = a[live], x[live], b[live], t[live]
        args = [p[live] for p in args]
    g, s = evaluate(x, args)
    above = g >= t
    ga = np.where(above, -np.inf, g)  # fn(lo) < target, not evaluated
    open_end = np.flatnonzero(~above & (b != x))
    if open_end.size:
        s = s.copy()  # the value is the search's to write already
        g[open_end], s[open_end] = evaluate(b[open_end], [p[open_end] for p in args])
    a, b = np.where(above, a, x), np.where(above, x, b)
    out[live] = b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the Newton step from b; none from a point of infinite slope (KL at p = 1)
        step = np.where(s < np.inf, (g - t) / s, np.nan)
        keep = (ga < t) & (g >= t) & ~(step <= _ULP * np.abs(b))
        if not keep.all():
            keep = np.flatnonzero(keep)
            live, a, ga, b, g, t, step = (v[keep] for v in (live, a, ga, b, g, t, step))
            args = [p[keep] for p in args]
        for _ in range(ROOT_STEPS):
            if live.size == 0:
                break
            x = b - step
            newton = x > a
            if not newton.all():
                # at the elements whose Newton point left the bracket, the
                # secant point, kept above a, where b has a Newton step (a
                # finite slope); it is b where a is unevaluated (ga = -inf),
                # so the step halves
                j = np.flatnonzero(~newton)
                aj, bj = a[j], b[j]
                secant = bj - (g[j] - t[j]) * (bj - aj) / (g[j] - ga[j])
                secant = np.maximum(secant, np.nextafter(aj, bj))
                x[j] = np.where((secant < bj) & (step[j] == step[j]), secant, 0.5 * (aj + bj))
            gx, sx = evaluate(x, args)
            above = gx >= t
            # a Newton point that leaves the value unchanged has hit its rounding
            done = newton & (gx >= g)
            step_x = (gx - t) / sx
            if not above.all():  # a point below the target moves the lower end instead
                j = np.flatnonzero(~above)
                a[j], ga[j] = x[j], gx[j]
                x[j], gx[j], step_x[j] = b[j], g[j], step[j]
            b, g, step = x, gx, step_x
            tol = _ULP * np.abs(b)  # between 1 and 2 ulp of b
            done |= (step <= tol) | (b - a <= tol)
            if done.any():  # drop the finished elements
                out[live[done]] = b[done]
                keep = np.flatnonzero(~done)
                live, a, ga, b, g, t, step = (v[keep] for v in (live, a, ga, b, g, t, step))
                args = [p[keep] for p in args]
    out[live] = b
    return out


def _root_one(fn, a, x, b, t, *args):
    """increasing_root at shape (), on np.float64 scalars: _root_block's
    points and steps for one element, with nothing to index or compact."""
    if not a < b:
        return b
    g, s = map(np.float64, fn(x, *args))
    if g >= t:
        ga, b = -np.inf, x  # fn(lo) < target, not evaluated
    else:
        ga, a = g, x
        if b != x:
            g, s = map(np.float64, fn(b, *args))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = (g - t) / s if s < np.inf else np.nan
        if not (ga < t and g >= t) or step <= _ULP * abs(b):
            return b
        for _ in range(ROOT_STEPS):
            x = b - step
            newton = x > a
            if not newton:
                secant = b - (g - t) * (b - a) / (g - ga)
                floor = np.nextafter(a, b)
                secant = floor if secant < floor else secant
                x = secant if secant < b and step == step else 0.5 * (a + b)
            gx, sx = map(np.float64, fn(x, *args))
            done = newton and gx >= g
            if gx >= t:
                b, g, step = x, gx, (gx - t) / sx
            else:
                a, ga = x, gx
            tol = _ULP * abs(b)
            if done or step <= tol or b - a <= tol:
                return b
    return b

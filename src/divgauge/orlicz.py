"""Orlicz gauges and the two norms the generalized Hoelder inequality pairs.

The built-in power family psi(t) = t^kappa / kappa (kappa > 1) has exact
conjugate psi*(u) = u^alpha / alpha with 1/kappa + 1/alpha = 1 and exact
generalized inverse.  User-supplied gauges fall back to numeric conjugates
and inverses; both paths are spot-checked at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import bisect_increasing, golden_min, golden_min_vec
from .dist import AbsContPair
from .errors import OrliczSpecError, RangeError

_CHECK_GRID = np.geomspace(1e-6, 1e6, 49)


@dataclass(frozen=True)
class OrliczSpec:
    """An Orlicz function psi with its conjugate and generalized inverse."""

    name: str
    psi: Callable
    conjugate: Callable
    inverse: Callable
    kappa: float | None = None  # set for the power family

    @property
    def conjugate_exponent(self) -> float:
        if self.kappa is None:
            raise OrliczSpecError("conjugate exponent only defined for power gauges")
        return self.kappa / (self.kappa - 1.0)


def power_orlicz(kappa: float) -> OrliczSpec:
    """psi(t) = t^kappa / kappa with conjugate u^alpha / alpha."""
    if kappa <= 1.0:
        raise RangeError("power gauge needs kappa > 1")
    alpha = kappa / (kappa - 1.0)

    def psi(t):
        with np.errstate(over="ignore"):
            return np.power(t, kappa) / kappa

    def conj(u):
        with np.errstate(over="ignore"):
            return np.power(u, alpha) / alpha

    def inv(s):
        return np.power(kappa * np.asarray(s, dtype=float), 1.0 / kappa)

    return OrliczSpec(f"power({kappa:g})", psi, conj, inv, kappa)


def custom_orlicz(
    psi: Callable,
    conjugate: Callable | None = None,
    inverse: Callable | None = None,
    *,
    name: str = "custom",
    validate: bool = True,
) -> OrliczSpec:
    """Wrap a user-supplied convex gauge; derive missing pieces numerically.

    The numeric conjugate sup_{l>0} (l u - psi(l)) raises OrliczSpecError if
    the supremum runs off the search bracket (i.e. looks infinite).
    """

    def _conj_scalar(u: float) -> float:
        lam, neg = golden_min(lambda l: -(l * u - float(psi(l))))
        if lam > 0.999e12:
            # supremum pinned to the bracket edge: report +inf (conservative)
            return math.inf
        return -neg

    def num_conj(u):
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 0:
            return _conj_scalar(float(arr))
        return np.fromiter(
            (_conj_scalar(float(x)) for x in arr.ravel()), dtype=float, count=arr.size
        ).reshape(arr.shape)

    def num_inv(s: float) -> float:
        s = float(s)
        if s <= 0.0:
            return 0.0
        hi = 1.0
        for _ in range(4000):
            if float(psi(hi)) >= s:
                break
            hi *= 2.0
        else:
            raise OrliczSpecError("psi never reaches the requested level")
        return bisect_increasing(lambda t: float(psi(t)), 0.0, hi, s, residual=0.0)

    spec = OrliczSpec(
        name, psi, conjugate if conjugate else num_conj, inverse if inverse else num_inv
    )
    if validate:
        _validate(spec)
    return spec


def _validate(spec: OrliczSpec) -> None:
    if abs(float(spec.psi(0.0))) > 1e-12:
        raise OrliczSpecError("psi(0) must be 0")
    v = np.asarray([float(spec.psi(t)) for t in _CHECK_GRID])
    if np.any(v < -1e-12):
        raise OrliczSpecError("psi must be nonnegative")
    if np.any(np.diff(v) < -1e-9):
        raise OrliczSpecError("psi must be nondecreasing")
    mid = np.asarray(
        [float(spec.psi(0.5 * (a + b))) for a, b in zip(_CHECK_GRID[:-1], _CHECK_GRID[1:])]
    )
    chord = 0.5 * (v[:-1] + v[1:])
    fin = np.isfinite(chord) & np.isfinite(mid)
    if np.any(mid[fin] > chord[fin] + 1e-9 * np.maximum(1.0, np.abs(chord[fin]))):
        raise OrliczSpecError("psi fails midpoint convexity on the check grid")
    if float(spec.psi(_CHECK_GRID[-1])) <= 0.0:
        raise OrliczSpecError("psi must not be identically zero")
    for t in (1e-3, 1.0, 1e3):
        s = float(spec.psi(t))
        if math.isfinite(s) and s > 0:
            if float(spec.inverse(s)) > t * (1 + 1e-9) + 1e-12:
                raise OrliczSpecError("inverse(psi(t)) must not exceed t")


def luxemburg_indicator_norm(q: float, spec: OrliczSpec) -> float:
    """Luxemburg norm of an indicator with mass q: 1 / psi^{-1}(1/q)."""
    if not 0.0 < q <= 1.0:
        raise RangeError("indicator mass must lie in (0, 1]")
    return float(1.0 / spec.inverse(1.0 / q))


def _live(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """|U| and its weights on the atoms where both are positive."""
    u = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    live = (w > 0) & (u > 0)
    return u[live], w[live]


def luxemburg_norm_values(values, weights, spec: OrliczSpec) -> float:
    """Generic Luxemburg norm inf{s > 0 : E[psi(|U|/s)] <= 1} on a finite space."""
    u, w = _live(values, weights)
    if u.size == 0:
        return 0.0
    if spec.kappa is not None:
        # closed form for the power family
        k = spec.kappa
        return float((np.sum(w * u**k) / k) ** (1.0 / k))

    def excess(s: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(w * np.asarray(spec.psi(u / s), dtype=float)))

    lo = hi = float(u.max())
    for _ in range(2000):
        if excess(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(2000):
        if excess(lo) > 1.0:
            break
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    # excess is nonincreasing in s; return the smallest s with excess <= 1
    return bisect_increasing(lambda s: -excess(s), lo, hi, -1.0, residual=0.0)


def amemiya_norm_values(values, weights, spec: OrliczSpec) -> float:
    """Amemiya norm wrt the conjugate gauge:
    inf_{t>0} (E[psi*(t |U|)] + 1) / t."""
    u, w = _live(values, weights)
    if u.size == 0:
        return 0.0  # empty positive part: inf_t 1/t = 0

    def objective(t: float) -> float:
        with np.errstate(over="ignore"):
            vals = np.asarray(spec.conjugate(t * u), dtype=float)
        total = float(np.sum(w * vals))
        return (total + 1.0) / t

    t_star, best = golden_min(objective)
    if not math.isfinite(best):
        raise OrliczSpecError("conjugate gauge is non-finite on the whole bracket")
    return best


def amemiya_norm_rows(u: np.ndarray, w: np.ndarray, spec: OrliczSpec) -> np.ndarray:
    """Row-wise :func:`amemiya_norm_values` of (batch, n) data, by one
    vectorized search."""
    live = (u > 0) & (w > 0)
    any_live = live.any(axis=1)
    u = np.where(live, u, 0.0)

    def obj(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(spec.conjugate(t[:, None] * u), dtype=float)
            vals = np.where(live, vals, 0.0)
            return ((vals * w).sum(axis=1) + 1.0) / t

    _, best = golden_min_vec(obj, 1e-12, 1e12, (u.shape[0],))
    return np.where(any_live, best, 0.0)


def amemiya_norm(pair: AbsContPair, gamma: float, spec: OrliczSpec) -> float:
    """Amemiya norm of [dP/dQ - gamma]_+ under Q, wrt the conjugate of psi."""
    excess = np.maximum(pair.ratios - gamma, 0.0)
    return amemiya_norm_values(excess, pair.q.probs, spec)

"""Orlicz gauges and the two norms the generalized Hoelder inequality pairs.

The built-in power family psi(t) = t^kappa / kappa (kappa > 1) has exact
conjugate psi*(u) = u^alpha / alpha with 1/kappa + 1/alpha = 1 and exact
generalized inverse, and both norms of a power gauge are closed forms:
Luxemburg (E[|U|^kappa] / kappa)^(1/kappa) and Amemiya
kappa^(1/kappa) E[|U|^alpha]^(1/alpha).  User-supplied gauges fall back to
numeric conjugates, inverses and norm searches; both paths are spot-checked
at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import golden_min, increasing_root, numeric_conjugate
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

    The numeric conjugate sup_{l>0} (l u - psi(l)) is +inf where the
    supremum runs off the search bracket (see :func:`numeric_conjugate`).
    """

    def num_conj(u):
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 0:
            return numeric_conjugate(psi, float(arr))
        return np.fromiter(
            (numeric_conjugate(psi, float(x)) for x in arr.ravel()), dtype=float, count=arr.size
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
        return float(increasing_root(lambda t: (psi(t), math.nan), 0.0, hi, s))

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


def indicator_norm(q, spec: OrliczSpec):
    """Luxemburg norm 1 / psi^{-1}(1/q) of an indicator with mass q >= 0,
    elementwise: 0 at q = 0, and q clipped below at 1e-300 so 1/q stays
    finite.  Masses above 1 are kept (a Hoeffding surrogate may exceed 1)."""
    q = np.asarray(q, dtype=float)
    qs = np.maximum(q, 1e-300)
    with np.errstate(divide="ignore"):
        norm = 1.0 / np.asarray(spec.inverse(1.0 / qs), dtype=float)
    return np.where(q > 0.0, norm, 0.0)


def luxemburg_indicator_norm(q: float, spec: OrliczSpec) -> float:
    """Luxemburg norm of an indicator with mass q in (0, 1]: 1 / psi^{-1}(1/q)."""
    if not 0.0 < q <= 1.0:
        raise RangeError("indicator mass must lie in (0, 1]")
    return float(indicator_norm(q, spec))


def _live(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """|U| and its weights on the atoms where both are positive."""
    u = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    live = (w > 0) & (u > 0)
    return u[live], w[live]


def _scaled(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u >= 0 divided by its maximum over the last axis, and that maximum
    (1 where it is 0 or inf).  Both norms are positively homogeneous, so
    the norm of u is the maximum times the norm of the scaled values, and
    powers of the scaled values neither overflow nor underflow."""
    top = u.max(axis=-1, keepdims=True)
    top = np.where((top > 0.0) & (top < np.inf), top, 1.0)
    return u / top, top[..., 0]


def luxemburg_norm_values(values, weights, spec: OrliczSpec) -> float:
    """Generic Luxemburg norm inf{s > 0 : E[psi(|U|/s)] <= 1} on a finite space."""
    u, w = _live(values, weights)
    if u.size == 0:
        return 0.0
    u, top = _scaled(u)
    if spec.kappa is not None:
        # closed form for the power family
        k = spec.kappa
        return float(top * (np.sum(w * u**k) / k) ** (1.0 / k))

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
    return float(top * increasing_root(lambda s: (-excess(s), math.nan), lo, hi, -1.0))


def amemiya_norm_values(values, weights, spec: OrliczSpec) -> float:
    """Amemiya norm wrt the conjugate gauge:
    inf_{t>0} (E[psi*(t |U|)] + 1) / t (closed form for power gauges)."""
    u, w = _live(values, weights)
    if u.size == 0:
        return 0.0  # empty positive part: inf_t 1/t = 0
    if spec.kappa is not None:
        return float(amemiya_norm_rows(u, w, spec))
    u, top = _scaled(u)

    def objective(t: float) -> float:
        with np.errstate(over="ignore"):
            vals = np.asarray(spec.conjugate(t * u), dtype=float)
        total = float(np.sum(w * vals))
        return (total + 1.0) / t

    t_star, best = golden_min(objective)
    if not math.isfinite(best):
        raise OrliczSpecError("conjugate gauge is non-finite on the whole bracket")
    return float(top * best)


def amemiya_norm_rows(u: np.ndarray, w: np.ndarray, spec: OrliczSpec) -> np.ndarray:
    """Amemiya norms over the last axis of u >= 0 with weights w >= 0, for a
    power gauge: kappa^(1/kappa) (sum w u^alpha)^(1/alpha), the minimum of
    (sum w psi*(t u) + 1) / t, attained at t = (kappa / sum w u^alpha)^(1/alpha),
    evaluated on u scaled by its row maximum.
    """
    alpha = spec.conjugate_exponent  # OrliczSpecError for a custom gauge
    scaled, top = _scaled(u)
    norm = np.sum(w * scaled**alpha, axis=-1) ** (1.0 / alpha)
    return spec.kappa ** (1.0 / spec.kappa) * top * norm


def amemiya_norm(pair: AbsContPair, gamma: float, spec: OrliczSpec) -> float:
    """Amemiya norm of [dP/dQ - gamma]_+ under Q, wrt the conjugate of psi."""
    excess = np.maximum(pair.ratios - gamma, 0.0)
    return amemiya_norm_values(excess, pair.q.probs, spec)

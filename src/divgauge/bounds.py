"""Change-of-measure upper bounds on P(E) from Q(E) and a divergence.

Every bound here is of the shape  P(E) <= xi(Q(E), dP/dQ)  and is verified
against exhaustive event enumeration by the verify module.  Scalar entry
points return a :class:`BoundResult`; the ``*_core`` functions are the
vectorized formula kernels shared with the verification harness (they accept
scalars or numpy arrays for q and return raw, unclipped values).

Conventions
-----------
* Every core reads q through one :class:`EventView`: its clipped copy and
  logs, computed once per view, and the positions of the degenerate
  events.  A sweep batch holds one view for all its cases.  q = 0 forces
  P(E) = 0 under domination, and q >= 1 the vacuous bound 1: cores
  evaluate their formula at every event, then write these values at those
  positions alone (the Orlicz bound keeps its formula at q >= 1).
* The kernels search no bracket.  Each optimum over a free parameter is a
  closed form or the root of its own stationarity condition, and the
  family is evaluated there in a parametrization that does not cancel.
  The optimized KL bound is the Chernoff inversion
  sup{p >= q : kl(p || q) <= d}; the implicit power bound and the exact
  reverse-KL bound are roots too, each from ``_optim.increasing_root``
  (Newton steps from a closed-form start above the root) on the elements
  a kernel searches: not where Q(E) is 0 or 1 or the root is a closed
  form.  It returns the upper side of its final bracket, so each inverted
  bound errs on the sound side; the scalar entry points are the same
  kernels at one point.  At beta = 2 the implicit power constraint is the
  chi-square one, so that bound is the chi-square closed form, raised an
  ulp at a time where the constraint as evaluated falls short.
* Each competitor with a free parameter, squared Hellinger aside, is at
  its optimum one of our sharp bounds (Vincze-Le Cam through the reverse
  chi-square bound at V/2), so none computes its own value.  Every optimal
  parameter is a function of the logit gap z = logit p* - logit q
  (:func:`_logit_gap`): c* = z (KL), 1 / expm1(2z) (reverse chi-square,
  Vincze-Le Cam), 1 / expm1(z) (reverse KL), s* = -1 / expm1((beta-1) z)
  (power).  So each returns q at divergence 0 and 1 at divergence +inf.
  Each competitor's table entry declares its family and this optimum
  (:class:`FreeParam`), read only by the entry points that report the
  parameter (``bound_kl`` and ``competitor_bound``, through
  :func:`competitor_optimum`); the kernels the sweep runs return the bound.
* The Young-Fenchel bound optimized over (u, v) is the sharp inversion
  sup{p >= q : q f(p/q) + (1-q) f((1-p)/(1-q)) <= D_f}, so it takes no
  search of its own: the table's core for the chi-square, KL and power
  generators, and :func:`f_sharp_core` for a callable one.
* Raw values may exceed 1 or be +inf; ``BoundResult.value`` clips to [0, 1]
  for reporting.  Dominance comparisons always use raw values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ._optim import increasing_root, numeric_conjugate
from .dist import AbsContPair, EventMask, JointFinite, event_probability
from .divergences import (
    CHI2,
    KL,
    REVERSE_CHI2,
    REVERSE_KL,
    SQUARED_HELLINGER,
    VINCZE_LECAM,
    DivergenceKind,
    bernoulli_kl_core,
    generator_derivative,
    generator_values,
    hockey_stick_kind,
    power_kind,
)
from .errors import (BETA, OPEN_UNIT, POSITIVE, REAL, UNIT, RangeError,
                     ValidationError, check_range)
from .orlicz import (
    OrliczSpec,
    amemiya_norm,
    amemiya_norm_rows,
    amemiya_norm_values,
    indicator_norm,
    luxemburg_norm_values,
    power_orlicz,
)


@dataclass(frozen=True)
class BoundResult:
    """An evaluated upper bound on P(E).

    ``raw`` is the formula value (may exceed 1 or be +inf); ``value`` clips
    it to [0, 1] for reporting.  ``preconditions_met`` is False when the
    bound is not applicable at these inputs (e.g. a nonpositive slope gap);
    soundness is only promised while it is True.
    """

    name: str
    raw: float
    free_params: dict = field(default_factory=dict)
    preconditions_met: bool = True
    notes: tuple[str, ...] = ()

    @property
    def value(self) -> float:
        if math.isnan(self.raw):
            return 1.0
        return min(max(self.raw, 0.0), 1.0)


def _check_div(d: float, what: str = "divergence") -> float:
    """A divergence value as a float; one within 1e-12 below 0 (roundoff in
    the sum that gave it) reads as 0."""
    d = check_range(d, what, "[-1e-12, inf]")
    return 0.0 if d < 0.0 else d


def _degenerate(name: str, q: float, params: dict) -> BoundResult | None:
    if q == 0.0:
        return BoundResult(name, 0.0, params, notes=("degenerate: Q(E)=0 forces P(E)=0",))
    if q == 1.0:
        return BoundResult(name, 1.0, params, notes=("degenerate: Q(E)=1 forces the vacuous bound",))
    return None


class _OnFirstUse:
    """An attribute computed on first use and then stored on the instance.
    Unlike Python 3.11's cached_property it takes no lock, which would cost
    more than a 0-d core's arithmetic; a race computes the same array twice."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, view, owner=None):
        value = view.__dict__[self.name] = self.fn(view)
        return value


class EventView:
    """Event masses Q(E) and what the kernels derive from them: the flat
    positions of the degenerate events, Q(E) = 0 (``empty``) and Q(E) >= 1
    (``full``), and, each computed on first use, ``qs``, q clipped to
    [1e-300, 1 - 1e-16] (where its logs and 1/q are finite), and ``log_q``
    and ``log1m_q``, its log and log1p(-qs).  One event (shape ``()``) is
    held as a float64 scalar, with ``empty`` and ``full`` two booleans, so
    a scalar call's core runs on float64 scalars with nothing to index.  A
    core given a plain array or scalar builds its own view."""

    def __init__(self, q) -> None:
        q = np.asarray(q, dtype=float)
        if q.ndim == 0:
            self.q = q[()]
            self.empty, self.full = bool(self.q <= 0.0), bool(self.q >= 1.0)
        else:
            self.q = q
            flat = q.reshape(-1)
            self.empty, self.full = (flat <= 0.0).nonzero()[0], (flat >= 1.0).nonzero()[0]
        self._norm: tuple = (None, None)

    qs = _OnFirstUse(lambda self: self.q.clip(1e-300, 1.0 - 1e-16))
    log_q = _OnFirstUse(lambda self: np.log(self.qs))
    log1m_q = _OnFirstUse(lambda self: np.log1p(-self.qs))

    def indicator_norm(self, spec: OrliczSpec) -> np.ndarray:
        """:func:`indicator_norm` of q under `spec`.  The last power gauge's
        values are kept (a gauge with ``kappa`` set is the power gauge of
        that kappa), so the Orlicz cases of one kappa share them."""
        if spec.kappa is None:
            return indicator_norm(self.q, spec)
        if self._norm[0] != spec.kappa:
            self._norm = (spec.kappa, indicator_norm(self.q, spec))
        return self._norm[1]


def _view(q) -> EventView:
    return q if isinstance(q, EventView) else EventView(q)


def _override(v: EventView, raw, full=1.0):
    """raw, a fresh array of Q(E)'s shape or a scalar, with the degenerate-
    event convention written at those events alone: 0 where Q(E) = 0 and
    ``full`` where Q(E) >= 1 (None keeps raw there).  At one event the
    result is a float64 scalar, the convention's value or raw, chosen by
    the view's two booleans."""
    if np.shape(raw) != v.q.shape:  # q broadcast against a larger divergence
        v = EventView(np.broadcast_to(v.q, np.shape(raw)))
    if v.q.ndim == 0:
        return np.float64(0.0 if v.empty else full if v.full and full is not None else raw)
    raw.put(v.empty, 0.0)
    if full is not None:
        raw.put(v.full, full)
    return raw


def _search(fn, v: EventView, settled, hi, target, start, root=None, at_hi=None):
    """The root of fn(p, qs) = target on [qs, hi] from ``start(qs, target)``,
    searched only where 0 < q < 1 and not ``settled``: the start is computed
    and the root-finder (``increasing_root`` unless ``root`` is given) called
    on those elements alone.  Every other element is hi where ``at_hi`` (a
    part of ``settled``), else qs, which the caller overrides.  A NaN target
    gives NaN, not the hi side, which counts as sound.  One element (shape
    ``()``) is searched as one, with no masks, and returned as a float64
    scalar."""
    open_ = (v.q > 0.0) & (v.q < 1.0) & np.logical_not(settled)
    if open_.ndim == 0:
        if at_hi:
            return np.float64(hi)
        if not open_:
            return v.qs
        to = np.float64(target)
        found = (root or increasing_root)(fn, v.qs, start(v.qs, to), hi, to, v.qs)
        return to if np.isnan(to) else found
    out = np.array(v.qs, dtype=float)
    if open_.any():
        qo, to = v.qs[open_], np.broadcast_to(target, v.q.shape)[open_]
        found = (root or increasing_root)(fn, qo, start(qo, to), hi, to, qo)
        out[open_] = found if not np.isnan(to.min()) else np.where(np.isnan(to), to, found)
    if at_hi is not None:
        out[at_hi] = hi
    return out


def _two_point(name: str, core, q: float, d: float, what: str, **params) -> BoundResult:
    """A bound at fixed params: check q and d, then evaluate core(q, d, **params)."""
    q = check_range(q, "q", UNIT)
    d = _check_div(d, what)
    deg = _degenerate(name, q, params)
    if deg:
        return deg
    return BoundResult(name, float(core(q, d, **params)), params)


# ---------------------------------------------------------------------------
# hockey-stick (E_gamma) and the strong-converse comparison point
# ---------------------------------------------------------------------------


def egamma_core(q, e_gamma, gamma):
    """gamma * q + E_gamma(P || Q), and with D_f / (f'(gamma) - f'(1)) for
    E_gamma the f-divergence bound through the hockey stick."""
    v = _view(q)
    return _override(v, gamma * v.q + e_gamma)


def bound_egamma(q: float, e_gamma: float, gamma: float) -> BoundResult:
    """P(E) <= gamma Q(E) + E_gamma(P || Q), any real gamma."""
    gamma = check_range(gamma, "gamma", REAL)
    return _two_point("egamma", egamma_core, q, e_gamma, "E_gamma", gamma=gamma)


def _tail_masses(r, p, q, gamma):
    """P({dP/dQ > gamma}), the strict upper tail of the ratio under P, per
    row of ratios r and masses p (the table's stat; q is not read)."""
    return ((r > gamma) * p).sum(axis=-1, keepdims=True)


def likelihood_tail_mass(pair: AbsContPair, gamma: float) -> float:
    """P({dP/dQ > gamma}) of one pair."""
    return float(_tail_masses(pair.ratios, pair.p.probs, None, gamma)[0])


def bound_strong_converse(pair: AbsContPair, mask: EventMask, gamma: float) -> BoundResult:
    """P(E) <= gamma Q(E) + P(dP/dQ > gamma): counts only how often the
    ratio exceeds gamma, hence never beats :func:`bound_egamma`."""
    gamma = check_range(gamma, "gamma", REAL)
    q = event_probability(pair.q, mask)
    tail = likelihood_tail_mass(pair, gamma)
    params = {"gamma": gamma, "tail_mass": tail}
    deg = _degenerate("strong_converse", q, params)
    if deg:
        return deg
    return BoundResult("strong_converse", float(egamma_core(q, tail, gamma)), params)


# ---------------------------------------------------------------------------
# chi-square and KL
# ---------------------------------------------------------------------------


def chi2_core(q, chi2):
    """q + sqrt(q) sqrt((1-q) chi^2), which does not underflow at tiny q."""
    v = _view(q)
    q = v.q
    with np.errstate(invalid="ignore"):
        return _override(v, q + np.sqrt(q) * np.sqrt((1.0 - q) * chi2))


def bound_chi2(q: float, chi2: float) -> BoundResult:
    """P(E) <= q + sqrt(q (1-q) chi^2(P||Q))."""
    return _two_point("chi2", chi2_core, q, chi2, "divergence")


def kl_fixed_core(q, d, c):
    with np.errstate(over="ignore"):
        return (d + np.log1p(np.asarray(q, dtype=float) * np.expm1(c))) / c


def _logit_gap(p, q):
    """z = logit p - logit q for p >= q as log1p((p-q)/q) + log1p((p-q)/(1-p)),
    which does not cancel near p = q and is a plain log where p >> q; +inf
    at p = 1.  Every optimal free parameter is a function of z at p*."""
    gap = p - q
    return np.log1p(gap / q) + np.log1p(gap / (1.0 - p))


def _kl_above(p, q):
    """kl(p || q) and its slope, the logit gap, for p >= q."""
    return bernoulli_kl_core(p, q), _logit_gap(p, q)


def kl_opt_core(q, d):
    """The KL bound minimized over c > 0: the Chernoff inversion
    p* = sup{p >= q : kl(p || q) <= d}, by Newton steps from
    :func:`_kl_start`.  Where d >= log(1/q) the infimum is the limit 1 as
    c -> inf, with no search; d = 0 gives q, with no search either."""
    v = _view(q)
    d = np.broadcast_to(np.asarray(d, dtype=float), v.q.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        saturated = d >= -v.log_q
        p = _search(_kl_above, v, saturated | (d == 0.0), 1.0, d, _kl_start, at_hi=saturated)
    return _override(v, p)


def _kl_start(q, d):
    """The smaller of two points above the root, capped at the predecessor
    of 1.0, where the slope is still finite.  One is q plus Pinsker's gap
    sqrt(d / 2) or, if smaller, twice d + sqrt(d) sqrt(d + 2q), where
    kl(p || q) >= (p - q)^2 / (2p) is 2d, plus 1e-12 q: a margin over the
    rounding of kl(p || q), which is within rounding of d at Pinsker's gap
    where Pinsker is tight (q near 1/2, tiny d).  The other, for roots near
    1, is 1 - u with phi(u) = u (1 + log((1-q)/q) + log(1/u)) <= log(1/q) - d:
    the entropy of 1 - u is at most u log(1/u) + u, so there
    kl(1 - u || q) >= log(1/q) - phi(u) >= d.  phi is concave, so each Newton
    step on phi(u) = log(1/q) - d, four from u = 2^-53, lands where phi is at
    most that; the margin 2^-51 + 2^-50 u covers the rounding of 1 - u."""
    gap = np.minimum(np.sqrt(0.5 * d), 2.0 * (d + np.sqrt(d) * np.sqrt(d + 2.0 * q)))
    logit, slack = np.log1p(-q) - np.log(q), -np.log(q) - d
    u = np.full_like(q, 2.0**-53)
    for _ in range(4):
        u = (slack - u) / (logit - np.log(u))
    near = np.where((u > 0.0) & (u < 1.0), 1.0 - u * (1.0 - 2.0**-50) + 2.0**-51, 1.0)
    return np.minimum(np.minimum(q + gap + 1e-12 * q, near), np.nextafter(1.0, 0.0))


def kl_closed_core(q, d):
    """The closed specialization c = log(1/q): (KL + log(2 - q)) / log(1/q),
    with log(2 - q) taken as log1p(1 - q), which does not round to 0 near
    q = 1."""
    v = _view(q)
    return _override(v, (d + np.log1p(1.0 - v.qs)) / -v.log_q)


def bound_kl(q: float, kl: float, c: float | None = None) -> BoundResult:
    """P(E) <= (KL(P||Q) + log(1 + q(e^c - 1))) / c for any c > 0.

    With c omitted, takes the optimal c (see :func:`kl_opt_core`); the result
    also reports the closed specialization at c = log(1/q) under
    ``free_params['closed_c']``.
    """
    q = check_range(q, "q", UNIT)
    kl = _check_div(kl, "KL")
    if c is not None:
        c = check_range(c, "c", POSITIVE)
    deg = _degenerate("kl", q, {})
    if deg:
        return deg
    if c is not None:
        return BoundResult("kl", float(kl_fixed_core(q, kl, c)), {"c": c})
    v = EventView(q)
    raw, c_star = competitor_optimum("kl", v, kl)
    closed = float(kl_closed_core(v, kl))
    return BoundResult(
        "kl",
        float(raw),
        {"c": float(c_star), "closed_c": math.log(1.0 / q), "closed_value": closed},
    )


# ---------------------------------------------------------------------------
# squared Hellinger distance
# ---------------------------------------------------------------------------

_H2 = "[0, 2]"  # the range of the squared Hellinger distance


def _hellinger_closed(q, h):
    """(sqrt(q) x + sqrt((1-q)(1-x^2)))^2 at x = 1 - h: max p with
    sqrt(pq) + sqrt((1-p)(1-q)) >= x, at least q (squaring sqrt(q) rounds an
    ulp below it at h = 0).  1 - x^2 is formed as h (2 - h), which keeps its
    digits where x rounds to 1 (h below about 1e-16)."""
    with np.errstate(invalid="ignore"):
        x = np.sqrt(q) * (1.0 - h) + np.sqrt((1.0 - q) * np.maximum(h * (2.0 - h), 0.0))
    return np.maximum(x * x, q)


def hellinger_core(q, h2):
    """Exact inversion of the two-point Hellinger constraint: the closed form
    at x = 1 - h2/2 where x >= sqrt(q), else 1 (the constraint admits p = 1)."""
    v = _view(q)
    h = 0.5 * np.asarray(h2, dtype=float)
    with np.errstate(invalid="ignore"):
        raw = np.where(1.0 - h >= np.sqrt(v.q), _hellinger_closed(v.q, h), 1.0)
    return _override(v, raw)


def bound_hellinger(q: float, h2: float) -> BoundResult:
    """Invert 2(1 - sqrt(pq) - sqrt((1-p)(1-q))) <= H^2 for the largest p."""
    q = check_range(q, "q", UNIT)
    h2 = check_range(h2, "squared Hellinger distance", _H2)
    informative = (1.0 - 0.5 * h2) >= math.sqrt(q) if 0.0 < q < 1.0 else True
    deg = _degenerate("hellinger", q, {})
    if deg:
        return deg
    notes = () if informative else ("vacuous: sqrt(q) exceeds 1 - H^2/2",)
    return BoundResult("hellinger", float(hellinger_core(q, h2)), {}, notes=notes)


# ---------------------------------------------------------------------------
# power-beta divergence (three modes)
# ---------------------------------------------------------------------------


def _power_excess(p, q, beta):
    """p^b q^(1-b) + (1-p)^b (1-q)^(1-b) - 1, summed as
    q ((p/q)^b - 1) + (1-q) (((1-p)/(1-q))^b - 1), and its slope in p.  Below
    p = 2q the first term is q expm1(b log1p((p-q)/q)), which does not cancel
    near p = q; from there on it is q (p/q)^b - q, a power accurate to a few
    ulp, where exp(b log(p/q)) would multiply the rounding of the log by
    b log(p/q) (some 1,400 at q = 1e-300).  Where (p/q)^b overflows but
    q (p/q)^b need not, it is (p / q^(1-1/b))^b.  One element (shape ``()``)
    forms only the branch it takes."""
    down = np.log1p((q - p) / (1.0 - q))
    ratio = p / q
    near = ratio < 2.0
    one = np.ndim(near) == 0
    if not one or near:
        up = np.log1p((p - q) / q)
        first, rise = q * np.expm1(beta * up), np.exp((beta - 1.0) * up)
    if not one or not near:
        far = q * np.power(ratio, beta)
        overflow = np.isinf(far)
        if (overflow if one else overflow.any()):
            far = np.where(far < np.inf, far, np.power(p / np.power(q, 1.0 - 1.0 / beta), beta))
        if one:
            first, rise = far - q, far / p
        else:
            first, rise = np.where(near, first, far - q), np.where(near, rise, far / p)
    value = first + (1.0 - q) * np.expm1(beta * down)
    return value, beta * (rise - np.exp((beta - 1.0) * down))


def power_implicit_core(q, h_beta, beta):
    """Largest p in [q, 1] with p^b q^(1-b) + (1-p)^b (1-q)^(1-b) <= 1 + (b-1) H_b.

    The left side is increasing and convex in p on [q, 1], so Newton steps
    from :func:`_power_start`, which is above the root, stay on the safe
    (upper) side of it.  Two cases need no search: where
    (1 + (b-1) H_b) q^(b-1) >= 1 the constraint admits p = 1 and the bound
    is exactly 1, and H_b = 0 gives q.  At b = 2 the constraint is the
    chi-square one, (p - q)^2 <= q (1-q) H_2: its closed form
    :func:`chi2_core` is not searched from but checked, by :func:`_ulp_raise`."""
    v = _view(q)
    excess = (beta - 1.0) * np.asarray(h_beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        admits_one = np.log1p(excess) + (beta - 1.0) * v.log_q >= 0.0
        start, root = ((chi2_core, _ulp_raise) if beta == 2.0
                       else (partial(_power_start, beta=beta), None))
        p = _search(partial(_power_excess, beta=beta), v, admits_one | (excess == 0.0), 1.0,
                    excess, start, root, admits_one)
    return _override(v, p)


def _ulp_raise(fn, lo, start, hi, target, *args):
    """A closed-form start, at most hi, raised an ulp at a time toward hi
    where fn as evaluated falls short of target (its rounding can leave the
    closed form an ulp or two short), evaluating only those elements; lo is
    not read."""
    out = p = np.minimum(start, hi)
    if p.ndim == 0:  # one element
        while fn(p, *args)[0] < target and p < hi:
            p = np.nextafter(p, hi)
        return p
    at = np.arange(out.size)
    while at.size:
        short = (fn(p, *args)[0] < target) & (p < hi)
        at, p, target = at[short], np.nextafter(p[short], hi), target[short]
        args = [a[short] for a in args]
        out[at] = p
    return out


def _power_start(q, excess, beta):
    """A start above the root of the implicit power constraint, E = (b-1) H_b.

    The smaller of two points above it: where the first term alone reaches
    1 + E, ((1 + E) q^(b-1))^(1/b) (the second term is not negative), and q
    plus the gap where b(b-1)/2 min(1, 2^(b-2)) (p - q)^2 / q, a lower bound
    on the left side (for b < 2 only up to p = 2q), reaches E.  Then two
    steps of p <- q (1 + w)^(1/b), w = (E - (1-q) expm1(b log1p((q-p)/(1-q))))/q,
    the constraint solved for its first term with the second held at p: an
    increasing map with the root as its fixed point, so it stays above it.
    Written in log1p and expm1 it does not cancel at tiny q.  Its margin,
    (8 + log1p(w)) ulp, covers the rounding of the map, which exp
    multiplies by log1p(w) / b, and of the constraint."""
    p = np.exp((np.log1p(excess) + (beta - 1.0) * np.log(q)) / beta)
    gap = np.sqrt(q) * np.sqrt(excess / (0.5 * beta * (beta - 1.0) * min(1.0, 2.0 ** (beta - 2.0))))
    p = np.where((beta >= 2.0) | (gap <= q), np.minimum(p, q + gap), p)
    for _ in range(2):
        lift = np.log1p((excess - (1.0 - q) * np.expm1(beta * np.log1p((q - p) / (1.0 - q)))) / q)
        p = q + q * np.expm1(lift / beta)
    return np.minimum(p * (1.0 + (8.0 + lift) * 2.0**-52), 1.0)


def power_qmax_core(q, h_beta, beta, q_max):
    """Linearized relaxation under an a-priori event-mass cap Q(E) <= q_max.

    Returns (raw, m, valid): the implied slope m must be positive for the
    bound to apply.  The log-sum of q^(1-b) >= 1 and m^b (1-q)^(1-b) is
    the first alone where the second is under e^-100, below its rounding (as
    where m <= 0, on most lanes of a sweep), and logaddexp skips those.
    """
    v = _view(q)
    rhs = 1.0 + (beta - 1.0) * np.asarray(h_beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = q_max ** ((1.0 - beta) / beta) * rhs ** (-1.0 / beta) - 1.0
        second = beta * np.log(np.maximum(m, 1e-300)) + (1.0 - beta) * v.log1m_q
        inner = np.multiply(1.0 - beta, v.log_q, out=np.empty(np.broadcast(v.q, second).shape))
        np.logaddexp(inner, second, out=inner, where=second > -100.0)
        raw = np.exp(np.log(rhs) / beta - inner / beta)
    valid = m > 0.0
    return _override(v, raw), m, valid


def power_small_q_core(q, h_beta, beta):
    """Small-q relaxation with the plug-in cap u0 = min(1, e^a) on p itself,
    a = log((1 + (b-1) H_b) q^(b-1)) / b.  Where a < 0 its bracket
    1 + (b-1) H_b - (1-u0)^b (1-q)^(1-b) is (b-1) H_b - expm1(cap), with cap,
    the log of the term, from log1p(-u0) and at least -100: it keeps its
    digits at H_b = 0 and tiny q.  Elsewhere u0 = 1 and the bound is e^a."""
    v = _view(q)
    excess = (beta - 1.0) * np.asarray(h_beta, dtype=float)

    def capped(ex, log_q, log1m_q, u):  # the bound where a < 0
        cap = (1.0 - beta) * log1m_q + beta * np.log1p(-u)
        bracket = np.maximum(ex - np.expm1(np.maximum(cap, -100.0)), 0.0)
        low_raw = np.exp(((beta - 1.0) * log_q + np.log(np.maximum(bracket, 1e-300))) / beta)
        return np.where(bracket <= 0.0, 0.0, low_raw)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = (np.log(1.0 + excess) + (beta - 1.0) * v.log_q) / beta
        raw = np.exp(a)
        u0 = np.minimum(raw, 1.0)
        if raw.ndim == 0:  # one element: no index arrays
            if a < 0.0:
                raw = capped(excess, v.log_q, v.log1m_q, raw)
        elif (low := np.flatnonzero(a < 0.0)).size:
            raw.put(low, capped(*(np.broadcast_to(x, raw.shape).reshape(-1).take(low)
                                  for x in (excess, v.log_q, v.log1m_q, raw))))
    return _override(v, raw), u0


def bound_power_beta(
    q: float,
    h_beta: float,
    beta: float,
    mode: str = "implicit",
    q_max: float | None = None,
) -> BoundResult:
    """Power-beta divergence bounds.

    mode = "implicit": sharp inversion of the two-point constraint by
    Newton steps, on the upper side of the root.
    mode = "qmax": linear relaxation requiring an a-priori cap q_max < 1 on
    Q(E); flags ``preconditions_met`` False when the implied slope is
    nonpositive.
    mode = "small_q": relaxation with the plug-in cap u0, tightest when Q(E)
    is small.
    """
    if mode not in ("implicit", "qmax", "small_q"):
        raise ValidationError(f"unknown power mode {mode!r}")
    q = check_range(q, "q", UNIT)
    beta = check_range(beta, "beta", BETA)
    h_beta = _check_div(h_beta, "power divergence")
    if mode == "qmax" and (q_max is None or not q <= q_max < 1.0):
        raise RangeError("qmax mode needs q <= q_max < 1")
    params: dict = {"beta": beta}
    name = f"power_{mode}"
    deg = _degenerate(name, q, params)
    if deg:
        return deg
    if mode == "implicit":
        return BoundResult(name, float(power_implicit_core(q, h_beta, beta)), params)
    if mode == "qmax":
        raw, m, valid = power_qmax_core(q, h_beta, beta, q_max)
        params.update({"q_max": float(q_max), "m": float(m)})
        return BoundResult(name, float(raw), params, preconditions_met=bool(valid))
    raw, u0 = power_small_q_core(q, h_beta, beta)
    params["u0"] = float(u0)
    return BoundResult(name, float(raw), params)


# ---------------------------------------------------------------------------
# Young-Fenchel relaxation for a generic convex generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateSpec:
    """A generator's convex conjugate, for the Young-Fenchel bound, and the
    generator it is of (a DivergenceKind, or a callable f with f(1) = 0)."""

    name: str
    fstar: Callable[[float], float]
    generator: DivergenceKind | Callable | None = None


def _exp_safe(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _power_conjugate(beta: float) -> Callable[[float], float]:
    # sup_t (u t - (t^b - 1)/(b-1)) = 1/(b-1) + ((b-1) u / b)^(b/(b-1)), u >= 0
    kexp = beta / (beta - 1.0)

    def fstar(u: float) -> float:
        base = 1.0 / (beta - 1.0)
        if u <= 0.0:
            return base
        return base + _exp_safe(kexp * math.log((beta - 1.0) * u / beta))

    return fstar


def conjugate_spec_for(f) -> ConjugateSpec:
    """Closed conjugates for the chi2 / KL / power generators, numeric ones
    (:func:`numeric_conjugate`) for a callable; the spec records f."""
    if isinstance(f, DivergenceKind):
        if f.name == "chi2":
            # conjugate of the affine-normalized generator (t - 1)^2
            return ConjugateSpec("chi2", lambda u: u + 0.25 * u * u, f)
        if f.name == "kl":
            return ConjugateSpec("kl", lambda u: _exp_safe(u - 1.0), f)
        if f.name == "power":
            return ConjugateSpec(f"power({f.param:g})", _power_conjugate(f.param), f)
        raise ValidationError(f"no built-in conjugate for kind {f}")
    return ConjugateSpec(getattr(f, "__name__", "custom"), partial(numeric_conjugate, f), f)


def f_sharp_core(q, d, f):
    """sup{p >= q : q f(p/q) + (1-q) f((1-p)/(1-q)) <= d} for a convex f with
    f(1) = 0, searched down from 1 with the slope from :func:`_relative_slope`:
    q at d = 0, 1 where the constraint admits p = 1.  f is called on arrays
    (float64 scalars at one point) of t in (0, 1/q] and near them.  At p = 1
    it reads f(0) as f(1e-300), so a generator written for t > 0 serves, and
    takes no slope, so the search halves from there."""
    v = _view(q)

    def constraint(p, q):
        up, down = p / q, (1.0 - p) / (1.0 - q)
        slope = np.where(down > 0.0, _relative_slope(f, up) - _relative_slope(f, down), np.nan)
        return q * f(up) + (1.0 - q) * f(np.maximum(down, 1e-300)), slope

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = _search(constraint, v, np.asarray(d) == 0.0, 1.0, d, lambda q, d: 1.0)
    return _override(v, p)


def _fenchel_optimum(q: float, d: float, g) -> tuple[float, float, float]:
    """(p*, u, v) for generator g: the sharp root (the table's core for the
    chi2, KL and power kinds, :func:`f_sharp_core` for a callable), f' at p*/q
    and (1-p*)/(1-q).  A kind's f' is closed, f'(0) its limit; chi2's conjugate
    is of (t - 1)^2, with slope 2t - 2 at any t (its bound may exceed 1)."""
    if not isinstance(g, DivergenceKind):
        p, slope = float(f_sharp_core(q, d, g)), partial(_relative_slope, g)
    elif g.name == "chi2":
        p, slope = float(chi2_core(q, d)), lambda t: 2.0 * t - 2.0  # noqa: E731
    elif g.name in ("kl", "power"):
        p = float(kl_opt_core(q, d) if g.name == "kl" else power_implicit_core(q, d, g.param))
        zero = -math.inf if g.name == "kl" else 0.0
        slope = lambda t: generator_derivative(g, t) if t > 0.0 else zero  # noqa: E731
    else:
        raise ValidationError(f"no built-in conjugate for kind {g}")
    with np.errstate(over="ignore"):  # a slope past the float range is inf
        return p, *(float(slope(np.float64(t))) for t in (p / q, (1.0 - p) / (1.0 - q)))


def bound_young_fenchel(
    q: float,
    df: float,
    fspec: ConjugateSpec | DivergenceKind | Callable,
    u: float | None = None,
    v: float | None = None,
) -> BoundResult:
    """P(E) <= (D_f - v + q f*(u) + (1-q) f*(v)) / (u - v) for any u > v.

    With (u, v) omitted, returns the bound optimized over them, the sharp
    inversion p* = sup{p >= q : q f(p/q) + (1-q) f((1-p)/(1-q)) <= D_f}:
    at u = f'(p*/q), v = f'((1-p*)/(1-q)), which the result reports, Fenchel
    equality makes the numerator D_f - d_f(p* || q) + p* (u - v).  For the
    chi2, KL and power generators p* is ``bound_chi2``, ``bound_kl`` and
    ``bound_power_beta`` (implicit); a callable's is :func:`f_sharp_core`.
    A spec without a generator needs (u, v).
    """
    q = check_range(q, "q", UNIT)
    df = _check_div(df, "D_f")
    if not isinstance(fspec, ConjugateSpec):
        fspec = conjugate_spec_for(fspec)
    if u is None and v is None:
        if fspec.generator is None:
            raise ValidationError(f"conjugate {fspec.name!r} has no generator: give u and v")
    elif u is None or v is None:
        raise ValidationError("provide both u and v, or neither")
    elif not check_range(u, "u", REAL) > check_range(v, "v", REAL):
        raise RangeError("need u > v")
    else:
        fu, fv = fspec.fstar(u), fspec.fstar(v)
        if not (math.isfinite(fu) and math.isfinite(fv)):
            raise RangeError("conjugate not finite at the requested (u, v)")
    deg = _degenerate("young_fenchel", q, {"f": fspec.name})
    if deg:
        return deg
    if u is None:
        p, u, v = _fenchel_optimum(q, df, fspec.generator)
        return BoundResult("young_fenchel", p, {"u": u, "v": v, "f": fspec.name})
    raw = (df - v + q * fu + (1.0 - q) * fv) / (u - v)
    return BoundResult("young_fenchel", raw, {"u": float(u), "v": float(v), "f": fspec.name})


# ---------------------------------------------------------------------------
# generic f-divergence bound through the hockey-stick comparison
# ---------------------------------------------------------------------------


def _richardson_derivative(f: Callable[[float], float], t: float, h: float) -> float:
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d2 = (f(t + 0.5 * h) - f(t - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _relative_slope(f: Callable, t):
    """The Richardson derivative at t, at least 1e-300, with the step
    1e-6 max(t, 1), at most t/2: its rounding stays small against the slope
    where t is large, and f is read at positive points only."""
    t = np.maximum(t, 1e-300)
    return _richardson_derivative(f, t, np.minimum(1e-6 * np.maximum(t, 1.0), 0.5 * t))


def f_slope_gap(
    f: DivergenceKind | Callable[[float], float], gamma: float, lipschitz: float | None = None
) -> tuple[float, float]:
    """(f'(gamma0) - f'(1), gamma0) for the hockey-stick composition.

    gamma0 = gamma, or with a Lipschitz constant L for f' on [gamma, inf)
    gamma0 = gamma + sqrt(2 (f(gamma) - f'(1)(gamma - 1)) / L).
    """
    if isinstance(f, DivergenceKind):
        fprime = lambda t: generator_derivative(f, t)  # noqa: E731
        fval = lambda t: float(generator_values(f, np.asarray(t, dtype=float)))  # noqa: E731
    else:
        fprime = lambda t: float(_relative_slope(f, t))  # noqa: E731
        fval = lambda t: float(f(t))  # noqa: E731
    gamma_eff = gamma
    if lipschitz is not None:
        tilde = fval(gamma) - fprime(1.0) * (gamma - 1.0)
        gamma_eff = gamma + math.sqrt(max(2.0 * tilde / lipschitz, 0.0))
    return fprime(gamma_eff) - fprime(1.0), gamma_eff


def bound_f_via_egamma(
    q: float,
    df: float,
    f: DivergenceKind | Callable[[float], float],
    gamma: float,
    lipschitz: float | None = None,
) -> BoundResult:
    """P(E) <= gamma q + D_f / (f'(gamma) - f'(1)) for gamma > 1.

    With a Lipschitz constant L for f' on [gamma, inf), the denominator
    improves to f'(gamma0) - f'(1) (see :func:`f_slope_gap`).
    """
    q = check_range(q, "q", UNIT)
    df = _check_div(df, "D_f")
    gamma = check_range(gamma, "gamma", "(1, inf]")
    if lipschitz is not None:
        lipschitz = check_range(lipschitz, "lipschitz", "(0, inf]")

    fname = str(f) if isinstance(f, DivergenceKind) else getattr(f, "__name__", "custom")
    params: dict = {"gamma": gamma, "f": fname}
    gap, gamma_eff = f_slope_gap(f, gamma, lipschitz)
    if lipschitz is not None:
        params["gamma0"] = gamma_eff
        params["lipschitz"] = lipschitz
    params["slope_gap"] = gap
    deg = _degenerate("f_from_egamma", q, params)
    if deg:
        return deg
    if gap <= 0.0:
        return BoundResult("f_from_egamma", math.inf, params, preconditions_met=False)
    return BoundResult("f_from_egamma", float(egamma_core(q, df / gap, gamma)), params)


# ---------------------------------------------------------------------------
# reverse chi-square, reverse KL, Vincze-Le Cam
# ---------------------------------------------------------------------------


def reverse_chi2_core(q, r):
    """Upper root of (1+r) p^2 - (r + 2q) p + q^2 <= 0, r = chi^2(Q || P), the
    root of the discriminant as sqrt(r) sqrt(r + 4q(1-q)) (no underflow)."""
    v = _view(q)
    q = v.q
    r = np.broadcast_to(np.asarray(r, dtype=float), q.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        raw = (r + 2.0 * q + np.sqrt(r) * np.sqrt(r + 4.0 * q * (1.0 - q))) / (2.0 * (1.0 + r))
    raw = np.where(np.isinf(r), 1.0, raw)
    return _override(v, raw)


def bound_reverse_chi2(q: float, rchi2: float) -> BoundResult:
    return _two_point("reverse_chi2", reverse_chi2_core, q, rchi2, "chi^2(Q||P)")


def _kl_below(p, q):
    """kl(q || p) and its slope (p - q) / (p (1 - p)), for p >= q."""
    return bernoulli_kl_core(q, p), (p - q) / (p * (1.0 - p))


_TOP = np.nextafter(1.0, 0.0)


def reverse_kl_exact_core(q, d):
    """Sharp inversion: the unique p in [q, 1) with kl(q, p) = D(Q || P), on
    the upper side of the root (kl(q, p) >= D as evaluated), exactly q at
    D = 0, 1 at D = +inf, and the predecessor of 1.0 where a finite D
    exceeds kl(q, that predecessor).  Newton steps start at
    :func:`_reverse_kl_start`, above the root."""
    v = _view(q)
    d = np.broadcast_to(np.asarray(d, dtype=float), v.q.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = _search(_kl_below, v, (d == 0.0) | np.isinf(d), _TOP, d, _reverse_kl_start)
    return _override(v, np.where(d == 0.0, v.q, np.where(np.isinf(d), 1.0, root)))


def _reverse_kl_start(q, d):
    """p = 1 - e^(-z) after two steps of z <- (D + H(q) + q log(1 - e^(-z))) / (1 - q),
    which is kl(q || p) = D solved for its log(1 - p) term, from
    z = (D + H(q)) / (1 - q), where kl(q || p) >= (1 - q) z - H(q) = D.  The
    map is increasing in z with the root as its fixed point, so each step
    stays above the root.  A margin of 1 ulp of p covers the rounding of p
    near the root (without it about 2% of a sweep's starts round below)."""
    z = (d - q * np.log(q) - (1.0 - q) * np.log1p(-q)) / (1.0 - q)
    p = -np.expm1(-z)
    for _ in range(2):
        p = -np.expm1(-(z + q / (1.0 - q) * np.log(p)))
    return np.clip(p * (1.0 + 2.0**-52), q, _TOP)


def reverse_kl_explicit_core(q, d):
    """One-sided explicit bound 1 - (1-q) exp(-(D(Q||P) + q log(1/q)) / (1-q)).

    Comes from bounding the dropped two-point term by its minimum
    q log(q/p) >= q log q over p <= 1 (dropping it outright is only valid
    for p <= q and fails soundness otherwise); always at least the sharp
    kl-inversion.
    """
    v = _view(q)
    qs = v.qs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shift = np.asarray(d, dtype=float) - qs * v.log_q
        raw = -np.expm1(v.log1m_q - shift / (1.0 - qs))
    return _override(v, raw)


def invert_binary_kl(q: float, d: float) -> float:
    """The unique p in [q, 1) solving kl(q, p) = d: :func:`reverse_kl_exact_core`
    at one point, so kl(q, p) >= d unless p is the predecessor of 1.0."""
    q = check_range(q, "q", OPEN_UNIT)
    return float(reverse_kl_exact_core(q, _check_div(d)))


def bound_reverse_kl(q: float, dqp: float, mode: str = "exact") -> BoundResult:
    """Reverse-KL bounds: the sharp kl-inversion or its explicit relaxation."""
    if mode not in ("exact", "explicit"):
        raise ValidationError(f"unknown reverse-KL mode {mode!r}")
    core = reverse_kl_exact_core if mode == "exact" else reverse_kl_explicit_core
    return _two_point(f"reverse_kl_{mode}", core, q, dqp, "D(Q||P)")


def vincze_core(q, vc):
    """Upper root of the Vincze-Le Cam two-point quadratic: twice the
    reverse chi-square bound at r = vc / 2, minus q."""
    v = _view(q)
    return 2.0 * reverse_chi2_core(v, 0.5 * np.asarray(vc, dtype=float)) - v.q


def bound_vincze_lecam(q: float, vc: float) -> BoundResult:
    return _two_point("vincze_lecam", vincze_core, q, vc, "Vincze-Le Cam divergence")


# ---------------------------------------------------------------------------
# Orlicz-norm bounds
# ---------------------------------------------------------------------------


def orlicz_core(q, amemiya: float, gamma: float, spec: OrliczSpec):
    """gamma q + ||1_E||_psi amemiya, 0 at q = 0 (also where amemiya is +inf
    and the product is 0 * inf) and kept at q >= 1."""
    v = _view(q)
    with np.errstate(invalid="ignore"):
        raw = gamma * v.q + v.indicator_norm(spec) * amemiya
    return _override(v, raw, full=None)


def bound_orlicz(
    pair: AbsContPair, mask: EventMask, gamma: float, spec: OrliczSpec
) -> BoundResult:
    """P(E) <= gamma Q(E) + ||1_E||_psi^Q * ||[dP/dQ - gamma]_+||_{psi*}^{A,Q}."""
    gamma = check_range(gamma, "gamma", REAL)
    q = event_probability(pair.q, mask)
    am = amemiya_norm(pair, gamma, spec)
    params = {"gamma": gamma, "amemiya": am, "gauge": spec.name}
    if q == 0.0:
        return BoundResult("orlicz", 0.0, params, notes=("degenerate: Q(E)=0",))
    return BoundResult("orlicz", float(orlicz_core(q, am, gamma, spec)), params)


def bound_orlicz_joint(
    joint: JointFinite,
    mask: EventMask,
    gamma: float,
    psi: OrliczSpec,
    phi: OrliczSpec,
) -> BoundResult:
    """Fiberwise refinement on a joint: inner (per-output) norms over S under
    phi, outer norms over W under psi.  Power-family gauges only.

    The event mask indexes the row-major flattening of the |S| x |W| matrix.
    Zero-mass outputs are skipped and recorded in the notes.
    """
    if psi.kappa is None or phi.kappa is None:
        raise ValidationError("the joint bound supports power-family gauges only")
    gamma = check_range(gamma, "gamma", REAL)
    n_s, n_w = joint.shape
    if len(mask) != n_s * n_w:
        raise RangeError(f"mask length {len(mask)} != {n_s * n_w}")
    bits = mask.bits.reshape(n_s, n_w)
    ms = joint.matrix.sum(axis=1)
    mw = joint.matrix.sum(axis=0)
    live_w = mw > 0.0
    notes: tuple[str, ...] = ()
    if not live_w.all():
        notes = (f"skipped zero-mass outputs {np.flatnonzero(~live_w).tolist()}",)

    prod = np.outer(ms, mw)
    live = (ms > 0.0)[:, None] & live_w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(live, joint.matrix / np.where(live, prod, 1.0), 0.0)
    excess = np.maximum(ratio - gamma, 0.0)
    inner_ind = indicator_norm(ms @ bits, phi)
    inner_am = amemiya_norm_rows(excess.T, ms, phi)

    outer_ind = luxemburg_norm_values(inner_ind[live_w], mw[live_w], psi)
    outer_am = amemiya_norm_values(inner_am[live_w], mw[live_w], psi)
    q_prod = float(prod[bits].sum())
    raw = gamma * q_prod + outer_ind * outer_am
    params = {
        "gamma": gamma,
        "outer_indicator_norm": outer_ind,
        "outer_amemiya_norm": outer_am,
        "q_product": q_prod,
    }
    return BoundResult("orlicz_joint", float(raw), params, notes=notes)


# ---------------------------------------------------------------------------
# competitor bounds (prior art, used for dominance comparisons)
# ---------------------------------------------------------------------------


def comp_sq_hellinger_core(q, h2, c=None):
    """Competitor family 1 + c - c(1+c)(1 - H^2)^2 / (q + c) and its closed
    optimum, the Hellinger closed form at x = 1 - H^2 (ours has 1 - H^2/2).
    Returns (raw, valid): valid requires H^2 <= 1 and sqrt(q) <= 1 - H^2."""
    v = _view(q)
    q = v.q
    h2 = np.asarray(h2, dtype=float)
    x = 1.0 - h2
    with np.errstate(invalid="ignore"):
        valid = (x >= 0.0) & (np.sqrt(q) <= x)
        raw = _hellinger_closed(q, h2) if c is None else 1.0 + c - c * (1.0 + c) * x * x / (q + c)
    return _override(v, raw), valid


def _inverse_expm1(v: EventView, p, d, k=1.0):
    """1 / expm1(k z) at the logit gap z of p over q: inf at p = q, 0 at p = 1
    (d is not read)."""
    return 1.0 / np.expm1(k * _logit_gap(p, v.qs))


def comp_reverse_chi2_ac(q, r, c):
    """The reverse chi-square competitor family
    1 + c - (q sqrt(c) + (1-q) sqrt(1+c))^2 / (1 + r) at a fixed c > 0,
    evaluated at u = 1 - tanh t for c = sinh^2 t, where 1 + c = 1 / (u (2 - u))
    and nothing cancels as c -> inf.  Its optimum is :func:`reverse_chi2_core`,
    attained at tanh t* = e^(-z), c* = sinh^2 t* = 1 / expm1(2z)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 1.0 / ((1.0 + c) * (1.0 + np.sqrt(1.0 / (1.0 + 1.0 / c))))
        raw = (r + q * u * (2.0 - q * u)) / ((1.0 + r) * u * (2.0 - u))
        return np.where(np.isinf(r), 1.0 + c, raw)


def comp_reverse_kl_ac(q, d, c):
    """The reverse-KL competitor family 1 + c - c^q (1+c)^(1-q) e^(-d) at a
    fixed c > 0, evaluated at z = log(1 + 1/c) as (1 - e^(-qz-d)) / (1 - e^(-z)).
    Its optimum is :func:`reverse_kl_exact_core`, attained at
    log(1 + 1/c*) = z, c* = 1 / expm1(z)."""
    z = np.log1p(1.0 / c)
    with np.errstate(invalid="ignore"):
        return np.expm1(-q * z - d) / np.expm1(-z)


def comp_vincze_ac(q, vc, c):
    """The Vincze-Le Cam competitor family
    2(1 + c) - q - 4 (q sqrt(c) + (1-q) sqrt(1+c))^2 / (vc + 2) at a fixed
    c > 0: twice the reverse chi-square family at r = vc / 2, minus q.  Its
    optimum is :func:`vincze_core`, attained at that family's c* at vc / 2."""
    return 2.0 * comp_reverse_chi2_ac(q, 0.5 * np.asarray(vc, dtype=float), c) - q


def comp_power_fixed(q, h_beta, beta, s):
    """The power competitor s + amp ||((1-s)_+, (-s)_+)||_qb at a fixed shift
    s, the norm under the weights (q, 1-q), amp = (1 + (beta-1) H_beta)^(1/beta)
    and qb = beta / (beta - 1).  For s < 0, with rho = s / (s - 1) = e^-z, it
    reads (e^A - rho) / (1 - rho), A = log amp + log(q + (1-q) rho^qb) / qb,
    evaluated as -s expm1(D) with D = A + z, which does not cancel where
    e^A is close to rho: D = log amp + log(1 + q (e^(qb z) - 1)) / qb, the
    log from log1p and expm1, or from logaddexp where e^(qb z) overflows.
    Stationary in s, it is p = q / (q + (1-q) rho^(1/(beta-1))), the root of
    the implicit power constraint: its optimum is :func:`power_implicit_core`,
    at s* = -1 / expm1((beta-1) z), -inf at H_beta = 0 and 1 where p* = 1."""
    v = _view(q)
    qs, log_q = v.qs, v.log_q
    s = np.asarray(s, dtype=float)
    qb = beta / (beta - 1.0)
    log_amp = np.log1p((beta - 1.0) * np.asarray(h_beta, dtype=float)) / beta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = qb * np.log1p(-1.0 / s)
        mix = np.where(w < 700.0, np.log1p(qs * np.expm1(w)), np.logaddexp(v.log1m_q, log_q + w))
        below = -s * np.expm1(log_amp + mix / qb)
        linear = s + np.exp(log_amp + log_q / qb) * np.maximum(1.0 - s, 0.0)
        return np.where(s < 0.0, below, linear)


@dataclass(frozen=True)
class FreeParam:
    """A competitor's free parameter: its ``name``, the ``family`` at a fixed
    value, family(q, d, **params, name=value), the ``optimum`` value as a
    function of our bound p*, optimum(view, p*, d, **params), or None, and
    the ``interval`` a given value must lie in."""

    name: str
    family: Callable
    optimum: Callable | None = None
    interval: str = POSITIVE


def competitor_optimum(row: str, q, d, **params):
    """The competitor of a dominance row at its optimum, (raw, parameter):
    its table entry's core (for a checked entry the pair (raw, valid)) and
    the optimal parameter its declaration reads off that value, our bound p*
    (None where it declares none)."""
    comp = DOMINANCE_ROWS[row].competitor
    v = _view(q)
    out = comp.core(v, d, **params)
    optimum = comp.free.optimum if comp.free else None
    if optimum is None:
        return out, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return out, optimum(v, out, d, **params)


def competitor_bound(
    row: str,
    q: float,
    div: float,
    *,
    c: float | None = None,
    s: float | None = None,
    beta: float | None = None,
) -> BoundResult:
    """Best previously known bound for one divergence row.

    ``div`` is the divergence value matching the row (KL(P||Q), chi^2(P||Q),
    power-beta, squared Hellinger, chi^2(Q||P), D(Q||P), or Vincze-Le Cam).
    The row's table entry gives the params it takes: beta for the power row,
    and the free parameter it declares (c, or s for power), optimized when
    not supplied.  Any other argument raises ValidationError.
    """
    if row not in DOMINANCE_ROWS:
        raise ValidationError(f"unknown competitor row {row!r}")
    comp = DOMINANCE_ROWS[row].competitor
    free = comp.free
    given = {k: x for k, x in (("c", c), ("s", s), ("beta", beta)) if x is not None}
    extra = given.keys() - {*comp.grid[0], *([free.name] if free else [])}
    if extra:
        raise ValidationError(f"the {row} row takes no {' or '.join(sorted(extra))}")
    value = given.get(free.name) if free else None
    if value is not None:
        value = check_range(value, free.name, free.interval)
    q = check_range(q, "q", UNIT)
    div = _check_div(div)
    if comp.kind is SQUARED_HELLINGER:
        check_range(div, "squared Hellinger distance", _H2)
    case = {"beta": check_range(beta, "beta", BETA)} if "beta" in comp.grid[0] else {}
    deg = _degenerate(comp.id, q, {})
    if deg:
        return deg
    if value is None:
        out, value = competitor_optimum(row, q, div, **case)
    else:
        out = free.family(q, div, **case, **{free.name: value})
    raw, valid = out if comp.checked else (out, True)
    params = case if value is None else {**case, free.name: float(value)}
    return BoundResult(comp.id, float(raw), params, preconditions_met=bool(valid))


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """One bound: the divergence it reads and its two-point core.

    ``kind`` is a DivergenceKind or a factory from the case params (beta,
    gamma, ...); a bound that reads a pair statistic other than a divergence
    gives ``stat(r, p, q, **params)`` instead, on (batch, n) arrays of
    dP/dQ, P and Q.  ``core(q, d, **params)`` evaluates the bound at event
    masses q (or their :class:`EventView`); it returns raw values, a tuple
    led by them, or with ``checked`` the pair (raw, valid) where valid masks
    the trials whose preconditions hold.  ``grid`` holds the params of the
    master suite.

    A bound of ours may carry the prior-art ``competitor`` for its
    divergence, itself a Bound, with the ``claim`` of the comparison
    ("same", "ours" or "incomparable") and the params of its dominance
    row.  A competitor whose optimum is our bound ("same") names our core,
    so the two share one evaluation per batch; one with a free parameter
    declares it in ``free``.  ``scalar`` is the `divgauge bound` entry
    point, called as scalar(q, div, **options); its parameters after
    (q, div), less those a ``partial`` fixes, name its options.
    """

    id: str
    kind: DivergenceKind | Callable[..., DivergenceKind] | None
    core: Callable
    grid: tuple[dict, ...] = ({},)
    checked: bool = False
    stat: Callable | None = None
    competitor: Bound | None = None
    claim: str | None = None
    row_params: dict = field(default_factory=dict)
    free: FreeParam | None = None
    scalar: Callable[..., BoundResult] | None = None

    def divergence(self, params: dict) -> DivergenceKind:
        return self.kind(**params) if callable(self.kind) else self.kind

    def evaluate(self, q, d, params: dict):
        """(raw, valid) at event masses q and divergence d; valid None
        means every entry is checked."""
        out = self.core(q, d, **params)
        if self.checked:
            return out
        return (out[0] if isinstance(out, tuple) else out), None


def _grid(**axes) -> tuple[dict, ...]:
    """Every combination of the given values, first axis outermost."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


def _amemiya_norms(r, p, q, kappa, gamma):
    return amemiya_norm_rows(np.maximum(r - gamma, 0.0), q, power_orlicz(kappa))[:, None]


def _orlicz_case(q, amemiya, kappa, gamma):
    return orlicz_core(q, amemiya, gamma, power_orlicz(kappa))


def _power_qmax_case(q, h_beta, beta):
    """The q_max relaxation at the tightest admissible cap, q_max = Q(E); a
    trial whose Q(E) exceeds the largest cap, 1 - 1e-12, is not valid."""
    v = _view(q)
    # an array at every size, so that the core's power of it is numpy's
    # loop, as in a batch (** on a float64 scalar is the C library's pow)
    cap = np.asarray(np.clip(v.q, 1e-300, 1 - 1e-12))
    raw, _m, valid = power_qmax_core(v, h_beta, beta, cap)
    return raw, valid & (v.q <= cap)


def _f_kind(kind, **_):
    return _F_KINDS[kind]


def _f_hs_case(q, df, kind, gamma, lipschitz=None):
    gap, _ = f_slope_gap(_F_KINDS[kind], gamma, lipschitz)
    if gap <= 0.0:
        shape = _view(q).q.shape
        return np.full(shape, np.inf), np.zeros(shape, dtype=bool)
    return egamma_core(q, df / gap, gamma), None


_HS_GRID = _grid(gamma=(0.5, 1.0, 2.0, 5.0))
_BETA_GRID = _grid(beta=(1.5, 2.0, 4.0))
_F_GRID = _grid(kind=("chi2", "kl", "squared_hellinger"), gamma=(1.5, 2.0, 5.0)) + _grid(
    kind=("chi2",), gamma=(1.5, 2.0, 5.0), lipschitz=(2.0,)
)

# Ours, each followed by its competitor; the competitors' order is the
# row order of the dominance report.
_TABLE = (
    Bound("egamma", hockey_stick_kind, egamma_core, _HS_GRID,
          scalar=bound_egamma),
    Bound("strong_converse", None, egamma_core, _HS_GRID, stat=_tail_masses),
    Bound("kl", KL, kl_opt_core, scalar=bound_kl, claim="same",
          competitor=Bound("competitor_kl", KL, kl_opt_core, free=FreeParam(
              "c", kl_fixed_core, lambda v, p, d: _logit_gap(p, v.qs)))),
    Bound("kl_closed", KL, kl_closed_core),
    Bound("chi2", CHI2, chi2_core, scalar=bound_chi2, claim="same",
          competitor=Bound("competitor_chi2", CHI2, chi2_core)),
    Bound("power_implicit", power_kind, power_implicit_core, _BETA_GRID,
          scalar=partial(bound_power_beta, mode="implicit")),
    Bound("power_qmax", power_kind, _power_qmax_case, _BETA_GRID, checked=True,
          scalar=partial(bound_power_beta, mode="qmax")),
    Bound("power_small_q", power_kind, power_small_q_core, _BETA_GRID,
          scalar=partial(bound_power_beta, mode="small_q"),
          claim="incomparable", row_params={"beta": 2.0},
          competitor=Bound("competitor_power", power_kind, power_implicit_core, _BETA_GRID,
                           free=FreeParam("s", comp_power_fixed, lambda v, p, d, beta: np.where(
                               p >= 1.0, 1.0, -_inverse_expm1(v, p, d, beta - 1.0)), REAL))),
    Bound("hellinger", SQUARED_HELLINGER, hellinger_core, scalar=bound_hellinger, claim="ours",
          competitor=Bound("competitor_squared_hellinger", SQUARED_HELLINGER,
                           comp_sq_hellinger_core, checked=True,
                           free=FreeParam("c", comp_sq_hellinger_core))),
    Bound("f_from_egamma", _f_kind, _f_hs_case, _F_GRID, checked=True),
    Bound("orlicz", None, _orlicz_case, _grid(kappa=(1.5, 2.0, 4.0), gamma=(0.0, 1.0, 2.0)),
          stat=_amemiya_norms),
    Bound("reverse_chi2", REVERSE_CHI2, reverse_chi2_core, scalar=bound_reverse_chi2,
          claim="same",
          competitor=Bound("competitor_reverse_chi2", REVERSE_CHI2, reverse_chi2_core,
                           free=FreeParam("c", comp_reverse_chi2_ac,
                                          partial(_inverse_expm1, k=2.0)))),
    Bound("reverse_kl_exact", REVERSE_KL, reverse_kl_exact_core,
          scalar=partial(bound_reverse_kl, mode="exact"), claim="same",
          competitor=Bound("competitor_reverse_kl", REVERSE_KL, reverse_kl_exact_core,
                           free=FreeParam("c", comp_reverse_kl_ac, _inverse_expm1))),
    Bound("reverse_kl_explicit", REVERSE_KL, reverse_kl_explicit_core,
          scalar=partial(bound_reverse_kl, mode="explicit")),
    Bound("vincze_lecam", VINCZE_LECAM, vincze_core, scalar=bound_vincze_lecam, claim="same",
          competitor=Bound("competitor_vincze_lecam", VINCZE_LECAM, vincze_core,
                           free=FreeParam("c", comp_vincze_ac, lambda v, p, d: _inverse_expm1(
                               v, reverse_chi2_core(v, np.multiply(0.5, d)), d, 2.0)))),
)
BOUNDS: dict[str, Bound] = {
    b.id: b for ours in _TABLE for b in (ours, ours.competitor) if b is not None
}
# the bounds of ours with a competitor, keyed by the competitor's row name
DOMINANCE_ROWS = {b.competitor.id.removeprefix("competitor_"): b for b in _TABLE if b.competitor}
# the generators f_from_egamma composes with: every fixed kind of the table
_F_KINDS = {b.kind.name: b.kind for b in _TABLE if isinstance(b.kind, DivergenceKind)}

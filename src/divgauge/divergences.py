"""Information measures on finite pairs and joints.

Covers the f-divergence family (KL, reverse KL, chi-square, reverse
chi-square, total variation, squared Hellinger, power-beta, hockey-stick,
Vincze-Le Cam), the Renyi divergence with its power-divergence conversion,
Sibson mutual information of any order alpha > 1, maximal leakage, and the
per-output fiber constants used by the leakage-style bounds.

Values are in nats.  Infinities are first-class: a divergence that diverges
(e.g. reverse KL when P kills an atom Q keeps) evaluates to +inf, never NaN,
and never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import logsumexp
from .dist import AbsContPair, JointFinite, product_pair
from .errors import (BETA, NONNEGATIVE, OPEN_UNIT, REAL, RENYI_ORDER, SIBSON_ORDER, UNIT,
                     BoundaryError, DegenerateMarginalError, ValidationError, check_range)

# Every f-divergence kind, declared once: its generator f on arrays of t >= 0
# (with f(0) = lim f, +inf where that diverges) and the closed-form f'(t) for
# t > 0 (subgradient 0 at a kink).  `par` is the kind's parameter.
_GENERATORS = {
    "kl": (
        lambda t, par: np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0),
        lambda t, par: math.log(t) + 1.0,
    ),
    "reverse_kl": (
        lambda t, par: np.where(t > 0, -np.log(np.where(t > 0, t, 1.0)), np.inf),
        lambda t, par: -1.0 / t,
    ),
    "chi2": (
        lambda t, par: t * t - 1.0,
        lambda t, par: 2.0 * t,
    ),
    "reverse_chi2": (
        lambda t, par: np.where(t > 0, 1.0 / np.where(t > 0, t, 1.0) - 1.0, np.inf),
        lambda t, par: -1.0 / (t * t),
    ),
    "tv": (
        lambda t, par: 0.5 * np.abs(t - 1.0),
        lambda t, par: 0.0 if t == 1.0 else (0.5 if t > 1.0 else -0.5),
    ),
    "squared_hellinger": (
        lambda t, par: (1.0 - np.sqrt(t)) ** 2,
        lambda t, par: 1.0 - 1.0 / math.sqrt(t),
    ),
    "power": (
        lambda t, par: (np.power(t, par) - 1.0) / (par - 1.0),
        lambda t, par: par * t ** (par - 1.0) / (par - 1.0),
    ),
    "hockey_stick": (
        lambda t, par: np.maximum(t - par, 0.0),
        lambda t, par: 0.0 if t < par else 1.0,
    ),
    "vincze_lecam": (
        lambda t, par: (2.0 - 2.0 * t) / (t + 1.0),
        lambda t, par: -4.0 / (1.0 + t) ** 2,
    ),
}

# every kind's name, in the order `divgauge div --kind` offers them
KINDS = ("kl", "reverse_kl", "chi2", "reverse_chi2", "tv", "squared_hellinger",
         "vincze_lecam", "power", "hockey_stick", "renyi")
# the kinds with an order parameter: its name and interval
ORDER_PARAMS = {"power": ("beta", BETA), "renyi": ("alpha", RENYI_ORDER),
                "hockey_stick": ("gamma", REAL)}


@dataclass(frozen=True)
class DivergenceKind:
    """Tag (plus optional order parameter) selecting an information measure."""

    name: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.name not in KINDS:
            raise ValidationError(f"unknown divergence kind {self.name!r}")
        if self.name in ORDER_PARAMS:
            object.__setattr__(self, "param", check_range(self.param, *ORDER_PARAMS[self.name]))
        elif self.param is not None:
            raise ValidationError(f"kind {self.name!r} takes no parameter")

    def __str__(self) -> str:
        if self.param is None:
            return self.name
        return f"{self.name}({self.param:g})"


KL = DivergenceKind("kl")
REVERSE_KL = DivergenceKind("reverse_kl")
CHI2 = DivergenceKind("chi2")
REVERSE_CHI2 = DivergenceKind("reverse_chi2")
TV = DivergenceKind("tv")
SQUARED_HELLINGER = DivergenceKind("squared_hellinger")
VINCZE_LECAM = DivergenceKind("vincze_lecam")


def power_kind(beta: float) -> DivergenceKind:
    return DivergenceKind("power", beta)


def hockey_stick_kind(gamma: float) -> DivergenceKind:
    return DivergenceKind("hockey_stick", gamma)


def renyi_kind(alpha: float) -> DivergenceKind:
    return DivergenceKind("renyi", alpha)


def generator_values(kind: DivergenceKind, t) -> np.ndarray:
    """Evaluate the convex generator f on t >= 0, with f(0) = lim f.

    Entries where the limit diverges come back as +inf.
    """
    t = np.asarray(t, dtype=float)
    if kind.name not in _GENERATORS:
        raise ValidationError(f"{kind} has no pointwise generator")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _GENERATORS[kind.name][0](t, kind.param)


def generator_derivative(kind: DivergenceKind, t: float) -> float:
    """Closed-form f'(t) for t > 0 (subgradient 0 at the TV kink)."""
    check_range(t, "t", "(0, inf]")
    if kind.name not in _GENERATORS:
        raise ValidationError(f"{kind} has no pointwise generator")
    return _GENERATORS[kind.name][1](t, kind.param)


def f_divergence_from_ratios(
    ratios: np.ndarray, q: np.ndarray, kind: DivergenceKind
) -> np.ndarray:
    """sum_i f(r_i) q_i along the last axis; supports batched inputs."""
    if kind.name == "renyi":
        raise ValidationError("use renyi() for Renyi divergences")
    vals = generator_values(kind, ratios)
    with np.errstate(invalid="ignore"):
        terms = np.where(q > 0, vals * q, 0.0)
    # 0 * inf at q == 0 must vanish, inf at q > 0 must survive
    inf_mask = np.isinf(vals) & (q > 0)
    out = terms.sum(axis=-1)
    if np.any(inf_mask):
        out = np.where(inf_mask.any(axis=-1), np.inf, out)
    # the terms cancel near P = Q; a roundoff-level negative sum is 0
    return np.maximum(out, 0.0)


def f_divergence(pair: AbsContPair, kind: DivergenceKind) -> float:
    """D_f(P || Q) = sum_i f(dP/dQ)_i Q_i over the atoms with Q_i > 0."""
    return float(f_divergence_from_ratios(pair.ratios, pair.q.probs, kind))


def binary_f_divergence(p: float, q: float, kind: DivergenceKind) -> float:
    """Two-point divergence D_f(Ber(p) || Ber(q)) for q in (0, 1)."""
    check_range(q, "q", OPEN_UNIT, BoundaryError)
    check_range(p, "p", UNIT)
    ratios = np.array([p / q, (1.0 - p) / (1.0 - q)])
    masses = np.array([q, 1.0 - q])
    return float(f_divergence_from_ratios(ratios, masses, kind))


def _log_ratio(x, y, diff):
    """log(x / y) as log1p(diff / y), where diff = x - y is formed by the
    caller without cancellation; where diff / y rounds to -1 (x below an ulp
    of y) log1p returns -inf, and log(x / y) is taken instead, only in the
    rare calls that have such an element: a call at one point (0-d) reads
    its element, a batch its minimum.  At one point, where diff / y
    overflows (y subnormal), log x - log y is taken; a batch's y is never
    subnormal (``EventView`` clips it), so a batch does not look."""
    down = diff / y
    out = np.log1p(down)
    if out.ndim:
        if np.min(down, initial=np.inf) > -1.0:
            return out
        return np.where(down > -1.0, out, np.log(x / y))
    if -1.0 < down < np.inf:
        return out
    return np.log(x / y) if down <= -1.0 else np.log(x) - np.log(y)


def bernoulli_kl_core(a, b):
    """kl(a, b) elementwise, with the 0 log 0 convention; b in (0, 1).

    Each log-ratio is log1p of a ratio built from the difference a - b (see
    :func:`_log_ratio`), so kl(a, a) is exactly 0 and the value keeps its
    accuracy near a = b.  At a = 0 or 1 a term is 0 log 0, evaluated as
    0 * -inf = NaN: only calls with a NaN (the element of a call at one
    point, the minimum of a batch) set the convention's 0 there, and
    divide by zero on the way.  Callers silence that with
    ``np.errstate(divide="ignore", invalid="ignore")``, once around a whole
    search rather than on every evaluation.
    """
    t1, t2 = a * _log_ratio(a, b, a - b), (1.0 - a) * _log_ratio(1.0 - a, 1.0 - b, b - a)
    out = t1 + t2
    if np.isnan(out if out.ndim == 0 else np.min(out, initial=np.inf)):
        out = np.where(a > 0, t1, 0.0) + np.where(a < 1, t2, 0.0)
    return out


def bernoulli_kl(a: float, b: float) -> float:
    """kl(a, b) = a log(a/b) + (1-a) log((1-a)/(1-b)), with 0 log 0 = 0."""
    check_range(a, "a", UNIT)
    check_range(b, "b", OPEN_UNIT)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(bernoulli_kl_core(np.float64(a), np.float64(b)))


def renyi(pair: AbsContPair, alpha: float) -> float:
    """Renyi divergence D_alpha = log(sum r^alpha Q) / (alpha - 1), in nats."""
    alpha = check_range(alpha, "alpha", RENYI_ORDER)
    r, q = pair.ratios, pair.q.probs
    mask = (r > 0) & (q > 0)  # nonempty: some atom has P > 0, so Q > 0
    with np.errstate(divide="ignore"):
        log_terms = alpha * np.log(r[mask]) + np.log(q[mask])
    total = logsumexp(log_terms)
    return float(total / (alpha - 1.0))


def binary_renyi(p: float, q: float, alpha: float) -> float:
    """D_alpha(Ber(p) || Ber(q))."""
    q = check_range(q, "q", OPEN_UNIT, BoundaryError)
    p = check_range(p, "p", UNIT)
    alpha = check_range(alpha, "alpha", RENYI_ORDER)
    terms = []
    if p > 0:
        terms.append(alpha * math.log(p) + (1.0 - alpha) * math.log(q))
    if p < 1:
        terms.append(alpha * math.log(1.0 - p) + (1.0 - alpha) * math.log(1.0 - q))
    return logsumexp(np.array(terms)) / (alpha - 1.0)


def hellinger_to_renyi(h_beta: float, beta: float) -> float:
    """Convert the power-beta divergence value to Renyi of the same order."""
    beta = check_range(beta, "beta", "(1, inf)")
    h_beta = check_range(h_beta, "h_beta", NONNEGATIVE)
    return math.log1p((beta - 1.0) * h_beta) / (beta - 1.0)


def renyi_to_hellinger(d_alpha: float, alpha: float) -> float:
    """Inverse of :func:`hellinger_to_renyi`."""
    alpha = check_range(alpha, "alpha", "(1, inf)")
    d_alpha = check_range(d_alpha, "d_alpha", "[-inf, inf]")
    return math.expm1((alpha - 1.0) * d_alpha) / (alpha - 1.0)


def mutual_information(joint: JointFinite) -> float:
    """I(S; W) = KL(P_SW || P_S P_W)."""
    return f_divergence(product_pair(joint), KL)


def sibson_mi(joint: JointFinite, alpha: float) -> float:
    """Sibson alpha-mutual-information, alpha in (1, inf].

    Uses the closed-form optimizer of the defining minimum over output
    marginals,

        I_alpha = alpha/(alpha-1) * log sum_w (sum_s P_S(s) P(w|s)^alpha)^(1/alpha),

    which the test suite proves against direct grid minimization rather than
    taking on faith.  alpha = inf gives maximal leakage.
    """
    alpha = check_range(alpha, "alpha", SIBSON_ORDER)
    if alpha == math.inf:
        return maximal_leakage(joint)
    cond = joint.conditional_w_given_s()  # raises on zero-mass rows
    ms = joint.matrix.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_cond = np.log(cond)
        log_ms = np.log(ms)
    inner = logsumexp(log_ms[:, None] + alpha * log_cond, axis=0) / alpha
    # where W is independent of S the sum is 1 up to roundoff; I_alpha >= 0
    return max(float(alpha / (alpha - 1.0) * logsumexp(inner)), 0.0)


def maximal_leakage(joint: JointFinite) -> float:
    """log sum_w max_s P(w | s): the order-infinity Sibson information."""
    cond = joint.conditional_w_given_s()
    # the sum is at least that of one row, 1 up to roundoff
    return max(float(np.log(cond.max(axis=0).sum())), 0.0)


def fiber_constants(joint: JointFinite, alpha: float = math.inf) -> np.ndarray:
    """Per-output constants of the posterior-to-prior ratio dP_{S|W=w}/dP_S.

    alpha = inf gives M(w), the essential sup of the ratio; finite alpha > 1
    gives the alpha-norm M_alpha(w) = (E_{P_S}[ratio^alpha])^(1/alpha).
    E_{P_W}[M(W)] equals exp(maximal leakage).
    """
    alpha = check_range(alpha, "alpha", SIBSON_ORDER)
    mw = joint.matrix.sum(axis=0)
    if np.any(mw == 0.0):
        dead = np.flatnonzero(mw == 0.0).tolist()
        raise DegenerateMarginalError(f"zero-mass outputs {dead}")
    ms = joint.matrix.sum(axis=1)
    live = ms > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = joint.matrix[live] / (ms[live][:, None] * mw[None, :])
    if alpha == math.inf:
        return ratio.max(axis=0)
    with np.errstate(divide="ignore"):
        logs = np.log(ms[live])[:, None] + alpha * np.log(ratio)
    return np.exp(logsumexp(logs, axis=0) / alpha)

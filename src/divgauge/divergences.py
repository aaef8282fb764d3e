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
from .errors import (
    BoundaryError,
    DegenerateMarginalError,
    RangeError,
    ValidationError,
)

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


@dataclass(frozen=True)
class DivergenceKind:
    """Tag (plus optional order parameter) selecting an information measure."""

    name: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _GENERATORS and self.name != "renyi":
            raise ValidationError(f"unknown divergence kind {self.name!r}")
        if self.name == "power":
            if self.param is None or not 1.0 < self.param <= 50.0:
                raise RangeError("power kind requires beta in (1, 50]")
        elif self.name == "renyi":
            if self.param is None or self.param <= 0 or self.param == 1.0:
                raise RangeError("renyi kind requires alpha in (0, inf) \\ {1}")
        elif self.name == "hockey_stick":
            if self.param is None or not math.isfinite(self.param):
                raise RangeError("hockey_stick kind requires a finite gamma")
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
    return DivergenceKind("power", float(beta))


def hockey_stick_kind(gamma: float) -> DivergenceKind:
    return DivergenceKind("hockey_stick", float(gamma))


def renyi_kind(alpha: float) -> DivergenceKind:
    return DivergenceKind("renyi", float(alpha))


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
    if t <= 0:
        raise RangeError("generator derivative needs t > 0")
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
    if not 0.0 < q < 1.0:
        raise BoundaryError("binary divergence needs q in (0, 1)")
    if not 0.0 <= p <= 1.0:
        raise RangeError("p must lie in [0, 1]")
    ratios = np.array([p / q, (1.0 - p) / (1.0 - q)])
    masses = np.array([q, 1.0 - q])
    return float(f_divergence_from_ratios(ratios, masses, kind))


def _log_ratio(x, y, diff):
    """log(x / y) as log1p(diff / y), where diff = x - y is formed by the
    caller without cancellation; where diff / y rounds to -1 (x below an ulp
    of y) log1p returns -inf, and log(x / y) is taken instead, only in the
    rare calls that have such an element."""
    down = diff / y
    out = np.log1p(down)
    if np.min(down, initial=np.inf) > -1.0:
        return out
    return np.where(down > -1.0, out, np.log(x / y))


def bernoulli_kl_core(a, b):
    """kl(a, b) elementwise, with the 0 log 0 convention; b in (0, 1).

    Each log-ratio is log1p of a ratio built from the difference a - b (see
    :func:`_log_ratio`), so kl(a, a) is exactly 0 and the value keeps its
    accuracy near a = b.  At a = 0 or 1 a term is 0 log 0, evaluated as
    0 * -inf = NaN: only calls with a NaN set the convention's 0 there, and
    divide by zero on the way.  Callers silence that with
    ``np.errstate(divide="ignore", invalid="ignore")``, once around a whole
    search rather than on every evaluation.
    """
    t1, t2 = a * _log_ratio(a, b, a - b), (1.0 - a) * _log_ratio(1.0 - a, 1.0 - b, b - a)
    out = t1 + t2
    if np.isnan(np.min(out, initial=np.inf)):
        out = np.where(a > 0, t1, 0.0) + np.where(a < 1, t2, 0.0)
    return out


def bernoulli_kl(a: float, b: float) -> float:
    """kl(a, b) = a log(a/b) + (1-a) log((1-a)/(1-b)), with 0 log 0 = 0."""
    if not 0.0 <= a <= 1.0 or not 0.0 < b < 1.0:
        raise RangeError("need a in [0,1], b in (0,1)")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(bernoulli_kl_core(np.float64(a), np.float64(b)))


def renyi(pair: AbsContPair, alpha: float) -> float:
    """Renyi divergence D_alpha = log(sum r^alpha Q) / (alpha - 1), in nats."""
    if alpha <= 0 or alpha == 1.0:
        raise RangeError("Renyi order must be in (0, inf) \\ {1}")
    r, q = pair.ratios, pair.q.probs
    mask = (r > 0) & (q > 0)
    if not mask.any():
        return math.inf
    with np.errstate(divide="ignore"):
        log_terms = alpha * np.log(r[mask]) + np.log(q[mask])
    total = logsumexp(log_terms)
    return float(total / (alpha - 1.0))


def binary_renyi(p: float, q: float, alpha: float) -> float:
    """D_alpha(Ber(p) || Ber(q))."""
    if not 0.0 < q < 1.0:
        raise BoundaryError("binary divergence needs q in (0, 1)")
    if alpha <= 0 or alpha == 1.0:
        raise RangeError("Renyi order must be in (0, inf) \\ {1}")
    terms = []
    if p > 0:
        terms.append(alpha * math.log(p) + (1.0 - alpha) * math.log(q))
    if p < 1:
        terms.append(alpha * math.log(1.0 - p) + (1.0 - alpha) * math.log(1.0 - q))
    return logsumexp(np.array(terms)) / (alpha - 1.0)


def hellinger_to_renyi(h_beta: float, beta: float) -> float:
    """Convert the power-beta divergence value to Renyi of the same order."""
    if beta <= 1.0:
        raise RangeError("need beta > 1")
    if h_beta < 0:
        raise RangeError("divergence must be nonnegative")
    return math.log1p((beta - 1.0) * h_beta) / (beta - 1.0)


def renyi_to_hellinger(d_alpha: float, alpha: float) -> float:
    """Inverse of :func:`hellinger_to_renyi`."""
    if alpha <= 1.0:
        raise RangeError("need alpha > 1")
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
    if alpha == math.inf:
        return maximal_leakage(joint)
    if alpha <= 1.0:
        raise RangeError("sibson_mi needs alpha in (1, inf]")
    cond = joint.conditional_w_given_s()  # raises on zero-mass rows
    ms = joint.matrix.sum(axis=1)
    if np.any(ms == 0.0):
        raise DegenerateMarginalError("marginal of S must be strictly positive")
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
    if alpha != math.inf and alpha <= 1.0:
        raise RangeError("fiber constants need alpha in (1, inf]")
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

"""High-probability generalization bounds built on the change-of-measure layer.

The sub-Gaussian tail surrogate is theta(eta) = 2 exp(-n eta^2 / (2 sigma^2)):
a Hoeffding bound on the event mass Q(E) of E = {|gen| >= eta} under the
product law Q = P_S x P_W.  Each tail bound composes a change-of-measure
inequality with that surrogate.  Everything here is a pure formula; the
exact-enumeration experiments in :mod:`divgauge.experiments` supply the true
tails these formulas are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    BoundResult,
    chi2_core,
    hellinger_core,
    power_small_q_core,
)
from .dist import AbsContPair
from .errors import (BETA, NONNEGATIVE, OPEN_UNIT, POSITIVE, REAL, SIBSON_ORDER, RangeError,
                     ValidationError, check_count, check_range)
from .orlicz import OrliczSpec, amemiya_norm, indicator_norm
from ._optim import increasing_root


@dataclass(frozen=True)
class SubGaussianSetting:
    """Loss is sigma-sub-Gaussian; n i.i.d. samples."""

    sigma: float
    n: int

    def __post_init__(self) -> None:
        check_range(self.sigma, "sigma", POSITIVE)
        object.__setattr__(self, "n", check_count(self.n, "n"))

    def theta(self, eta: float) -> float:
        """Two-sided Hoeffding mass 2 exp(-n eta^2 / (2 sigma^2)), in [0, 2]."""
        eta = check_range(eta, "eta", "(0, inf]")
        try:
            return 2.0 * math.exp(-self.n * eta * eta / (2.0 * self.sigma**2))
        except ArithmeticError:  # sigma^2 underflows to 0 (sigma < ~1e-162) or overflows
            ratio = eta / self.sigma
            return 2.0 * math.exp(-self.n * (ratio * ratio) / 2.0)


@dataclass(frozen=True)
class BoundedLossSetting:
    """Loss takes values in [a, b]; n selector bits in the paired-sample setup."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not check_range(self.b, "b", "[-inf, inf]") > check_range(self.a, "a", "[-inf, inf]"):
            raise RangeError("need b > a")
        object.__setattr__(self, "n", check_count(self.n, "n"))

    @property
    def span(self) -> float:
        return self.b - self.a

    def theta(self, eta: float) -> float:
        """The sub-Gaussian mass at sigma = b - a."""
        return SubGaussianSetting(self.span, self.n).theta(eta)


@dataclass(frozen=True)
class DPParams:
    """(epsilon, delta) differential-privacy parameters.

    c1 and c2 are existence-only constants in the underlying guarantee; they
    are caller-supplied (default 1.0) and every consumer of these values
    should surface that caveat.
    """

    epsilon: float
    delta: float
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self) -> None:
        check_range(self.epsilon, "epsilon", "(0, 0.5]")
        check_range(self.delta, "delta", OPEN_UNIT)
        if not self.delta < self.epsilon:
            raise RangeError("need delta < epsilon")
        check_range(self.c1, "c1", "(0, inf]")
        check_range(self.c2, "c2", "(0, inf]")


@dataclass(frozen=True)
class GenTailResult:
    """All branch values of the sub-Gaussian tail bound at one eta."""

    eta: float
    theta: float
    branches: dict

    @property
    def min_value(self) -> float:
        return min(b.raw for b in self.branches.values())

    @property
    def vacuous(self) -> bool:
        return self.min_value >= 1.0


def gen_tail_bounds(
    setting: SubGaussianSetting,
    eta: float,
    *,
    gamma: float,
    e_gamma: float,
    chi2: float,
    h2: float,
    beta: float,
    h_beta: float,
) -> GenTailResult:
    """Four-branch tail bound on P(|gen(S, W)| >= eta).

    Branches: hockey-stick (gamma theta + E_gamma), chi-square, squared
    Hellinger, and the small-q power-beta relaxation, each evaluated at the
    Hoeffding surrogate theta.  gamma is taken as given, never optimized
    silently.
    """
    gamma = check_range(gamma, "gamma", REAL)
    e_gamma, chi2, h2, h_beta = (
        check_range(x, name, NONNEGATIVE)
        for x, name in ((e_gamma, "e_gamma"), (chi2, "chi2"), (h2, "h2"), (h_beta, "h_beta"))
    )
    beta = check_range(beta, "beta", BETA)
    theta = setting.theta(eta)
    q_eff = min(theta, 1.0)
    branches = {
        "hockey_stick": BoundResult(
            "gen_hockey_stick",
            float(gamma * theta + e_gamma),
            {"gamma": gamma, "theta": theta},
        ),
        "chi2": BoundResult(
            "gen_chi2", float(chi2_core(q_eff, chi2)), {"theta": theta}
        ),
        "hellinger": BoundResult(
            "gen_hellinger", float(hellinger_core(q_eff, h2)), {"theta": theta}
        ),
    }
    raw_pow, u0 = power_small_q_core(q_eff, h_beta, beta)
    branches["power"] = BoundResult(
        "gen_power", float(raw_pow), {"beta": beta, "u0": float(u0), "theta": theta}
    )
    return GenTailResult(eta, theta, branches)


def _past_overflow(theta: float, x: float, power: float = 1.0) -> float:
    """(theta e^x)^power where e^x overflows: exp(power (log theta + x)), or
    +inf where that overflows too or theta is 0, a mass that underflowed."""
    try:
        return math.exp(power * (math.log(theta) + x)) if theta > 0.0 else math.inf
    except OverflowError:
        return math.inf


def _leakage_tail(theta: float, frac: float, info: float) -> float:
    """(theta e^info)^frac as theta^frac exp(frac info): the order-alpha tail
    bound at frac = (alpha - 1) / alpha, the maximal-leakage one at frac = 1.
    Infinite information gives +inf, also where theta underflowed to 0."""
    if info == math.inf:  # exp(inf) raises nothing, and 0 * inf is NaN
        return math.inf
    try:
        return float(theta**frac * math.exp(frac * info))
    except OverflowError:
        return _past_overflow(theta, info, frac)


def gen_tail_ml(setting: SubGaussianSetting, eta: float, leakage: float) -> BoundResult:
    """P(|gen| >= eta) <= 2 exp(L(S -> W) - n eta^2 / (2 sigma^2))."""
    leakage = check_range(leakage, "leakage", NONNEGATIVE)
    theta = setting.theta(eta)
    return BoundResult("gen_maximal_leakage", _leakage_tail(theta, 1.0, leakage), {"theta": theta})


def gen_tail_ml_chi2(setting: SubGaussianSetting, eta: float, leakage: float) -> BoundResult:
    """Chi-square relaxation of the leakage bound via chi^2 <= exp(L) - 1."""
    leakage = check_range(leakage, "leakage", NONNEGATIVE)
    theta = setting.theta(eta)
    if leakage == math.inf:  # as in _leakage_tail
        return BoundResult("gen_leakage_chi2", math.inf, {"theta": theta})
    try:
        raw = theta + math.sqrt(theta * math.expm1(leakage))
    except OverflowError:  # expm1 is exp there
        raw = theta + _past_overflow(theta, leakage, 0.5)
    return BoundResult("gen_leakage_chi2", float(raw), {"theta": theta})


def gen_tail_alpha_mi(
    setting: SubGaussianSetting, eta: float, i_alpha: float, alpha: float
) -> BoundResult:
    """theta^((a-1)/a) exp((a-1)/a * I_alpha): the order-alpha tail bound.

    At alpha = inf the exponent is 1 and, with I_inf the maximal leakage,
    this is the maximal-leakage bound :func:`gen_tail_ml`.
    """
    alpha = check_range(alpha, "alpha", SIBSON_ORDER)
    i_alpha = check_range(i_alpha, "i_alpha", NONNEGATIVE)
    theta = setting.theta(eta)
    frac = 1.0 if alpha == math.inf else (alpha - 1.0) / alpha
    return BoundResult(
        "gen_alpha_mi", _leakage_tail(theta, frac, i_alpha), {"alpha": alpha, "theta": theta}
    )


def pac_bayes_bound(
    setting: SubGaussianSetting, delta: float, h_beta: float, beta: float
) -> dict:
    """Posterior-averaged generalization bound holding w.p. >= 1 - delta.

    Returns both variants: "integral" (Gaussian-integral route) and the
    tighter "holder" (direct Hoelder route); both scale as sqrt(2 sigma^2/n)
    and share the log(((beta-1) H_beta + 1)^(1/beta) / delta) term.
    """
    delta = check_range(delta, "delta", OPEN_UNIT)
    beta = check_range(beta, "beta", "(1, inf)")
    h_beta = check_range(h_beta, "h_beta", NONNEGATIVE)
    try:
        scale = math.sqrt(2.0 * setting.sigma**2 / setting.n)
    except OverflowError:  # sigma^2 past the float range
        scale = setting.sigma * math.sqrt(2.0 / setting.n)
    log_term = math.log1p((beta - 1.0) * h_beta) / beta - math.log(delta)
    integral = scale * (
        math.log(math.sqrt(math.pi * beta / (beta - 1.0)))
        + beta / (4.0 * (beta - 1.0))
        + log_term
    )
    holder = scale * (0.25 + 0.25 / (beta - 1.0) + log_term)
    return {"integral": integral, "holder": holder}


def cmi_tail_egamma(
    setting: BoundedLossSetting, eta: float, gamma: float, e_gamma_cond: float
) -> float:
    """Paired-sample tail: E_gamma(P_{WZS} || P_{W|Z} P_{ZS}) + 2 gamma
    exp(-n eta^2 / (2 (b-a)^2))."""
    gamma = check_range(gamma, "gamma", REAL)
    e_gamma_cond = check_range(e_gamma_cond, "e_gamma_cond", NONNEGATIVE)
    return e_gamma_cond + gamma * setting.theta(eta)


def cmi_tail_orlicz(
    setting: BoundedLossSetting,
    eta: float,
    gamma: float,
    pair: AbsContPair,
    spec: OrliczSpec,
) -> float:
    """Orlicz version of the paired-sample tail bound.

    ``pair`` is the (P_{WZS}, P_{W|Z} P_{ZS}) pair of a paired-sample
    experiment, either its per-atom ``pair`` or its ``class_pair`` (merging
    atoms of equal dP/dQ keeps the Amemiya norm); the indicator norm is taken
    at the Hoeffding surrogate mass, and is 0 where that mass underflows to
    0, as for events.
    """
    gamma = check_range(gamma, "gamma", REAL)
    theta = setting.theta(eta)
    am = amemiya_norm(pair, gamma, spec)
    return gamma * theta + float(indicator_norm(theta, spec)) * am


def cmi_convert(eps_fn, delta: float, setting: BoundedLossSetting) -> float:
    """Convert a paired-sample tail guarantee into a generalization bound:
    eps(delta/2) + sqrt((b-a)^2 / (2n) * log(4/delta))."""
    delta = check_range(delta, "delta", OPEN_UNIT)
    try:
        slack = math.sqrt(setting.span**2 / (2.0 * setting.n) * math.log(4.0 / delta))
    except OverflowError:  # (b - a)^2 past the float range
        slack = setting.span * math.sqrt(math.log(4.0 / delta) / (2.0 * setting.n))
    return float(eps_fn(delta / 2.0)) + slack


def dp_egamma_cap(dp: DPParams, n: int) -> tuple[float, float]:
    """(k, tau) with E_{e^k}(P_SW || P_S P_W) <= tau for an (eps, delta)-DP
    algorithm on n i.i.d. samples:

        tau = e^(-eps^2 n) + c1 n sqrt(delta / eps)
        k   = c2 (eps^2 n + n sqrt(delta / eps))
    """
    n = check_count(n, "n")
    root = n * math.sqrt(dp.delta / dp.epsilon)
    tau = math.exp(-dp.epsilon**2 * n) + dp.c1 * root
    k = dp.c2 * (dp.epsilon**2 * n + root)
    return k, tau


def dp_gen_bound(setting: SubGaussianSetting, eta: float, dp: DPParams) -> float:
    """Tail bound 2 exp(k - n eta^2 / (2 sigma^2)) + tau for DP learners.

    Precondition the library cannot check: the dataset must be drawn i.i.d.
    from a product distribution (the hockey-stick cap behind (k, tau) fails
    for correlated records).
    """
    eta = check_range(eta, "eta", OPEN_UNIT)
    k, tau = dp_egamma_cap(dp, setting.n)
    theta = setting.theta(eta)
    try:
        return theta * math.exp(k) + tau
    except OverflowError:
        return _past_overflow(theta, k) + tau


def mi_gap_constant() -> float:
    """Minimum gap between the averaged-MI bound and its competitor, in units
    of sigma / sqrt(n): 2 (sqrt(8 - 4/e) - sqrt(pi)) ~ 1.5653."""
    return 2.0 * (math.sqrt(8.0 - 4.0 / math.e) - math.sqrt(math.pi))


def _tstar(mi: float) -> float:
    target = mi + 2.0 / math.e
    hi = max(20.0, math.sqrt(target) + 2.0)

    def fn(t):  # t^2 (1 - 2 e^{-t^2}) and its slope
        e = math.exp(-t * t)
        return t * t * (1.0 - 2.0 * e), 2.0 * t * (1.0 - 2.0 * e + 2.0 * t * e * t)

    # the function is increasing and convex for t >= 1.1, which contains the
    # root, so Newton steps from above stay above it; at the root
    # t^2 = target / (1 - 2 e^{-t^2}) with t^2 >= target, so the start, where
    # t^2 = target / (1 - 2 e^{-target}), is at or above it
    start = min(max(math.sqrt(target / (1.0 - 2.0 * math.exp(-target))), 1.1), hi)
    return float(increasing_root(fn, 1.1, start, hi, target))


def avg_gen_bound_mi(setting: SubGaussianSetting, mi: float, variant: str = "closed") -> float:
    """Bound on E|gen(S, W)| in terms of I(S; W), with the prefactor
    2 sigma / sqrt(n).

    variant "closed": prefactor * (2 sqrt(I + 2/e) + sqrt(pi)).
    variant "tstar":  prefactor * (2 t (1 - e^{-t^2}) + sqrt(pi) erfc(t)) at
    the root t of t^2 (1 - 2 e^{-t^2}) = I + 2/e; always at most "closed".
    """
    mi = check_range(mi, "mi", NONNEGATIVE)
    pref = 2.0 * setting.sigma / math.sqrt(setting.n)
    if variant == "closed":
        return pref * (2.0 * math.sqrt(mi + 2.0 / math.e) + math.sqrt(math.pi))
    if variant == "tstar":
        t = _tstar(mi)
        return pref * (
            2.0 * t * (1.0 - math.exp(-t * t)) + math.sqrt(math.pi) * math.erfc(t)
        )
    raise ValidationError(f"unknown variant {variant!r}")


def avg_mi_competitor(setting: SubGaussianSetting, mi: float) -> float:
    """The decorrelation-based competitor (2 sigma / sqrt(n)) sqrt(6 (I + 4))."""
    mi = check_range(mi, "mi", NONNEGATIVE)
    return 2.0 * setting.sigma / math.sqrt(setting.n) * math.sqrt(6.0 * (mi + 4.0))

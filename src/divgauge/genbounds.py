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
from .errors import RangeError
from .orlicz import OrliczSpec, amemiya_norm, indicator_norm
from ._optim import increasing_root


@dataclass(frozen=True)
class SubGaussianSetting:
    """Loss is sigma-sub-Gaussian; n i.i.d. samples."""

    sigma: float
    n: int

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise RangeError("sigma must be positive")
        if self.n < 1:
            raise RangeError("n must be at least 1")

    def theta(self, eta: float) -> float:
        """Two-sided Hoeffding mass 2 exp(-n eta^2 / (2 sigma^2)), in (0, 2]."""
        if eta <= 0:
            raise RangeError("eta must be positive")
        return 2.0 * math.exp(-self.n * eta * eta / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class BoundedLossSetting:
    """Loss takes values in [a, b]; n selector bits in the paired-sample setup."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise RangeError("need b > a")
        if self.n < 1:
            raise RangeError("n must be at least 1")

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
        if not 0.0 < self.epsilon <= 0.5:
            raise RangeError("epsilon must lie in (0, 1/2]")
        if not 0.0 < self.delta < self.epsilon:
            raise RangeError("delta must lie in (0, epsilon)")
        if self.c1 <= 0 or self.c2 <= 0:
            raise RangeError("c1, c2 must be positive")


UNSPECIFIED_DP_CONSTANTS_NOTE = (
    "DP constants c1, c2 are existence-only; supplied values are placeholders"
)


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


def gen_tail_ml(setting: SubGaussianSetting, eta: float, leakage: float) -> BoundResult:
    """P(|gen| >= eta) <= 2 exp(L(S -> W) - n eta^2 / (2 sigma^2))."""
    if leakage < 0:
        raise RangeError("maximal leakage must be nonnegative")
    theta = setting.theta(eta)
    return BoundResult(
        "gen_maximal_leakage", float(theta * math.exp(leakage)), {"theta": theta}
    )


def gen_tail_ml_chi2(setting: SubGaussianSetting, eta: float, leakage: float) -> BoundResult:
    """Chi-square relaxation of the leakage bound via chi^2 <= exp(L) - 1."""
    if leakage < 0:
        raise RangeError("maximal leakage must be nonnegative")
    theta = setting.theta(eta)
    raw = theta + math.sqrt(theta * math.expm1(leakage))
    return BoundResult("gen_leakage_chi2", float(raw), {"theta": theta})


def gen_tail_alpha_mi(
    setting: SubGaussianSetting, eta: float, i_alpha: float, alpha: float
) -> BoundResult:
    """theta^((a-1)/a) exp((a-1)/a * I_alpha): the order-alpha tail bound.

    Recovers the maximal-leakage bound as alpha -> inf.
    """
    if alpha <= 1.0:
        raise RangeError("need alpha > 1")
    if i_alpha < 0:
        raise RangeError("I_alpha must be nonnegative")
    theta = setting.theta(eta)
    frac = (alpha - 1.0) / alpha
    raw = theta**frac * math.exp(frac * i_alpha)
    return BoundResult(
        "gen_alpha_mi", float(raw), {"alpha": alpha, "theta": theta}
    )


def pac_bayes_bound(
    setting: SubGaussianSetting, delta: float, h_beta: float, beta: float
) -> dict:
    """Posterior-averaged generalization bound holding w.p. >= 1 - delta.

    Returns both variants: "integral" (Gaussian-integral route) and the
    tighter "holder" (direct Hoelder route); both scale as sqrt(2 sigma^2/n)
    and share the log(((beta-1) H_beta + 1)^(1/beta) / delta) term.
    """
    if not 0.0 < delta < 1.0:
        raise RangeError("delta must lie in (0, 1)")
    if beta <= 1.0:
        raise RangeError("need beta > 1")
    if h_beta < 0:
        raise RangeError("H_beta must be nonnegative")
    scale = math.sqrt(2.0 * setting.sigma**2 / setting.n)
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
    if e_gamma_cond < 0:
        raise RangeError("conditional hockey-stick divergence must be nonnegative")
    return e_gamma_cond + gamma * setting.theta(eta)


def cmi_tail_orlicz(
    setting: BoundedLossSetting,
    eta: float,
    gamma: float,
    pair: AbsContPair,
    spec: OrliczSpec,
) -> float:
    """Orlicz version of the paired-sample tail bound.

    ``pair`` is the flattened (P_{WZS}, P_{W|Z} P_{ZS}) pair produced by the
    paired-sample experiment; the indicator norm is taken at the Hoeffding
    surrogate mass, and is 0 where that mass underflows to 0, as for events.
    """
    theta = setting.theta(eta)
    am = amemiya_norm(pair, gamma, spec)
    return gamma * theta + float(indicator_norm(theta, spec)) * am


def cmi_convert(eps_fn, delta: float, setting: BoundedLossSetting) -> float:
    """Convert a paired-sample tail guarantee into a generalization bound:
    eps(delta/2) + sqrt((b-a)^2 / (2n) * log(4/delta))."""
    if not 0.0 < delta < 1.0:
        raise RangeError("delta must lie in (0, 1)")
    slack = math.sqrt(setting.span**2 / (2.0 * setting.n) * math.log(4.0 / delta))
    return float(eps_fn(delta / 2.0)) + slack


def dp_egamma_cap(dp: DPParams, n: int) -> tuple[float, float]:
    """(k, tau) with E_{e^k}(P_SW || P_S P_W) <= tau for an (eps, delta)-DP
    algorithm on n i.i.d. samples:

        tau = e^(-eps^2 n) + c1 n sqrt(delta / eps)
        k   = c2 (eps^2 n + n sqrt(delta / eps))
    """
    if n < 1:
        raise RangeError("n must be at least 1")
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
    if not 0.0 < eta < 1.0:
        raise RangeError("eta must lie in (0, 1)")
    k, tau = dp_egamma_cap(dp, setting.n)
    return setting.theta(eta) * math.exp(k) + tau


def mi_gap_constant() -> float:
    """Minimum gap between the averaged-MI bound and its competitor, in units
    of sigma / sqrt(n): 2 (sqrt(8 - 4/e) - sqrt(pi)) ~ 1.5653."""
    return 2.0 * (math.sqrt(8.0 - 4.0 / math.e) - math.sqrt(math.pi))


def _tstar(mi: float) -> float:
    target = mi + 2.0 / math.e
    hi = max(20.0, math.sqrt(target) + 2.0)
    # t^2 (1 - 2 e^{-t^2}) is increasing for t >= 1.1, which contains the root
    return float(increasing_root(
        lambda t: (t * t * (1.0 - 2.0 * math.exp(-t * t)), math.nan), 1.1, hi, target
    ))


def avg_gen_bound_mi(
    setting: SubGaussianSetting,
    mi: float,
    variant: str = "closed",
    prefactor: str = "sqrt",
) -> float:
    """Bound on E|gen(S, W)| in terms of I(S; W).

    variant "closed": prefactor * (2 sqrt(I + 2/e) + sqrt(pi)).
    variant "tstar":  prefactor * (2 t (1 - e^{-t^2}) + sqrt(pi) erfc(t)) at
    the root t of t^2 (1 - 2 e^{-t^2}) = I + 2/e; always at most "closed".

    prefactor "sqrt" is 2 sigma / sqrt(n); "linear" selects the alternate
    2 sigma^2 / n scaling some statements carry.  The two disagree
    dimensionally; "sqrt" is the default.
    """
    if mi < 0:
        raise RangeError("mutual information must be nonnegative")
    if prefactor == "sqrt":
        pref = 2.0 * setting.sigma / math.sqrt(setting.n)
    elif prefactor == "linear":
        pref = 2.0 * setting.sigma**2 / setting.n
    else:
        raise RangeError(f"unknown prefactor {prefactor!r}")
    if variant == "closed":
        return pref * (2.0 * math.sqrt(mi + 2.0 / math.e) + math.sqrt(math.pi))
    if variant == "tstar":
        t = _tstar(mi)
        return pref * (
            2.0 * t * (1.0 - math.exp(-t * t)) + math.sqrt(math.pi) * math.erfc(t)
        )
    raise RangeError(f"unknown variant {variant!r}")


def avg_mi_competitor(setting: SubGaussianSetting, mi: float) -> float:
    """The decorrelation-based competitor (2 sigma / sqrt(n)) sqrt(6 (I + 4))."""
    if mi < 0:
        raise RangeError("mutual information must be nonnegative")
    return 2.0 * setting.sigma / math.sqrt(setting.n) * math.sqrt(6.0 * (mi + 4.0))

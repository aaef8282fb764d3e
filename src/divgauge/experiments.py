"""Exactly enumerable toy learning experiments.

A Gibbs learner on a finite sample alphabet is small enough to enumerate
every dataset, so the joint law of (dataset, hypothesis) is computed in
closed form, and with it every divergence and the exact generalization-error
tail, with no sampling anywhere.  These exact tails are the oracles the
generalization bounds are verified against.

The paired-sample (selector) variant enumerates the full law of
(W, Z-tilde, S) for the conditional-information bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import AbsContPair, FiniteDistribution, JointFinite, normalized, product_pair
from .divergences import (
    KL,
    f_divergence,
    hockey_stick_kind,
    maximal_leakage,
    power_kind,
    sibson_mi,
    SQUARED_HELLINGER,
    CHI2,
)
from .errors import RangeError, ResourceError, ValidationError
from .genbounds import BoundedLossSetting, SubGaussianSetting

ATOM_CAP = 20_000_000


def _digit_matrix(m: int, n: int) -> np.ndarray:
    """(m^n, n) matrix of all n-symbol strings over an m-letter alphabet,
    first symbol most significant, in the smallest unsigned dtype holding
    m - 1 (the matrix is the largest array of an enumeration)."""
    out = np.empty((m**n, n), dtype=np.min_scalar_type(m - 1))
    rest = np.arange(m**n)
    for j in range(n - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, m)
    return out


def _counts(digits: np.ndarray, m: int) -> np.ndarray:
    return np.stack([(digits == c).sum(axis=1) for c in range(m)], axis=1)


def _string_probs(counts: np.ndarray, p_z: FiniteDistribution) -> np.ndarray:
    """I.i.d. probability of each sample string, from its letter counts."""
    ps = np.exp(counts @ np.log(p_z.probs))
    return ps / ps.sum()


def _check_atoms(atoms: int) -> None:
    if atoms > ATOM_CAP:
        raise ResourceError(f"{atoms} atoms exceed the cap {ATOM_CAP}")


def _posterior(emp_loss: np.ndarray, temperature: float) -> np.ndarray:
    """Gibbs posterior over hypotheses, rows = datasets.

    temperature = inf selects the empirical minimizer, lowest index winning
    ties (deterministic).
    """
    if temperature == math.inf:
        best = np.argmin(emp_loss, axis=1)
        post = np.zeros_like(emp_loss)
        post[np.arange(emp_loss.shape[0]), best] = 1.0
        return post
    a = -temperature * emp_loss
    a -= a.max(axis=1, keepdims=True)
    w = np.exp(a)
    return w / w.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class _Learner:
    """A learner over k hypotheses on an m-letter sample alphabet, drawing
    n samples from p_z; the fields and checks both experiments share."""

    p_z: FiniteDistribution
    loss_table: np.ndarray
    n: int
    temperature: float

    def __post_init__(self) -> None:
        table = np.asarray(self.loss_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != self.p_z.size:
            raise ValidationError("loss_table must be k x |Z|")
        if not np.all(np.isfinite(table)):
            raise ValidationError("losses must be finite")
        if self.n < 1:
            raise RangeError("n must be at least 1")
        if self.temperature < 0:
            raise RangeError("temperature must be nonnegative")
        if np.any(self.p_z.probs == 0.0):
            raise ValidationError("sample distribution must be strictly positive")
        object.__setattr__(self, "loss_table", table)

    @property
    def k(self) -> int:
        return int(self.loss_table.shape[0])

    @property
    def m(self) -> int:
        return int(self.loss_table.shape[1])

    @property
    def loss_range(self) -> tuple[float, float]:
        return float(self.loss_table.min()), float(self.loss_table.max())


@dataclass(frozen=True)
class GibbsExperiment(_Learner):
    """A Gibbs learner over k hypotheses on an m-letter sample alphabet.

    loss_table is k x m with entries in [a, b]; temperature >= 0 scales the
    posterior exp(-temperature * empirical loss), with inf meaning argmin.
    """

    def sub_gaussian_setting(self) -> SubGaussianSetting:
        a, b = self.loss_range
        span = max(b - a, 1e-12)
        return SubGaussianSetting(sigma=span / 2.0, n=self.n)


class ExactTail:
    """Exact tail function eta -> P(|X| >= eta) of a finite random variable."""

    def __init__(self, values: np.ndarray, masses: np.ndarray) -> None:
        v = np.abs(np.asarray(values, dtype=float).ravel())
        w = np.asarray(masses, dtype=float).ravel()
        order = np.argsort(v)
        self._v = v[order]
        suffix = np.cumsum(w[order][::-1])[::-1]
        self._suffix = np.append(suffix, 0.0)

    def __call__(self, eta: float) -> float:
        i = int(np.searchsorted(self._v, eta, side="left"))
        return float(self._suffix[i])


@dataclass(frozen=True)
class GibbsRun:
    """Everything the exact enumeration of a Gibbs experiment produces."""

    experiment: GibbsExperiment
    joint: JointFinite
    gen_table: np.ndarray  # m^n x k matrix of gen(s, w)
    exact_tail: ExactTail

    @cached_property
    def pair(self) -> AbsContPair:
        return product_pair(self.joint)

    def divergence_panel(
        self,
        alphas: tuple[float, ...] = (2.0,),
        betas: tuple[float, ...] = (2.0,),
        gammas: tuple[float, ...] = (1.0,),
    ) -> dict:
        """Exact values of every information measure the tail bounds use."""
        pair = self.pair
        panel = {
            "mutual_information": f_divergence(pair, KL),
            "maximal_leakage": maximal_leakage(self.joint),
            "chi2": f_divergence(pair, CHI2),
            "squared_hellinger": f_divergence(pair, SQUARED_HELLINGER),
            "sibson_mi": {a: sibson_mi(self.joint, a) for a in alphas},
            "power": {b: f_divergence(pair, power_kind(b)) for b in betas},
            "hockey_stick": {
                g: f_divergence(pair, hockey_stick_kind(g)) for g in gammas
            },
        }
        return panel


def run_gibbs_experiment(exp: GibbsExperiment) -> GibbsRun:
    """Enumerate all m^n datasets and assemble the exact joint law of (S, W).

    The joint has m^n * k atoms (capped at 2e7).  gen(s, w) is the population
    risk of w minus its empirical risk on s.
    """
    m, k, n = exp.m, exp.k, exp.n
    _check_atoms(m**n * k)
    counts = _counts(_digit_matrix(m, n), m)
    ps = _string_probs(counts, exp.p_z)

    emp_loss = counts @ exp.loss_table.T / n  # (m^n, k)
    post = _posterior(emp_loss, exp.temperature)
    joint = JointFinite(ps[:, None] * post)

    pop_risk = exp.loss_table @ exp.p_z.probs  # (k,)
    gen_table = pop_risk[None, :] - emp_loss
    tail = ExactTail(gen_table, joint.matrix)
    return GibbsRun(exp, joint, gen_table, tail)


@dataclass(frozen=True)
class SuperSampleExperiment(_Learner):
    """Paired-sample variant: 2n i.i.d. draws plus n uniform selector bits.

    The learner sees the selected half Z(S), with Z_i(S_i) = Ztilde_{i + S_i n};
    the complement half Z(S-bar) uses the flipped bits.
    """

    def bounded_loss_setting(self) -> BoundedLossSetting:
        a, b = self.loss_range
        return BoundedLossSetting(a=a, b=b, n=self.n)


@dataclass(frozen=True)
class SuperSampleRun:
    experiment: SuperSampleExperiment
    pair: AbsContPair  # flattened (P_{WZS}, P_{W|Z} P_{ZS})
    gen_hat: np.ndarray  # per-atom paired generalization gap
    exact_tail: ExactTail

    def conditional_hockey_stick(self, gamma: float) -> float:
        """Exact E_gamma(P_{WZS} || P_{W|Z} P_{ZS})."""
        return f_divergence(self.pair, hockey_stick_kind(gamma))


def run_supersample_experiment(exp: SuperSampleExperiment) -> SuperSampleRun:
    """Enumerate the full law of (W, Ztilde, S) and the paired-gap tails.

    Atom count m^(2n) * 2^n * k is capped at 2e7 (practically n <= 6 at
    m = 2).  The reference law factors W from S given Ztilde by averaging the
    learner over all selectors.
    """
    m, k, n = exp.m, exp.k, exp.n
    n_z = m ** (2 * n)
    n_s = 2**n
    _check_atoms(n_z * n_s * k)

    digits = _digit_matrix(m, 2 * n)  # all super-samples
    pzt = _string_probs(_counts(digits, m), exp.p_z)

    selectors = _digit_matrix(2, n).astype(np.intp)  # all selector vectors, signed for cols + s * n
    cols = np.arange(n)

    # P(w | ztilde, s), the paired empirical losses, and the selector average
    post_by_s = np.empty((n_s, n_z, k))
    emp_sel = np.empty((n_s, n_z, k))
    emp_comp = np.empty((n_s, n_z, k))
    for j, s in enumerate(selectors):
        sel_digits = digits[:, cols + s * n]
        comp_digits = digits[:, cols + (1 - s) * n]
        emp_sel[j] = _counts(sel_digits, m) @ exp.loss_table.T / n
        emp_comp[j] = _counts(comp_digits, m) @ exp.loss_table.T / n
        post_by_s[j] = _posterior(emp_sel[j], exp.temperature)
    w_given_z = post_by_s.mean(axis=0)  # (n_z, k)

    # flatten over (s, ztilde, w)
    p_atoms = (pzt[None, :, None] / n_s) * post_by_s
    q_atoms = (pzt[None, :, None] / n_s) * np.broadcast_to(w_given_z, post_by_s.shape)
    gen_hat = emp_comp - emp_sel

    p = FiniteDistribution(normalized(p_atoms.ravel()))
    q = FiniteDistribution(normalized(q_atoms.ravel()))
    pair = AbsContPair(p, q)
    tail = ExactTail(gen_hat.ravel(), p.probs)
    return SuperSampleRun(exp, pair, gen_hat.ravel(), tail)

"""Exactly enumerable toy learning experiments.

A Gibbs learner on a finite sample alphabet is small enough to enumerate
every dataset, so the joint law of (dataset, hypothesis) is computed in
closed form, and with it every divergence and the exact generalization-error
tail, with no sampling anywhere.  These exact tails are the oracles the
generalization bounds are verified against.

The Gibbs posterior and the generalization gap depend on a dataset only
through its type, its letter counts T.  So the enumeration runs over the
C(n+m-1, m-1) types, each weighted by its multinomial mass: I(S;W) =
I(T;W), and the same holds for every f-divergence of (P_SW, P_S x P_W), for
Sibson's I_alpha and maximal leakage, and for the tail of gen(S, W).  The
dataset-level joint is derived on first read, from the per-type rows through
each string's type index.

The paired-sample (selector) variant gives the law of (W, Z-tilde, S) for
the conditional-information bounds.  Its classes are a pair type (the
letter counts of the pair-letters (Z-tilde_i, Z-tilde_{i+n})) with the type
of the selected half: dP/dQ and the paired gap are constant on each, so
E_gamma and the exact tail come from the class pair, and the per-atom pair
is derived on first read, from the half-type and pair-type rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import AbsContPair, FiniteDistribution, JointFinite, adopted_distribution, product_pair
from .divergences import (CHI2, KL, SQUARED_HELLINGER, f_divergence, hockey_stick_kind,
                          maximal_leakage, power_kind, sibson_mi)
from .errors import ResourceError, ValidationError, check_count, check_range
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


def _type_index(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The letter-count vectors (types) of n-symbol strings over an m-letter
    alphabet, and the type row of every string in the order of
    _digit_matrix, in the smallest unsigned dtype holding the row count.

    The index grows one letter at a time through a transition table (type of
    the first j letters, next letter) -> type of the first j + 1: appending
    a letter to the strings in order puts each string's m continuations
    side by side, so each letter costs one gather of the table's rows,
    np.take along axis 0: a plain row copy, several times faster than the
    same gather by advanced indexing.
    """
    types = np.zeros((1, m), dtype=np.int64)
    index = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        grown = (types[:, None, :] + np.eye(m, dtype=np.int64)).reshape(-1, m)
        types, step = np.unique(grown, axis=0, return_inverse=True)
        step = step.reshape(-1, m).astype(np.min_scalar_type(len(types) - 1))
        index = np.take(step, index, axis=0).ravel()
    return types, index


def _selected_strings(first: np.ndarray, second: np.ndarray, place: np.ndarray) -> np.ndarray:
    """The (2^n, m^(2n)) string index of the selected half of every
    (selector, super-sample), super-samples given by their halves' letters
    and place the digit weights m^(n-1), ..., 1.

    It is the first half's index with the second half's letter wherever the
    selector bit is set (the complement half holds the other letter of each
    pair).  Selector row s sets bit j where s has 2^(n-1-j), so rows h..2h-1,
    h = 2^(n-1-j), are rows 0..h-1 with bit j set: the array is filled by
    doubling, one add of a row block per bit, from row 0, the first half.
    """
    n = first.shape[1]
    out = np.empty((2**n, len(first)), dtype=np.intp)
    out[0] = first @ place
    for j in range(n - 1, -1, -1):
        h = 2 ** (n - 1 - j)
        np.add(out[:h], place[j] * (second[:, j] - first[:, j]), out=out[h:2 * h])
    return out


def _iid_weights(counts: np.ndarray, p_z: FiniteDistribution) -> np.ndarray:
    """I.i.d. probability of one sample string, from its letter counts."""
    return np.exp(counts @ np.log(p_z.probs))


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
        object.__setattr__(self, "n", check_count(self.n, "n"))
        check_range(self.temperature, "temperature", "[0, inf]")
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
        return SubGaussianSetting(sigma=max(b - a, 1e-12) / 2.0, n=self.n)


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
        i = int(np.searchsorted(self._v, check_range(eta, "eta", "[-inf, inf]"), side="left"))
        return float(self._suffix[i])


@dataclass(frozen=True)
class GibbsRun:
    """Everything the exact enumeration of a Gibbs experiment produces.

    The panel, the pair and the exact tail come from type_joint; joint, the
    same law per sample string, is derived on first read.
    """

    experiment: GibbsExperiment
    exact_tail: ExactTail
    type_joint: JointFinite  # C(n+m-1, m-1) x k law of (T, W)
    _index: np.ndarray  # the type row of each of the m^n sample strings
    _weights: np.ndarray  # i.i.d. mass of one string of each type
    _post: np.ndarray  # types x k Gibbs posterior

    @cached_property
    def pair(self) -> AbsContPair:
        return product_pair(self.type_joint)

    @cached_property
    def joint(self) -> JointFinite:
        """The m^n x k law of (S, W): one gather of the per-type rows."""
        w, index = self._weights, self._index
        rows = (w / np.take(w, index).sum())[:, None] * self._post
        return JointFinite(np.take(rows, index, axis=0))

    def divergence_panel(
        self,
        alphas: tuple[float, ...] = (2.0,),
        betas: tuple[float, ...] = (2.0,),
        gammas: tuple[float, ...] = (1.0,),
    ) -> dict:
        """Exact values of every information measure the tail bounds use."""
        pair = self.pair
        return {
            "mutual_information": f_divergence(pair, KL),
            "maximal_leakage": maximal_leakage(self.type_joint),
            "chi2": f_divergence(pair, CHI2),
            "squared_hellinger": f_divergence(pair, SQUARED_HELLINGER),
            "sibson_mi": {a: sibson_mi(self.type_joint, a) for a in alphas},
            "power": {b: f_divergence(pair, power_kind(b)) for b in betas},
            "hockey_stick": {g: f_divergence(pair, hockey_stick_kind(g)) for g in gammas},
        }


def run_gibbs_experiment(exp: GibbsExperiment) -> GibbsRun:
    """Enumerate the types of all m^n datasets and assemble the exact joint
    law of (T, W), from which the law of (S, W) is derived on first read.

    The dataset joint has m^n * k atoms (capped at 2e7).  gen(s, w) is the
    population risk of w minus its empirical risk on s.
    """
    m, k, n = exp.m, exp.k, exp.n
    _check_atoms(m**n * k)
    types, index = _type_index(m, n)
    weights = _iid_weights(types, exp.p_z)  # of one string of each type

    emp_loss = types @ exp.loss_table.T / n  # (types, k)
    post = _posterior(emp_loss, exp.temperature)
    pop_risk = exp.loss_table @ exp.p_z.probs  # (k,)
    gen = pop_risk[None, :] - emp_loss

    mass = np.bincount(index, minlength=len(types)) * weights  # multinomial
    type_joint = JointFinite(mass[:, None] / mass.sum() * post)
    tail = ExactTail(gen, type_joint.matrix)
    return GibbsRun(exp, tail, type_joint, index, weights, post)


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
    """Everything the exact enumeration of a paired-sample experiment produces.

    E_gamma and the exact tail come from class_pair; pair, the same law per
    atom (selector, super-sample, hypothesis), is derived on first read.
    """

    experiment: SuperSampleExperiment
    exact_tail: ExactTail
    class_pair: AbsContPair  # the same pair over (pair type, selected type, w)
    _sel_type: np.ndarray  # 2^n x m^(2n) selected half type of each atom
    _post_h: np.ndarray  # half types x k Gibbs posterior
    _scale: np.ndarray  # 1 x m^(2n) x k mass P(Ztilde) / 2^n, repeated over w
    _q_rows: np.ndarray  # 1 x m^(2n) x k mass P(Ztilde) P(w | Ztilde) / 2^n

    @cached_property
    def pair(self) -> AbsContPair:
        """The flattened (P_{WZS}, P_{W|Z} P_{ZS}), normalized in place."""
        p = np.take(self._post_h, self._sel_type, axis=0)
        p *= self._scale
        q = np.broadcast_to(self._q_rows, p.shape).ravel()  # a copy
        return AbsContPair(adopted_distribution(p.ravel()), adopted_distribution(q))

    def conditional_hockey_stick(self, gamma: float) -> float:
        """Exact E_gamma(P_{WZS} || P_{W|Z} P_{ZS})."""
        return f_divergence(self.class_pair, hockey_stick_kind(gamma))


def run_supersample_experiment(exp: SuperSampleExperiment) -> SuperSampleRun:
    """Enumerate the law of (W, Ztilde, S) by class and the paired-gap tails.

    A class is a pair type tau, the letter counts of the pair-letters
    (Ztilde_i, Ztilde_{i+n}), with a selected-half type t.  P(Ztilde)
    depends on Ztilde only through tau, P(w | Ztilde, S) = post(w | t), the
    selector average P(w | Ztilde) only through tau, and the gap is
    emp(total(tau) - t) - emp(t); so every f-divergence and the tail are
    those of the class pair, whose masses are exact atom counts per class.
    The string index of the selected half of every (selector, super-sample)
    is one (2^n, m^(2n)) array, filled by doubling over the selector bits
    (:func:`_selected_strings`).  The per-atom pair, over m^(2n) * 2^n * k
    atoms (capped at 2e7: n <= 7 at m = k = 2), is derived on first read
    from the same half-type and pair-type rows.
    """
    m, k, n = exp.m, exp.k, exp.n
    n_s = 2**n
    _check_atoms(m ** (2 * n) * n_s * k)

    digits = _digit_matrix(m, 2 * n).astype(np.intp)  # all super-samples
    first, second = digits[:, :n], digits[:, n:]
    place = m ** np.arange(n - 1, -1, -1)
    selected = _selected_strings(first, second, place)
    i_first, i_second = selected[0], second @ place
    half_types, half_index = _type_index(m, n)
    n_h = len(half_types)
    sel_type = half_index[selected]  # (2^n, m^(2n))
    # the pair type of a super-sample is its sorted pair-letters (x_i, y_i)
    pair_key = np.sort(first * m + second, axis=1) @ place**2
    _, rep, tau = np.unique(pair_key, return_index=True, return_inverse=True)

    emp_h = half_types @ exp.loss_table.T / n  # (half types, k)
    post_h = _posterior(emp_h, exp.temperature)
    # row t * n_h + c: the gap emp(c) - emp(t) of selected type t, complement c
    gap = (emp_h[None, :, :] - emp_h[:, None, :]).reshape(-1, k)
    # the super-samples of one pair type share their letter counts and, over
    # the 2^n selectors, their selected and complement types; one of each
    # pair type gives the class rows
    sel_rep = sel_type[:, rep].astype(np.intp)
    comp_rep = half_index[i_first[rep] + i_second[rep] - selected[:, rep]]
    totals = half_types[half_index[i_first[rep]]] + half_types[half_index[i_second[rep]]]
    weights = _iid_weights(totals, exp.p_z)  # of one super-sample of each pair type
    w_given_tau = np.take(post_h, sel_rep, axis=0).mean(axis=0)  # P(w | Ztilde)
    pz = weights[tau]
    total = pz.sum()

    # a class is a pair type with one selected type: its selectors merged
    _, at, mult = np.unique(
        (np.arange(len(rep)) * n_h + sel_rep).ravel(), return_index=True, return_counts=True
    )
    c_tau, c_t, c_comp = at % len(rep), sel_rep.ravel()[at], comp_rep.ravel()[at]
    count = np.bincount(tau)[c_tau] * mult  # atoms (s, ztilde) per class
    mass = (count * (weights[c_tau] / total / n_s))[:, None]
    class_pair = AbsContPair(adopted_distribution((mass * post_h[c_t]).ravel()),
                             adopted_distribution((mass * w_given_tau[c_tau]).ravel()))
    tail = ExactTail(gap[c_t * n_h + c_comp], class_pair.p.probs)

    # repeated over w: its product with the posterior rows runs along one axis
    scale = np.repeat((pz / total)[None, :, None] / n_s, k, axis=2)
    return SuperSampleRun(exp, tail, class_pair, sel_type, post_h, scale,
                          scale * w_given_tau[tau])

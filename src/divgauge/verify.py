"""Exact verification harness: exhaustive-event oracles for every bound.

The defining contract of a change-of-measure bound is P(E) <= xi(Q(E), dP/dQ)
for *every* event E.  On supports of size n <= 16 that is checkable by brute
force: enumerate all 2^n events, evaluate the bound, and record the worst
slack.  This module implements that oracle, a seeded random-pair generator,
the variational identities, the mixture tightness witness, the dominance
comparisons, and a deliberately broken bound used as a negative control of
the harness itself.

Trials are reproducible: pair i of a suite with seed s draws from the RNG
stream seeded by (s, i), so any violation report pins down its instance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as B
from .dist import (
    EXHAUSTIVE_LIMIT,
    AbsContPair,
    FiniteDistribution,
    JointFinite,
    absorb_rounding,
    adopted_joint,
    check_masses,
    dominated_ratios,
    event_mask_matrix,
    event_probability,
    normalized,
)
from .divergences import CHI2, DivergenceKind, f_divergence_from_ratios
from .errors import (OPEN_UNIT, REAL, UNIT, ResourceError, UnknownBoundError, check_count,
                     check_range)

SLACK_TOL = 1e-9
SAMPLED_EVENTS = 100_000
DOMINANCE_TOL = 1e-10  # how far ours may exceed the competitor and still count as tighter


# ---------------------------------------------------------------------------
# seeded instance generation
# ---------------------------------------------------------------------------


def _pair_masses(seed, indices, support: int, zero_prob: float):
    """Normalized (len(indices), support) rows p and q of the pairs at
    `indices`, not yet validated.

    Pair i draws from the stream seeded by (seed, i): Q's uniforms, P's
    uniforms, then a coin that with probability `zero_prob` zeroes a random
    nonempty strict subset of P's atoms (none at support 1, which has no such
    subset).  Each row is the normalized exponentials of its uniforms, with
    its rounding remainder at its largest atom.
    """
    support = check_count(support, "support")
    check_range(zero_prob, "zero_prob", UNIT)
    indices = list(indices)
    u = np.empty((2, len(indices), support))  # Q's rows, then P's
    dead = np.zeros((len(indices), support), dtype=bool)
    for row, index in enumerate(indices):
        rng = np.random.default_rng((seed, index))
        rng.random(out=u[0, row])
        rng.random(out=u[1, row])
        if rng.random() < zero_prob and support > 1:
            n_zero = int(rng.integers(1, support))
            dead[row, rng.choice(support, size=n_zero, replace=False)] = True
    w = -np.log(u)
    w[1][dead] = 0.0  # after the log: a uniform set to 1 would give -0.0
    q, p = normalized(w)
    return p, q


def random_pair_rows(seed, indices, support: int, zero_prob: float = 0.2):
    """The pairs ``random_pair`` draws at `indices`, as (len(indices),
    support) arrays p, q and r = dP/dQ, each row checked as
    ``AbsContPair`` checks its pair."""
    p, q = _pair_masses(seed, indices, support, zero_prob)
    check_masses(q)
    check_masses(p)
    return p, q, dominated_ratios(p, q)


def random_pair(seed, index: int, support: int, zero_prob: float = 0.2) -> AbsContPair:
    """Reproducible random pair: Dirichlet-style masses from normalized
    exponentials of seeded uniforms; with probability `zero_prob` a strict
    subset of P's atoms is zeroed to exercise the f(0) conventions.  The
    row of ``random_pair_rows`` at `index`."""
    p, q = _pair_masses(seed, [index], support, zero_prob)
    return AbsContPair(FiniteDistribution(p[0]), FiniteDistribution(q[0]))


def random_joint(seed, index: int, n_s: int, n_w: int) -> JointFinite:
    rng = np.random.default_rng((seed, index))
    m = -np.log(rng.random((n_s, n_w)))
    return adopted_joint(m / m.sum())


# ---------------------------------------------------------------------------
# batched pair context
# ---------------------------------------------------------------------------


class PairBatch:
    """Vectorized view of several pairs against a shared event-mask matrix."""

    def __init__(self, p: np.ndarray, q: np.ndarray, r: np.ndarray, masks: np.ndarray) -> None:
        self.p = p
        self.q = q
        self.r = r
        mf = masks.astype(float)
        self.p_events = p @ mf.T
        self.q_events = q @ mf.T
        self.events = B.EventView(self.q_events)  # shared by every case's core
        self._div_cache: dict = {}
        self._case_cache: dict = {}

    @classmethod
    def from_pairs(cls, pairs: list[AbsContPair], masks: np.ndarray) -> "PairBatch":
        p = np.stack([pr.p.probs for pr in pairs])
        q = np.stack([pr.q.probs for pr in pairs])
        return cls(p, q, np.stack([pr.ratios for pr in pairs]), masks)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_events.shape  # (batch, events)

    def div(self, kind: DivergenceKind) -> np.ndarray:
        """Column vector (batch, 1) of divergence values for broadcasting."""
        key = (kind.name, kind.param)
        if key not in self._div_cache:
            vals = f_divergence_from_ratios(self.r, self.q, kind)
            self._div_cache[key] = np.atleast_1d(vals).reshape(-1, 1)
        return self._div_cache[key]


# ---------------------------------------------------------------------------
# bound registry, derived from the bound table
# ---------------------------------------------------------------------------

Evaluator = Callable[..., tuple[np.ndarray, np.ndarray | None]]
NEGATIVE_CONTROL = "chi2_missing_sqrt"


def _evaluator(spec: B.Bound) -> Evaluator:
    def evaluate(b: PairBatch, **params):
        d = spec.stat(b.r, b.p, b.q, **params) if spec.stat else b.div(spec.divergence(params))
        return spec.evaluate(b.events, d, params)

    return evaluate


def _shared(bound_id: str, evaluate: Evaluator, readers: int) -> Evaluator:
    """Evaluate once per batch: every entry of the table with the same
    formula reads these values instead of computing them again.  The batch
    holds them until the last of the `readers` entries has read them."""

    def once(b: PairBatch, **params):
        key = (bound_id, tuple(sorted(params.items())))
        values, unread = b._case_cache.pop(key, None) or (evaluate(b, **params), readers)
        if unread > 1:
            b._case_cache[key] = values, unread - 1
        return values

    return once


def _chi2_missing_sqrt(b: PairBatch):
    # deliberately wrong (sqrt dropped): negative control for the harness
    q = b.q_events
    return q + q * (1.0 - q) * b.div(CHI2), None


def _registry() -> dict[str, Evaluator]:
    """An evaluator per bound of the table; entries with the same core,
    divergence, statistic and ``checked`` share one evaluation per batch.
    Only those are cached, each until its last reader: caching every case
    would hold a (batch, events) array per case."""
    formulas: dict[tuple, list[B.Bound]] = {}
    for spec in B.BOUNDS.values():
        formulas.setdefault((spec.core, spec.kind, spec.stat, spec.checked), []).append(spec)
    registry: dict[str, Evaluator] = {}
    for specs in formulas.values():
        evaluate = _evaluator(specs[0])
        if len(specs) > 1:
            evaluate = _shared(specs[0].id, evaluate, len(specs))
        registry.update((spec.id, evaluate) for spec in specs)
    registry[NEGATIVE_CONTROL] = _chi2_missing_sqrt
    return registry


# read at call time, so its entries can be wrapped
_REGISTRY: dict[str, Evaluator] = _registry()


def registered_bounds() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def default_cases() -> list[tuple[str, dict]]:
    """The master-suite grid: every bound of the table at its default params."""
    return [(spec.id, dict(params)) for spec in B.BOUNDS.values() for params in spec.grid]


def case_label(bound_id: str, params: dict) -> str:
    if not params:
        return bound_id
    inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in sorted(params.items()))
    return f"{bound_id}[{inner}]"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of checking one bound against enumerated events."""

    bound: str
    trials: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    seed: int | None = None
    witness: dict | None = None

    def absorb(
        self, slack: np.ndarray, valid: np.ndarray | None, pair_indices: np.ndarray
    ) -> None:
        """Count the (pair, event) trials where `valid` holds (all where it
        is None) and their violations, and keep the first smallest slack,
        NaN ranked smallest of all, as the witness if it beats the last."""
        if valid is None:
            n_valid, ranked = slack.size, slack
        else:
            n_valid = int(np.count_nonzero(np.broadcast_to(valid, slack.shape)))
            ranked = np.where(valid, slack, np.inf)
        self.trials += n_valid
        if n_valid == 0:
            return
        flat = int(np.argmin(ranked))
        if np.isnan(ranked.flat[flat]):
            # argmin stops at the first NaN: a NaN at a checked position is
            # a violation, ranked worst of all
            ranked = np.where(np.isnan(ranked), -np.inf, ranked)
            flat = int(np.argmin(ranked))
        worst = float(ranked.flat[flat])
        # no slack is below -SLACK_TOL unless the smallest one is
        if worst < -SLACK_TOL:
            self.violations += int(np.count_nonzero(ranked < -SLACK_TOL))
        if worst < self.worst_slack:
            i, j = np.unravel_index(flat, slack.shape)
            self.worst_slack = worst
            self.witness = {
                "pair_index": int(pair_indices[i]),
                "event_code": int(j),
                "slack": float(slack[i, j]),
            }

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        if other.trials == 0:
            return self
        self.trials += other.trials
        self.violations += other.violations
        if other.worst_slack < self.worst_slack:
            self.worst_slack = other.worst_slack
            self.witness = other.witness
        return self

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "trials": self.trials,
            "violations": self.violations,
            "worst_slack": None if self.worst_slack == math.inf else self.worst_slack,
            "seed": self.seed,
            "witness": self.witness,
        }


def _evaluate_cases(
    batch: PairBatch,
    cases: list[tuple[str, dict]],
    pair_indices: np.ndarray,
    seed: int | None,
) -> dict[str, VerificationReport]:
    out: dict[str, VerificationReport] = {}
    slack = np.empty(batch.shape)  # each case's slack, over the last one's
    for bound_id, params in cases:
        if bound_id not in _REGISTRY:
            raise UnknownBoundError(bound_id)
        values, valid = _REGISTRY[bound_id](batch, **params)
        with np.errstate(invalid="ignore"):
            np.subtract(values, batch.p_events, out=slack)
        label = case_label(bound_id, params)
        rep = out.setdefault(label, VerificationReport(label, seed=seed))
        rep.absorb(slack, valid, pair_indices)
    return out


def verify_com_bound(
    pair: AbsContPair,
    bound_id: str,
    params: dict | None = None,
    *,
    seed: int = 0,
) -> VerificationReport:
    """Check one bound against every event of one pair (exhaustive up to
    support 16, seeded uniform event sampling beyond)."""
    n = pair.size
    if n <= EXHAUSTIVE_LIMIT:
        masks = event_mask_matrix(n)
    else:
        rng = np.random.default_rng(seed)
        masks = rng.random((SAMPLED_EVENTS, n)) < 0.5
        masks[0] = False
        masks[1] = True
    batch = PairBatch.from_pairs([pair], masks)
    reports = _evaluate_cases(batch, [(bound_id, params or {})], np.array([0]), seed)
    return next(iter(reports.values()))


def master_soundness(
    n_pairs: int = 10_000,
    support: int = 8,
    seed: int = 42,
    cases: list[tuple[str, dict]] | None = None,
    jobs: int = 1,
    batch_size: int = 500,
) -> dict[str, VerificationReport]:
    """The master suite: seeded random pairs x all events x all bounds."""
    n_pairs = check_count(n_pairs, "n_pairs")
    support = check_count(support, "support")
    batch_size = check_count(batch_size, "batch_size")
    if support > EXHAUSTIVE_LIMIT:
        raise ResourceError("master suite is exhaustive; support must be <= 16")
    cases = default_cases() if cases is None else cases
    chunks = [
        (seed, start, min(batch_size, n_pairs - start), support, cases)
        for start in range(0, n_pairs, batch_size)
    ]
    merged: dict[str, VerificationReport] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = pool.map(_master_chunk, chunks)
            for part in parts:
                _merge_into(merged, part)
    else:
        for chunk in chunks:
            _merge_into(merged, _master_chunk(chunk))
    return merged


def _master_chunk(args) -> dict[str, VerificationReport]:
    seed, start, count, support, cases = args
    indices = np.arange(start, start + count)
    batch = PairBatch(*random_pair_rows(seed, range(start, start + count), support),
                      event_mask_matrix(support))
    return _evaluate_cases(batch, cases, indices, seed)


def _merge_into(acc: dict[str, VerificationReport], part: dict[str, VerificationReport]) -> None:
    for key, rep in part.items():
        if key in acc:
            acc[key].merge(rep)
        else:
            acc[key] = rep


# ---------------------------------------------------------------------------
# variational identities and other oracles
# ---------------------------------------------------------------------------


def _all_events(pair: AbsContPair, check: str) -> np.ndarray:
    """The (2^n, n) mask matrix of every event of the pair, for an
    exhaustive `check`."""
    if pair.size > EXHAUSTIVE_LIMIT:
        raise ResourceError(f"{check} is exhaustive; support <= {EXHAUSTIVE_LIMIT}")
    return event_mask_matrix(pair.size)


def _event_masses(pair: AbsContPair, check: str) -> tuple[np.ndarray, np.ndarray]:
    """(P(E), Q(E)) over every event of the pair."""
    masks = _all_events(pair, check).astype(float)
    return pair.p.probs @ masks.T, pair.q.probs @ masks.T


def verify_egamma_variational(pair: AbsContPair, gamma: float) -> dict:
    """Exhaustively check sup_E (P(E) - gamma Q(E)) against the integral
    sum_i [r_i - gamma]_+ Q_i; also reports the absolute-value supremum."""
    check_range(gamma, "gamma", REAL)
    p_e, q_e = _event_masses(pair, "variational check")
    signed = p_e - gamma * q_e
    integral = float(np.maximum(pair.ratios - gamma, 0.0) @ pair.q.probs)
    best = int(np.argmax(signed))
    return {
        "gamma": gamma,
        "signed_sup": float(signed.max()),
        "integral": integral,
        "abs_sup": float(np.abs(signed).max()),
        "gap": float(signed.max() - integral),
        "witness_event": best,
    }


def approx_max_info(pair: AbsContPair, tau: float) -> float:
    """log sup over events with P(E) > tau of (P(E) - tau) / Q(E), by
    exhaustive enumeration."""
    check_range(tau, "tau", "[0, 1)")
    p_e, q_e = _event_masses(pair, "approximate max-information")
    hot = p_e > tau
    if not hot.any():
        return -math.inf
    with np.errstate(divide="ignore"):
        ratio = np.where(q_e[hot] > 0, (p_e[hot] - tau) / np.where(q_e[hot] > 0, q_e[hot], 1.0), np.inf)
    return float(np.log(ratio.max()))


def binary_tightness_witness(
    p: float, q: float, atoms_per_block: int, seed: int = 0
) -> AbsContPair:
    """Mixture pair P = p R1 + (1-p) R0, Q = q R1 + (1-q) R0 with R1, R0 on
    disjoint atom blocks.  Its ratio is two-valued, so every divergence of
    the pair equals the corresponding two-point divergence at (p, q)."""
    check_range(p, "p", OPEN_UNIT)
    check_range(q, "q", OPEN_UNIT)
    atoms_per_block = check_count(atoms_per_block, "atoms_per_block")
    rng = np.random.default_rng(seed)
    r1 = -np.log(rng.random(atoms_per_block))
    r0 = -np.log(rng.random(atoms_per_block))
    r1 /= r1.sum()
    r0 /= r0.sum()
    pv = absorb_rounding(np.concatenate([p * r1, (1.0 - p) * r0]))
    qv = absorb_rounding(np.concatenate([q * r1, (1.0 - q) * r0]))
    return AbsContPair(FiniteDistribution(pv), FiniteDistribution(qv))


def _dominance_rows(q, divergence):
    """Ours against the competitor, one row per competitor of the bound table.

    `q` holds the event masses and `divergence(kind)` gives a divergence of
    the pair.  Yields (row, claim, d, ours, competitor, valid); ours and
    competitor are None where d is infinite, valid is the competitor's
    precondition mask (None when it always holds).
    """
    for row, ours in B.DOMINANCE_ROWS.items():
        params = ours.row_params
        d = float(divergence(ours.divergence(params)))
        if not math.isfinite(d):
            yield row, ours.claim, d, None, None, None
            continue
        ours_v, _ = ours.evaluate(q, d, params)
        if ours.claim == "same":
            comp_v, valid = ours_v, None
        else:
            comp_v, valid = ours.competitor.evaluate(q, d, params)
        yield row, ours.claim, d, ours_v, comp_v, valid


def dominance_report(pair: AbsContPair) -> list[dict]:
    """Ours-vs-competitor comparison per divergence row, over all events.

    Claims: a "same" row's competitor at its optimum is our bound (KL, chi^2,
    reverse chi^2, reverse KL, Vincze-Le Cam), so it is not evaluated again
    and reports 0.0; the "ours" row (squared Hellinger) must never exceed
    the competitor by more than DOMINANCE_TOL; the power row is reported
    without a claim.  Rows with infinite divergence are marked not applicable.
    """
    batch = PairBatch.from_pairs([pair], _all_events(pair, "dominance report"))
    rows = []
    for row, claim, d, ours, comp, valid in _dominance_rows(
        batch.events, lambda kind: batch.div(kind)[0, 0]
    ):
        entry = {"row": row, "claim": claim, "applicable": ours is not None, "events": 0,
                 "divergence": None, "max_ours_minus_competitor": None, "ours_tighter_or_equal": 0}
        if ours is not None:
            diff = (np.asarray(ours, dtype=float) - np.asarray(comp, dtype=float)).ravel()
            valid = np.ones(diff.shape, dtype=bool) if valid is None else np.asarray(valid).ravel()
            n_valid = int(valid.sum())
            entry.update(
                events=n_valid,
                divergence=d,
                max_ours_minus_competitor=float(diff[valid].max()) if n_valid else None,
                ours_tighter_or_equal=int(((diff <= DOMINANCE_TOL) & valid).sum()),
            )
        rows.append(entry)
    return rows


def dominance_rows_at_event(pair: AbsContPair, mask) -> list[dict]:
    """Ours vs competitor vs the true P(E) for one event, one row per
    divergence family."""
    p = event_probability(pair.p, mask)
    q = event_probability(pair.q, mask)
    rows = []
    for row, claim, d, ours, comp, valid in _dominance_rows(
        B.EventView(q), lambda kind: f_divergence_from_ratios(pair.ratios, pair.q.probs, kind)
    ):
        applicable = ours is not None and (valid is None or bool(np.asarray(valid).reshape(())))
        entry = {"row": row, "divergence": d if math.isfinite(d) else None, "p": p, "q": q,
                 "ours": None, "competitor": None, "tighter": None, "claim": claim,
                 "applicable": applicable}
        if applicable:
            ours_v = float(np.asarray(ours).reshape(()))
            comp_v = float(np.asarray(comp).reshape(()))
            entry.update(ours=ours_v, competitor=comp_v, tighter=bool(ours_v <= comp_v + DOMINANCE_TOL))
        rows.append(entry)
    return rows


def harness_self_test(n_pairs: int = 50, support: int = 6, seed: int = 7) -> VerificationReport:
    """Run the deliberately broken chi-square bound; a healthy harness must
    flag violations (> 0)."""
    n_pairs = check_count(n_pairs, "n_pairs")
    support = check_count(support, "support")
    indices = np.arange(n_pairs)
    batch = PairBatch(*random_pair_rows(seed, range(n_pairs), support, zero_prob=0.0),
                      event_mask_matrix(support))
    return _evaluate_cases(batch, [(NEGATIVE_CONTROL, {})], indices, seed)[NEGATIVE_CONTROL]

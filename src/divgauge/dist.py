"""Finite probability spaces: distributions, dominated pairs, events, joints.

Everything downstream (divergences, bounds, experiments) consumes the four
types defined here.  All types are immutable after construction; arrays are
copied in and marked read-only, so values can be shared across threads.

Conventions
-----------
* Masses are 64-bit floats; validation tolerances are 1e-12 absolute unless
  stated otherwise.
* Zero-mass atoms are kept in the support, never pruned, so event masks stay
  index-stable across P and Q.
* ``AbsContPair.ratios`` holds dP/dQ on atoms with Q > 0 and 0.0 on atoms
  with Q = 0 (where absolute continuity forces P = 0 as well).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateMarginalError,
    DominationError,
    ResourceError,
    ShapeError,
    ValidationError,
)

MASS_TOL = 1e-12
JOINT_SUM_TOL = 1e-9
EXHAUSTIVE_LIMIT = 16  # largest support whose 2^n masks are held as one matrix


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector on a labeled finite support.

    Masses must be nonnegative and sum to 1 within 1e-12; use
    :func:`make_distribution` to build one from unnormalized weights.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ShapeError("probs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("masses must be finite")
        if np.any(p < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(
                f"masses sum to {p.sum()!r}, not 1 within {MASS_TOL}"
            )
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != p.size:
                raise ShapeError("labels length must match support size")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.size

    def to_json(self) -> str:
        obj: dict = {"probs": [float(x) for x in self.probs]}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiniteDistribution":
        obj = json.loads(text)
        labels = tuple(obj["labels"]) if "labels" in obj else None
        return cls(np.asarray(obj["probs"], dtype=float), labels)


def make_distribution(weights, labels=None) -> FiniteDistribution:
    """Normalize nonnegative weights into a FiniteDistribution.

    Raises ValidationError for negative, non-finite, or all-zero weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError("weights must be a nonempty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0:
        raise ValidationError("at least one weight must be positive")
    return FiniteDistribution(normalized(w), tuple(labels) if labels is not None else None)


@dataclass(frozen=True)
class AbsContPair:
    """A dominated pair (P, Q) on a shared support, with dP/dQ precomputed."""

    p: FiniteDistribution
    q: FiniteDistribution
    ratios: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.p.size != self.q.size:
            raise ShapeError(
                f"support mismatch: |P| = {self.p.size}, |Q| = {self.q.size}"
            )
        pv, qv = self.p.probs, self.q.probs
        bad = (qv == 0.0) & (pv > 0.0)
        if np.any(bad):
            where = np.flatnonzero(bad).tolist()
            raise DominationError(f"P is not dominated by Q at atoms {where}")
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(qv > 0.0, pv / np.where(qv > 0.0, qv, 1.0), 0.0)
        if abs(float((r * qv).sum()) - 1.0) > MASS_TOL:
            raise ValidationError("ratios * Q does not sum back to 1")
        object.__setattr__(self, "ratios", _frozen(r))

    @property
    def size(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class EventMask:
    """Subset indicator over the support indices."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 1:
            raise ShapeError("bits must be 1-D")
        b = b.astype(bool).copy()
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    @classmethod
    def from_indices(cls, indices, size: int) -> "EventMask":
        b = np.zeros(size, dtype=bool)
        b[list(indices)] = True
        return cls(b)

    @classmethod
    def from_int(cls, code: int, size: int) -> "EventMask":
        """Bit i of `code` (LSB first) selects atom i."""
        if code < 0 or code >= (1 << size):
            raise ValidationError(f"mask code {code} out of range for size {size}")
        return cls((code >> np.arange(size)) & 1)

    @classmethod
    def full(cls, size: int) -> "EventMask":
        return cls(np.ones(size, dtype=bool))

    @classmethod
    def empty(cls, size: int) -> "EventMask":
        return cls(np.zeros(size, dtype=bool))

    def __len__(self) -> int:
        return int(self.bits.size)

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def to_int(self) -> int:
        return int((self.bits * (1 << np.arange(len(self), dtype=object))).sum())


def event_probability(dist: FiniteDistribution, mask: EventMask) -> float:
    """Total mass of the atoms selected by the mask."""
    if len(mask) != dist.size:
        raise ShapeError(
            f"mask length {len(mask)} != support size {dist.size}"
        )
    return float(dist.probs[mask.bits].sum())


@lru_cache(maxsize=32)
def event_mask_matrix(support_size: int) -> np.ndarray:
    """(2^n, n) boolean matrix of all event masks; cached, n <= EXHAUSTIVE_LIMIT."""
    n = int(support_size)
    if n > EXHAUSTIVE_LIMIT:
        raise ResourceError(f"mask matrix is limited to support size {EXHAUSTIVE_LIMIT}")
    codes = np.arange(1 << n, dtype=np.uint32)[:, None]
    m = ((codes >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(bool)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class JointFinite:
    """Finite joint law on S x W with marginals and conditionals.

    The matrix is |S| x |W|, entrywise nonnegative, and sums to 1 (inputs
    within 1e-9 of 1 are renormalized exactly).  Conditionals at zero-mass
    rows/columns raise DegenerateMarginalError rather than imputing.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ShapeError("joint matrix must be 2-D and nonempty")
        if not np.all(np.isfinite(m)):
            raise ValidationError("joint entries must be finite")
        if np.any(m < 0):
            raise ValidationError("joint entries must be nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise ValidationError(
                f"joint mass {total!r} is not 1 within {JOINT_SUM_TOL}"
            )
        m = m / total
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.matrix.shape)  # type: ignore[return-value]

    @property
    def marginal_s(self) -> FiniteDistribution:
        row = self.matrix.sum(axis=1)
        row = row / row.sum()
        return FiniteDistribution(row)

    @property
    def marginal_w(self) -> FiniteDistribution:
        col = self.matrix.sum(axis=0)
        col = col / col.sum()
        return FiniteDistribution(col)

    def conditional_w_given_s(self) -> np.ndarray:
        """Row-stochastic |S| x |W| matrix P(w | s); errors on zero rows."""
        marginal = self.matrix.sum(axis=1, keepdims=True)
        if np.any(marginal == 0.0):
            dead = np.flatnonzero(marginal == 0.0).tolist()
            raise DegenerateMarginalError(f"conditional W|S undefined at zero-mass rows {dead}")
        return self.matrix / marginal

    def to_json(self) -> str:
        return json.dumps(
            {"matrix": [[float(x) for x in row] for row in self.matrix]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "JointFinite":
        obj = json.loads(text)
        return cls(np.asarray(obj["matrix"], dtype=float))


def product_pair(joint: JointFinite) -> AbsContPair:
    """Flatten P_SW versus P_S * P_W into an AbsContPair over S x W.

    Flattening is row-major (atom index = s * |W| + w), matching
    ``matrix.ravel()``.
    """
    ms = joint.matrix.sum(axis=1)
    mw = joint.matrix.sum(axis=0)
    prod = np.outer(ms, mw)
    p = FiniteDistribution(normalized(joint.matrix.ravel()))
    q = FiniteDistribution(normalized(prod.ravel()))
    return AbsContPair(p, q)


def absorb_rounding(v: np.ndarray) -> np.ndarray:
    """Add the rounding remainder 1 - sum(v) to the largest atom, in place."""
    v[int(np.argmax(v))] += 1.0 - v.sum()
    return v


def normalized(v) -> np.ndarray:
    """A new float vector v / sum(v) with its rounding remainder absorbed."""
    v = np.asarray(v, dtype=float)
    return absorb_rounding(v / v.sum())

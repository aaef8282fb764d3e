"""Finite probability spaces: distributions, dominated pairs, events, joints.

Everything downstream (divergences, bounds, experiments) consumes the four
types defined here.  All types are immutable after construction; arrays are
copied in (unless read-only already) and marked read-only, so values can be
shared across threads.

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


# Row-wise checks: each row (last axis) of an array is one distribution, so
# one call validates a single vector or a whole block of pairs.


def _in_row(m: np.ndarray, bad_rows: np.ndarray) -> str:
    """Names the first flagged row of a block; nothing for a vector."""
    return f" in row {int(np.argmax(bad_rows))}" if m.ndim > 1 else ""


def check_masses(m: np.ndarray) -> None:
    """Raise ValidationError unless every row of `m` is finite, nonnegative
    and sums to 1 within MASS_TOL."""
    # min and max read the block once each and propagate NaN
    if m.size and not (m.min() >= 0.0 and m.max() < np.inf):
        infinite = ~np.isfinite(m)
        if infinite.any():
            raise ValidationError(f"masses{_in_row(m, infinite.any(axis=-1))} must be finite")
        raise ValidationError(f"masses{_in_row(m, (m < 0.0).any(axis=-1))} must be nonnegative")
    sums = m.sum(axis=-1)
    off = np.abs(sums - 1.0) > MASS_TOL
    if np.count_nonzero(off):
        raise ValidationError(
            f"masses{_in_row(m, off)} sum to {np.reshape(sums, -1)[np.argmax(off)]!r},"
            f" not 1 within {MASS_TOL}"
        )


def dominated_ratios(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """dP/dQ row by row, 0.0 where Q = 0, for masses that passed
    `check_masses`.

    Raises DominationError where P > 0 = Q, and ValidationError where a row
    of ratios * Q does not sum back to 1 within MASS_TOL.
    """
    if q.min(initial=np.inf) > 0.0:  # one read of q where every atom is positive
        r = p / q
    else:
        positive = q > 0.0
        bad = np.atleast_2d((p > 0.0) & ~positive)
        rows = bad.any(axis=-1)
        if rows.any():
            where = np.flatnonzero(bad[np.argmax(rows)]).tolist()
            raise DominationError(f"P is not dominated by Q at atoms {where}{_in_row(p, rows)}")
        r = np.divide(p, q, out=np.zeros(q.shape), where=positive)
    if np.count_nonzero(np.abs((r * q).sum(axis=-1) - 1.0) > MASS_TOL):
        raise ValidationError("ratios * Q does not sum back to 1")
    return r


def _json_floats(obj, key: str, source: str) -> np.ndarray:
    """obj[key] of a decoded JSON object as a float array, or ValidationError
    naming `source` where obj is no object, lacks the key, or holds there an
    entry that is no number or a ragged nesting."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{source}: expected a JSON object")
    if key not in obj:
        raise ValidationError(f"{source}: expected key {key!r}")
    try:
        return np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{source}: {key!r} must be a regular array of numbers") from exc


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
        check_masses(p)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != p.size:
                raise ShapeError("labels length must match support size")
            object.__setattr__(self, "labels", labels)
        if p.flags.writeable:  # a read-only array is kept as it is
            p = p.copy()
            p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __eq__(self, other) -> bool:
        """Value equality: the same labels and masses, atom by atom (the
        generated one compared the arrays as a tuple, which raises)."""
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.probs, other.probs)

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
        return cls.from_obj(json.loads(text), "JSON")

    @classmethod
    def from_obj(cls, obj, source: str) -> "FiniteDistribution":
        """The distribution of a decoded JSON object {"probs": [...]} with
        optional "labels": [...]; a fault in that schema raises
        ValidationError naming `source`."""
        probs = _json_floats(obj, "probs", source)
        if "labels" not in obj:
            return cls(probs)
        if not isinstance(obj["labels"], list):
            raise ValidationError(f"{source}: 'labels' must be a list")
        return cls(probs, tuple(obj["labels"]))


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
            raise ShapeError(f"support mismatch: |P| = {self.p.size}, |Q| = {self.q.size}")
        r = dominated_ratios(self.p.probs, self.q.probs)
        r.flags.writeable = False
        object.__setattr__(self, "ratios", r)

    def __eq__(self, other) -> bool:
        """Value equality of P and of Q (the ratios follow from them)."""
        if not isinstance(other, AbsContPair):
            return NotImplemented
        return self.p == other.p and self.q == other.q

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

    def to_int(self) -> int:
        return int((self.bits * (1 << np.arange(len(self), dtype=object))).sum())


def event_probability(dist: FiniteDistribution, mask: EventMask) -> float:
    """Total mass of the atoms selected by the mask."""
    if len(mask) != dist.size:
        raise ShapeError(f"mask length {len(mask)} != support size {dist.size}")
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
        if not (m.min() >= 0.0 and m.max() < np.inf):  # one read each, NaN failing
            if not np.all(np.isfinite(m)):
                raise ValidationError("joint entries must be finite")
            raise ValidationError("joint entries must be nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise ValidationError(f"joint mass {total!r} is not 1 within {JOINT_SUM_TOL}")
        object.__setattr__(self, "matrix", m / total)  # a fresh array, frozen as it is
        self.matrix.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.matrix.shape)  # type: ignore[return-value]

    @property
    def marginal_s(self) -> FiniteDistribution:
        row = self.matrix.sum(axis=1)
        return FiniteDistribution(row / row.sum())

    @property
    def marginal_w(self) -> FiniteDistribution:
        col = self.matrix.sum(axis=0)
        return FiniteDistribution(col / col.sum())

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
        return cls.from_obj(json.loads(text), "JSON")

    @classmethod
    def from_obj(cls, obj, source: str) -> "JointFinite":
        """The joint of a decoded JSON object {"matrix": [[...], ...]}; a
        fault in that schema raises ValidationError naming `source`."""
        return cls(_json_floats(obj, "matrix", source))


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
    """Add each row's rounding remainder 1 - sum(row) to the row's largest
    atom (the first, on ties), in place."""
    rows = v.reshape(-1, v.shape[-1])  # a view, as v is C-contiguous at every caller
    rows[np.arange(len(rows)), rows.argmax(axis=1)] += 1.0 - rows.sum(axis=1)
    return v


def normalized(v) -> np.ndarray:
    """A new float array with each row divided by its sum and its rounding
    remainder absorbed."""
    v = np.asarray(v, dtype=float)
    return absorb_rounding(v / v.sum(axis=-1, keepdims=True))


def adopted_distribution(w: np.ndarray) -> FiniteDistribution:
    """FiniteDistribution(normalized(w)) in w's memory: w, a fresh float
    vector that nothing else writes, is normalized in place and frozen."""
    w /= w.sum()
    absorb_rounding(w).flags.writeable = False
    return FiniteDistribution(w)

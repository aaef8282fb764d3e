"""Semantic exception hierarchy, and the one range check of every numeric
argument.

Public functions never raise bare ValueError/KeyError; every failure mode
maps to one of the classes below so callers can dispatch on meaning.
"""

import functools
import math


class DivgaugeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DivgaugeError, ValueError):
    """Inputs violate a contract: bad masses, parameters out of domain."""


class ShapeError(ValidationError):
    """Mismatched support sizes / array shapes."""


class RangeError(ValidationError):
    """A scalar parameter is outside its admissible range."""


class BoundaryError(RangeError):
    """A two-point operation was called at q in {0, 1}; callers must handle
    the degenerate cases themselves."""


class DominationError(DivgaugeError):
    """Absolute continuity P << Q fails: some atom has Q = 0 but P > 0."""


class DegenerateMarginalError(DivgaugeError):
    """A conditional or fiber was requested at a zero-mass marginal atom."""


class ResourceError(DivgaugeError):
    """An enumeration cap was exceeded; the message names the cap."""


class OrliczSpecError(ValidationError):
    """A supplied Orlicz gauge is unusable (non-convex, non-finite conjugate
    on the required range, ...)."""


class UnknownBoundError(DivgaugeError, KeyError):
    """Bound identifier not present in the verification registry."""


# Intervals that several arguments share, each written once as
# :func:`check_range` reads it.
UNIT = "[0, 1]"  # a probability such as Q(E)
OPEN_UNIT = "(0, 1)"  # a two-point q, a confidence level delta
NONNEGATIVE = "[0, inf]"  # a divergence or an information value
POSITIVE = "(0, inf)"
REAL = "(-inf, inf)"  # a hockey-stick threshold gamma
COUNT = "[1, inf)"  # a sample, pair or atom count
BETA = "(1, 50]"  # the power divergence's order
RENYI_ORDER = "(0, inf) \\ {1}"
SIBSON_ORDER = "(1, inf]"


@functools.cache
def _bounds(interval: str) -> tuple[float, float, bool, bool, float]:
    """(lo, hi, lo open, hi open, excluded point or NaN) of an interval
    written "[lo, hi]", each bracket round where that end is open, with an
    optional " \\ {x}" that excludes the point x."""
    body, _, hole = interval.partition(" \\ ")
    lo, hi = body[1:-1].split(", ")
    point = float(hole.strip("{}")) if hole else math.nan
    return float(lo), float(hi), body[0] == "(", body[-1] == ")", point


def check_range(value, name: str, interval: str, error: type = RangeError) -> float:
    """`value` as a float, or `error` (RangeError or a subclass) with the
    message "{name} = {value} must lie in {interval}" where the value is
    NaN, not a number, or outside `interval`, written as :func:`_bounds`
    reads it.  Every comparison is one a NaN fails."""
    lo, hi, lo_open, hi_open, hole = _bounds(interval)
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi) and x != hole:
        return x
    raise error(f"{name} = {x if isinstance(value, float) else value!r} must lie in {interval}")

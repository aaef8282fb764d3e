"""Semantic exception hierarchy, the one range check of every numeric
argument, and the one check of every count.

Public functions never raise bare ValueError/KeyError; every failure mode
maps to one of the classes below so callers can dispatch on meaning.
"""

import functools
import math
import numbers


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
COUNT = "[1, inf)"  # a sample, pair or atom count, an integer (check_count)
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


_SHOWN = 40  # the longest repr of a value an error message prints whole


def _shown(value) -> str:
    """repr(value) for a message, short where it is long: an integer of more
    than _SHOWN digits (past 4,300 digits repr even raises) in scientific
    notation with seven digits, truncated, and any other repr longer than
    _SHOWN characters cut there with "..."."""
    if isinstance(value, int) and abs(value) >= 10**_SHOWN:
        a = abs(value)
        e = int(math.log10(a))  # a float log: off by one at worst
        e += (a >= 10 ** (e + 1)) - (a < 10**e)
        head = str(a // 10 ** (e - 6))
        return f"{'-' if value < 0 else ''}{head[0]}.{head[1:]}e+{e}"
    text = repr(value)
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def check_range(value, name: str, interval: str, error: type = RangeError) -> float:
    """`value` as a float, or `error` (RangeError or a subclass) with the
    message "{name} = {value} must lie in {interval}" (the value as
    :func:`_shown` prints it) where the value is
    NaN, not a number, an integer past the float range, or outside
    `interval`, written as :func:`_bounds` reads it.  Every comparison is
    one a NaN fails."""
    lo, hi, lo_open, hi_open, hole = _bounds(interval)
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi) and x != hole:
        return x
    raise error(f"{name} = {x if isinstance(value, float) else _shown(value)} must lie in {interval}")


def check_count(value, name: str) -> int:
    """`value` as an int, or RangeError with the message "{name} = {value}
    must be an integer in [1, inf)" where the value is a bool, not a real
    number, not integral (8.0 is), below 1 or past the float range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if 1.0 <= x < math.inf and x.is_integer():
            return int(value)
    raise RangeError(f"{name} = {_shown(value)} must be an integer in {COUNT}")

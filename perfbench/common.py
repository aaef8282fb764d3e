"""Shared helpers: locating and importing the package under test, the
recorded fixture, and the statistics the report uses."""

from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
FIXTURE = BENCH_DIR / "fixture.json"
OUT_DIR = BENCH_DIR / "out"

# Absolute tolerance for comparing a clipped bound value with the value
# recorded in the fixture.
VALUE_TOL = 1e-9


@dataclass
class Outcome:
    """What one operation of a workload did.

    ``work`` is in the workload's unit (pairs, atoms or calls).  ``latencies``
    are the timed units in seconds (chunks, config-set passes or calls);
    when empty, the operation's wall time is the one sample.
    """

    work: float
    attempted: int
    failed: int
    failures: list[str]
    latencies: list[float] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    wall: float = 0.0
    scale: float = 1.0  # reference speed / measured speed during the operation


# The probe's time on the reference box (2-vCPU VM, Python 3.11.7, numpy
# 2.4.6) at full speed: about the fastest tenth of the probe times seen
# between sweep operations over one minute.
PROBE_REFERENCE_S = 1.3e-3
_PROBE_X = np.linspace(0.1, 5.0, 1 << 15)


def _probe_once() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += math.sqrt(i + 1.0)
    for _ in range(6):
        y = np.exp(-_PROBE_X) + np.log1p(_PROBE_X)
        acc += float(np.where(y > 1.0, y, 0.0).sum())
    return perf_counter() - t0


def probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work (~1.5 ms),
    the best of three so that one interrupt does not count.

    It runs no divgauge code, so its time tracks only the speed the box
    gives this process at that moment.
    """
    return min(_probe_once() for _ in range(3))


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A wall time rescaled to the reference box's speed, judged by the
    probes taken just before and just after it."""
    return seconds * 2.0 * PROBE_REFERENCE_S / (before + after)


class MissingSource(RuntimeError):
    """The checkout holds no divgauge sources to benchmark."""


def import_divgauge():
    """Import divgauge afresh from the checkout's ``src`` directory.

    Earlier imports are dropped first, so that every repetition of a
    workload's set-up pays the import again.
    """
    if not (SRC_DIR / "divgauge" / "__init__.py").is_file():
        raise MissingSource(f"no divgauge package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "divgauge" or m.startswith("divgauge.")]:
        del sys.modules[name]
    dg = importlib.import_module("divgauge")
    if Path(dg.__file__).resolve().parent != (SRC_DIR / "divgauge").resolve():
        raise MissingSource(f"divgauge was imported from {dg.__file__}, not {SRC_DIR}")
    return dg


def load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def clip01(x: float) -> float:
    """The reporting clip of a bound value (NaN reads as the vacuous 1)."""
    x = float(x)
    if math.isnan(x):
        return 1.0
    return min(max(x, 0.0), 1.0)


def close(observed: float, expected: float, tol: float = VALUE_TOL) -> bool:
    """|observed - expected| <= tol, scaled up for values above 1."""
    observed, expected = float(observed), float(expected)
    if math.isinf(expected) or math.isinf(observed):
        return observed == expected
    return abs(observed - expected) <= tol * max(1.0, abs(expected))


def median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


# op_ms_tail of the workloads whose operations take seconds: the slowest of
# the run's first TAIL_OPS operations.  The count is fixed, so that a faster
# version, which fits more operations into a run, is judged by the same
# statistic.
TAIL_OPS = 3


def slowest_of_first(latencies: list[float]) -> tuple[float, str]:
    """(the slowest of the first TAIL_OPS latencies, what that is)."""
    first = latencies[:TAIL_OPS]
    return max(first, default=0.0), f"slowest of the first {len(first)} of {len(latencies)} operations"


def percentile(values: list[float], pct: float) -> float:
    """The `pct` percentile, interpolated linearly between the two nearest
    order statistics (numpy's default method).  The same percentile is
    estimated whatever the number of samples."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)

"""pair_report: a seeded mix of single interactive calls, all in-process.

One operation is a round of the 23 calls in ``ROUND``, in a seeded order,
each with seeded arguments drawn from the fixture, which also records the
value every call returned when the fixture was made.  One caller issues
the calls back to back (a closed loop).  The mix covers the scalar entry
points of ``bounds`` and ``orlicz`` (0-d arrays and the scalar Python
searches), dominance reports at support 8 and 12, one-event dominance rows,
``verify_com_bound`` on one support-16 pair (one wide row of 65,536
events), and ``cli.main`` for five commands writing to a temporary file.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from time import perf_counter as _now
from typing import Callable

import numpy as np

from common import Outcome, clip01, close, median, percentile
from spans import NULL

# (seed, count) of the random_pair instances per support size
PAIRS = {8: (7008, 16), 12: (7012, 16), 16: (7016, 8)}
SAME_TOL = 1e-12  # "same" rows are one formula twice
DOMINANCE_TOL = 1e-10  # the tolerance dominance_rows_at_event applies
# call_ms_tail's percentile: a 30-s run at this commit makes about 670
# calls, which leaves about ten beyond it.  Fixed, so that a faster
# version, which makes more calls, is judged at the same percentile.
TAIL_PCT = 98.5


@dataclass(frozen=True)
class Entry:
    metric: str
    call: Callable  # (ctx, args) -> result; the timed part
    observe: Callable  # (ctx, args, result) -> JSON-able observation
    check: Callable  # (observation, recorded observation) -> [failures]


def _value(ctx, args, res):
    return clip01(res.value)


def _check_value(obs, rec):
    return [] if close(obs, rec) else [f"value {obs!r}, recorded {rec!r}"]


def _check_report(obs, rec):
    out = []
    if obs["violations"]:
        out.append(f"{obs['violations']} violations")
    if obs["trials"] != rec["trials"]:
        out.append(f"{obs['trials']} trials, recorded {rec['trials']}")
    if not close(obs["worst_slack"], rec["worst_slack"]):
        out.append(f"worst slack {obs['worst_slack']!r}, recorded {rec['worst_slack']!r}")
    return out


def _check_dominance(rows, rec_rows):
    """The claims of dominance_report: "same" rows agree, "ours" rows are
    never looser than the competitor on any event."""
    out = []
    if [(r["row"], r["applicable"]) for r in rows] != [(r["row"], r["applicable"]) for r in rec_rows]:
        out.append("rows or their applicability changed")
    for r in rows:
        if not r["applicable"] or r["claim"] == "incomparable":
            continue
        if r["ours_tighter_or_equal"] != r["events"]:
            out.append(f"{r['row']}: ours tighter on {r['ours_tighter_or_equal']} of {r['events']} events")
        gap = r["max_ours_minus_competitor"]
        if r["claim"] == "same" and gap is not None and abs(gap) > SAME_TOL:
            out.append(f"{r['row']}: same-formula rows differ by {gap!r}")
    return out


def _check_rows_at_event(rows, rec_rows):
    out = []
    if [(r["row"], r["applicable"]) for r in rows] != [(r["row"], r["applicable"]) for r in rec_rows]:
        return ["rows or their applicability changed"]
    for r, rec in zip(rows, rec_rows):
        if not r["applicable"]:
            continue
        for key in ("ours", "competitor"):
            if not close(clip01(r[key]), clip01(rec[key])):
                out.append(f"{r['row']}: clipped {key} {clip01(r[key])!r}, recorded {clip01(rec[key])!r}")
        if min(r["ours"], r["competitor"]) < r["p"] - 1e-9:
            out.append(f"{r['row']}: a bound is below the true P(E)")
        if r["claim"] == "same" and abs(r["ours"] - r["competitor"]) > SAME_TOL:
            out.append(f"{r['row']}: same-formula rows differ")
        if r["claim"] == "ours" and not r["ours"] <= r["competitor"] + DOMINANCE_TOL:
            out.append(f"{r['row']}: ours looser than the competitor")
    return out


def _report(ctx, args, rep):
    return {"trials": rep.trials, "violations": rep.violations, "worst_slack": rep.worst_slack}


def _cli(metric, argv, check, field):
    """An Entry for ``cli.main(argv(ctx, args) + --out)``; it observes the
    exit code and one field of the JSON it wrote."""

    def observe(ctx, args, code):
        if code != 0:
            return {"exit": code}
        with open(ctx.out, encoding="utf-8") as fh:
            return {"exit": code, field: json.load(fh)[field]}

    def checked(obs, rec):
        if obs["exit"] != 0:
            return [f"exit code {obs['exit']}"]
        return check(obs[field], rec[field])

    return Entry(metric, lambda c, a: c.cli.main(argv(c, a) + ["--out", c.out]), observe, checked)


def _mask(ctx, code):
    return ctx.dg.EventMask.from_int(code, 8)


ENTRIES = {
    "bound_kl": Entry(
        "bounds.scalar_ms.bound_kl",
        lambda c, a: c.dg.bound_kl(a["q"], a["d"]), _value, _check_value),
    "competitor_power": Entry(
        "bounds.scalar_ms.competitor_bound.power",
        lambda c, a: c.dg.competitor_bound("power", a["q"], a["d"], beta=a["beta"]),
        _value, _check_value),
    "competitor_reverse_kl": Entry(
        "bounds.scalar_ms.competitor_bound.reverse_kl",
        lambda c, a: c.dg.competitor_bound("reverse_kl", a["q"], a["d"]), _value, _check_value),
    "competitor_reverse_chi2": Entry(
        "bounds.scalar_ms.competitor_bound.reverse_chi2",
        lambda c, a: c.dg.competitor_bound("reverse_chi2", a["q"], a["d"]), _value, _check_value),
    "power_implicit": Entry(
        "bounds.scalar_ms.bound_power_beta.implicit",
        lambda c, a: c.dg.bound_power_beta(a["q"], a["d"], a["beta"], mode="implicit"),
        _value, _check_value),
    "power_qmax": Entry(
        "bounds.scalar_ms.bound_power_beta.qmax",
        lambda c, a: c.dg.bound_power_beta(a["q"], a["d"], a["beta"], mode="qmax", q_max=a["q_max"]),
        _value, _check_value),
    "power_small_q": Entry(
        "bounds.scalar_ms.bound_power_beta.small_q",
        lambda c, a: c.dg.bound_power_beta(a["q"], a["d"], a["beta"], mode="small_q"),
        _value, _check_value),
    "bound_reverse_kl": Entry(
        "bounds.scalar_ms.bound_reverse_kl",
        lambda c, a: c.dg.bound_reverse_kl(a["q"], a["d"]), _value, _check_value),
    "invert_binary_kl": Entry(
        "bounds.scalar_ms.invert_binary_kl",
        lambda c, a: c.dg.invert_binary_kl(a["q"], a["d"]),
        lambda c, a, p: clip01(p), _check_value),
    "bound_young_fenchel": Entry(
        "bounds.scalar_ms.bound_young_fenchel",
        lambda c, a: c.dg.bound_young_fenchel(a["q"], a["d"], getattr(c.dg, a["kind"])),
        _value, _check_value),
    "bound_orlicz": Entry(
        "bounds.scalar_ms.bound_orlicz",
        lambda c, a: c.dg.bound_orlicz(
            c.pairs[8][a["pair"]], _mask(c, a["event"]), a["gamma"], c.specs[a["kappa"]]),
        _value, _check_value),
    "amemiya_norm": Entry(
        "orlicz.amemiya_ms",
        lambda c, a: c.dg.amemiya_norm(c.pairs[8][a["pair"]], a["gamma"], c.specs[a["kappa"]]),
        lambda c, a, v: float(v), _check_value),
    "dominance_report_s8": Entry(
        "verify.dominance_report_s8_ms",
        lambda c, a: c.verify.dominance_report(c.pairs[8][a["pair"]]),
        lambda c, a, rows: rows, _check_dominance),
    "dominance_report_s12": Entry(
        "verify.dominance_report_s12_ms",
        lambda c, a: c.verify.dominance_report(c.pairs[12][a["pair"]]),
        lambda c, a, rows: rows, _check_dominance),
    "rows_at_event": Entry(
        "verify.rows_at_event_ms",
        lambda c, a: c.verify.dominance_rows_at_event(c.pairs[8][a["pair"]], _mask(c, a["event"])),
        lambda c, a, rows: rows, _check_rows_at_event),
    "com_bound_s16_kl": Entry(
        "verify.com_bound_s16_kl_ms",
        lambda c, a: c.verify.verify_com_bound(c.pairs[16][a["pair"]], "kl"),
        _report, _check_report),
    "com_bound_s16_competitor_power": Entry(
        "verify.com_bound_s16_competitor_power_ms",
        lambda c, a: c.verify.verify_com_bound(
            c.pairs[16][a["pair"]], "competitor_power", {"beta": a["beta"]}),
        _report, _check_report),
    "cli_bound": _cli(
        "cli.bound_ms",
        lambda c, a: ["bound", "--name", "kl", "--q", repr(a["q"]), "--div", repr(a["d"])],
        _check_value, "value"),
    "cli_compare": _cli(
        "cli.compare_ms",
        lambda c, a: ["compare", "--pair", c.pair_files[a["pair"]]],
        _check_dominance, "rows"),
    "cli_compare_event": _cli(
        "cli.compare_event_ms",
        lambda c, a: ["compare", "--pair", c.pair_files[a["pair"]], "--event", hex(a["event"])],
        _check_rows_at_event, "rows"),
    "cli_div": _cli(
        "cli.div_ms",
        lambda c, a: ["div", "--pair", c.pair_files[a["pair"]], "--kind", a["kind"]],
        _check_value, "value"),
    "cli_mi_gap": _cli(
        "cli.mi_gap_ms",
        lambda c, a: ["mi-gap", "--sigma", repr(a["sigma"]), "--n", str(a["n"]), "--format", "json"],
        _check_value, "min_gap"),
}

# One operation: every entry once and bound_kl twice.  An odd count puts
# the median call inside one entry's cluster of latencies rather than in
# the gap between two entries, where it would jump with any noise.
ROUND = tuple(ENTRIES) + ("bound_kl",)


def make_args(rng: np.random.Generator, name: str) -> dict:
    """Seeded arguments for one call of `name` (used to build the fixture)."""
    q = float(rng.uniform(0.02, 0.98))
    d = float(rng.exponential(0.3))
    beta = float(rng.choice([1.5, 2.0, 4.0]))
    pair8 = int(rng.integers(PAIRS[8][1]))
    event = int(rng.integers(1, 255))
    if name in ("power_implicit", "power_small_q", "competitor_power"):
        return {"q": q, "d": d, "beta": beta}
    if name == "power_qmax":
        return {"q": q, "d": d, "beta": beta, "q_max": q + (1.0 - q) * float(rng.uniform(0.1, 0.9))}
    if name == "bound_young_fenchel":
        return {"q": q, "d": d, "kind": str(rng.choice(["KL", "CHI2"]))}
    if name in ("bound_orlicz", "amemiya_norm"):
        return {"pair": pair8, "event": event, "gamma": float(rng.choice([0.0, 1.0, 2.0])),
                "kappa": float(rng.choice([1.5, 2.0, 4.0]))}
    if name in ("dominance_report_s8", "cli_compare"):
        return {"pair": pair8}
    if name == "dominance_report_s12":
        return {"pair": int(rng.integers(PAIRS[12][1]))}
    if name in ("rows_at_event", "cli_compare_event"):
        return {"pair": pair8, "event": event}
    if name.startswith("com_bound_s16"):
        return {"pair": int(rng.integers(PAIRS[16][1])), "beta": beta}
    if name == "cli_div":
        kinds = ["kl", "reverse_kl", "chi2", "squared_hellinger", "vincze_lecam", "tv"]
        return {"pair": pair8, "kind": str(rng.choice(kinds))}
    if name == "cli_mi_gap":
        return {"sigma": float(rng.uniform(0.5, 3.0)), "n": int(rng.integers(1, 100))}
    return {"q": q, "d": d}


class Context:
    """The inputs every call reads: pairs, pair files, gauges, modules."""

    def __init__(self, dg, workdir) -> None:
        self.dg = dg
        self.verify = importlib.import_module("divgauge.verify")
        self.cli = importlib.import_module("divgauge.cli")
        self.pairs = {
            n: [dg.random_pair(seed, i, n) for i in range(count)]
            for n, (seed, count) in PAIRS.items()
        }
        self.specs = {k: dg.power_orlicz(k) for k in (1.5, 2.0, 4.0)}
        self.pair_files = []
        for i, pair in enumerate(self.pairs[8]):
            path = os.path.join(workdir, f"pair{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"p": {"probs": pair.p.probs.tolist()}, "q": {"probs": pair.q.probs.tolist()}}, fh)
            self.pair_files.append(path)
        self.out = os.path.join(workdir, "out.json")
        dg.dist.event_mask_matrix(16)


class PairReport:
    unit = "calls"
    short_ops = True  # a round takes about a second

    def setup(self, dg, fixture: dict, seed: int, workdir) -> None:
        self.ctx = Context(dg, workdir)
        self.recorded = fixture["pair_report"]
        self.rng = np.random.default_rng(seed)

    def precheck(self) -> Outcome:
        return Outcome(work=0, attempted=0, failed=0, failures=[])

    def next_input(self) -> list[tuple[str, int]]:
        order = self.rng.permutation(len(ROUND))
        return [(ROUND[i], int(self.rng.integers(len(self.recorded[ROUND[i]])))) for i in order]

    def run(self, calls: list[tuple[str, int]], tracer=NULL) -> Outcome:
        latencies, failures = [], []
        failed = 0
        for name, k in calls:
            entry, rec = ENTRIES[name], self.recorded[name][k]
            try:
                with tracer.span(entry.metric):
                    t0 = _now()
                    res = entry.call(self.ctx, rec["args"])
                    latencies.append(_now() - t0)
                bad = entry.check(entry.observe(self.ctx, rec["args"], res), rec["expected"])
            except Exception as exc:  # one call failing must not end the run
                bad = [f"raised {exc!r}"]
            if bad:
                failed += 1
                failures.append(f"{name}[{k}]: " + "; ".join(bad))
        return Outcome(work=len(calls), attempted=len(calls), failed=failed,
                       failures=failures, latencies=latencies)

    @staticmethod
    def tail(latencies: list[float]) -> tuple[float, str]:
        value = percentile(latencies, TAIL_PCT)
        beyond = sum(1 for t in latencies if t > value)
        return value, f"p{TAIL_PCT:g} of {len(latencies)} calls, {beyond} beyond it"

    def traced(self, calls, tracer) -> Outcome:
        with tracer.span("op"):
            return self.run(calls, tracer)

    def attribute(self, span: str) -> str | None:
        return span if span != "op" else None

    def layer_metrics(self, tracer, untraced: list, traced: list) -> dict:
        return {
            e.metric: (1e3 * median(tracer.durations(e.metric, "op")), "ms")
            for e in ENTRIES.values()
        }

"""sweep_s8: the criterion-1 master sweep.

One operation is ``verify.master_soundness`` over one 500-pair chunk
(support 8, all 55 default cases, jobs=1); pair generation happens inside
the call and is timed.  Sweep seeds come from the fixture, which records
the per-case trial counts and worst slacks of the first two chunks of
every seed, and the sums of the clipped bound values on the first pairs of
the first chunk; ``--seed`` picks their order.

The traced run also makes one jobs=2 call over the first two chunks of a
seed, which runs the process-pool, pickling and merge path, and reports
its parallel efficiency.
"""

from __future__ import annotations

import contextlib
import importlib
import math

import numpy as np

from common import Outcome, close, median, slowest_of_first
from spans import NULL, patched

SUPPORT = 8
CHUNK = 500
POOL_JOBS = 2
# The six bound ids whose kernels are numeric searches (grid + golden
# section or bisection); everything else is closed form.
SEARCH_IDS = (
    "kl",
    "power_implicit",
    "reverse_kl_exact",
    "competitor_power",
    "competitor_reverse_kl",
    "competitor_reverse_chi2",
)


# Bound values are checked on the first DIGEST_PAIRS pairs of a chunk, as
# the sum of their clipped values per case.  The worst slack alone cannot
# see a bound that turns vacuous at 1: every case is tight (slack 0) at the
# sure event, where every sound bound is 1.
DIGEST_PAIRS = 8


def clipped_sum(values, valid, shape) -> list:
    """[sum of the clipped valid values, their count] on the first
    DIGEST_PAIRS pairs; NaN reads as the vacuous 1."""
    v = np.broadcast_to(np.asarray(values, dtype=float), shape)[:DIGEST_PAIRS]
    ok = np.ones(v.shape, dtype=bool) if valid is None else np.broadcast_to(valid, shape)[:DIGEST_PAIRS]
    clipped = np.where(np.isnan(v), 1.0, np.clip(v, 0.0, 1.0))
    return [float(clipped[ok].sum()), int(ok.sum())]


@contextlib.contextmanager
def digesting(verify, sink: dict):
    """While the block runs, every bound evaluation in this process stores
    its clipped_sum in `sink` under its case label."""
    registry = verify._REGISTRY
    saved = dict(registry)

    def wrap(bid, fn):
        def digested(batch, **params):
            values, valid = fn(batch, **params)
            sink[verify.case_label(bid, params)] = clipped_sum(values, valid, batch.shape)
            return values, valid

        return digested

    try:
        registry.update({bid: wrap(bid, fn) for bid, fn in saved.items()})
        yield
    finally:
        registry.update(saved)


class Sweep:
    unit = "pairs"
    short_ops = False  # a 500-pair chunk takes seconds

    def __init__(self) -> None:
        self.pool_wall = None  # wall time of the traced run's jobs=2 call

    def setup(self, dg, fixture: dict, seed: int, workdir) -> None:
        self.verify = verify = importlib.import_module("divgauge.verify")
        fx = fixture["sweep"]
        self.cases = verify.default_cases()
        self.labels = sorted(verify.case_label(b, p) for b, p in self.cases)
        self.recorded_labels = sorted(fx["labels"])
        self.bound_ids = sorted({b for b, _ in self.cases})
        self.trials = fx["trials"]
        self.worst_slack = fx["worst_slack"]
        self.value_sums = fx["value_sums"]
        order = np.random.default_rng(seed).permutation(len(fx["seeds"]))
        self.queue = [int(fx["seeds"][i]) for i in order]
        self.next = 0
        dg.dist.event_mask_matrix(SUPPORT)
        # touch every case once so lazy numpy set-up is not timed
        verify.master_soundness(n_pairs=4, support=SUPPORT, seed=0, cases=self.cases)

    def precheck(self) -> Outcome:
        """The negative control: a deliberately broken bound must be caught."""
        rep = self.verify.harness_self_test()
        caught = rep.violations > 0
        return Outcome(work=0, attempted=1, failed=0 if caught else 1,
                       failures=[] if caught else ["harness_self_test reported no violations"])

    def next_input(self) -> int:
        s = self.queue[self.next % len(self.queue)]
        self.next += 1
        return s

    def run(self, seed: int, tracer=NULL, jobs: int = 1) -> Outcome:
        n_pairs = CHUNK * jobs
        sums = {}  # stays empty with jobs > 1: the chunks run in workers
        with tracer.span("verify.master_soundness"), digesting(self.verify, sums):
            reports = self.verify.master_soundness(
                n_pairs=n_pairs, support=SUPPORT, seed=seed, cases=self.cases,
                jobs=jobs, batch_size=CHUNK,
            )
        failures = self.check(seed, reports, chunks=jobs, sums=sums if jobs == 1 else None)
        return Outcome(
            work=n_pairs,
            attempted=jobs,
            failed=jobs if failures else 0,
            failures=failures,
            counts={
                "trials": sum(r.trials for r in reports.values()),
                "violations": sum(r.violations for r in reports.values()),
            },
        )

    def check(self, seed: int, reports: dict, chunks: int = 1, sums: dict | None = None) -> list[str]:
        failures = []
        if sorted(reports) != self.labels or self.labels != self.recorded_labels:
            failures.append(f"seed {seed}: case labels differ from default_cases()/fixture")
        recorded = self.trials[str(seed)]
        slacks = self.worst_slack[str(seed)]
        for label, rep in sorted(reports.items()):
            if rep.violations:
                failures.append(f"seed {seed}: {label} has {rep.violations} violations")
            want = sum(recorded.get(label, [-1] * chunks)[:chunks])
            if rep.trials != want:
                failures.append(f"seed {seed}: {label} has {rep.trials} trials, recorded {want}")
            # a bound that turns vacuous (1, inf, NaN) keeps 0 violations
            # but moves the worst slack
            want_slack = min(slacks.get(label, [math.nan])[:chunks])
            if not close(rep.worst_slack, want_slack):
                failures.append(f"seed {seed}: {label} worst slack {rep.worst_slack!r}, recorded {want_slack!r}")
        if sums is not None:
            recorded_sums = self.value_sums[str(seed)]
            for label in self.labels:
                got, want = sums.get(label), recorded_sums.get(label)
                if got is None or want is None or got[1] != want[1] or not close(got[0], want[0]):
                    failures.append(f"seed {seed}: {label} clipped values of the first "
                                    f"{DIGEST_PAIRS} pairs sum to {got}, recorded {want}")
        return failures

    # -- traced run ---------------------------------------------------------

    def _targets(self):
        v = self.verify
        registry = getattr(v, "_REGISTRY", {})
        return [
            (v, "_master_chunk", "verify.chunk"),
            (v, "random_pair", "dist.random_pair"),
            (v.PairBatch, "from_pairs", "verify.batch_build"),
            (v, "f_divergence_from_ratios", "divergences.batch_div"),
            (v, "_evaluate_cases", "verify.evaluate_cases"),
            (v.VerificationReport, "absorb", "verify.absorb"),
            (v, "_merge_into", "verify.merge"),
        ] + [(registry, bid, f"bounds.{bid}") for bid in self.bound_ids]

    tail = staticmethod(slowest_of_first)

    def traced(self, seed: int, tracer) -> Outcome:
        with patched(tracer, self._targets()):
            with tracer.span("op"):
                out = self.run(seed, tracer)
        if self.pool_wall is None:
            # The chunks of a jobs=2 call run in forked workers, whose spans
            # would be lost, so this call is timed as a whole, untraced.
            with tracer.span("pool"):
                pool = self.run(seed, jobs=POOL_JOBS)
            self.pool_wall = tracer.durations("pool", "pool")[-1]
            out.attempted += pool.attempted
            out.failed += pool.failed
            out.failures += pool.failures
        return out

    def attribute(self, span: str) -> str | None:
        if span in ("dist.random_pair", "verify.batch_build", "divergences.batch_div"):
            return span + "_s"
        if span in ("verify.evaluate_cases", "verify.absorb", "verify.merge"):
            return "verify.report_s"
        if span.startswith("bounds."):
            return span + "_s"
        return None

    def layer_metrics(self, tracer, untraced: list, traced: list) -> dict:
        own = tracer.self_times("op")
        chunk_spans = tracer.durations("verify.chunk", "op")
        chunks = max(len(chunk_spans), 1)
        out = {}
        for name in ("dist.random_pair", "verify.batch_build", "divergences.batch_div"):
            out[name + "_s"] = (own.get(name, 0.0) / chunks, "s/chunk")
        out["verify.report_s"] = (
            sum(own.get(n, 0.0) for n in ("verify.evaluate_cases", "verify.absorb", "verify.merge"))
            / chunks,
            "s/chunk",
        )
        case_time = {}
        for bid in self.bound_ids:
            out[f"bounds.{bid}_s"] = (own.get(f"bounds.{bid}", 0.0) / chunks, "s/chunk")
            case_time[bid] = sum(tracer.durations(f"bounds.{bid}", "op"))
        total = sum(case_time.values())
        search = sum(case_time.get(b, 0.0) for b in SEARCH_IDS)
        out["bounds.search_share"] = (search / total if total else 0.0, "fraction")
        first = next((o.counts for o in traced if o.counts), {})
        out["verify.trials"] = (first.get("trials", 0), "count")
        out["verify.violations"] = (first.get("violations", 0), "count")
        if self.pool_wall and chunk_spans:
            # serial time of the pool's chunks / (workers x pool wall), each
            # chunk costing the median traced chunk of the run serially
            out["verify.parallel_efficiency"] = (median(chunk_spans) / self.pool_wall, "fraction")
        return out

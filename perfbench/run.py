"""divgauge benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep_s8 --seed 1 --seconds 30 --trace 0

Workloads: sweep_s8, experiments_exact, pair_report (see README.md in this
directory).  The run sets the workload up several times, runs its
correctness pre-check, then repeats seeded operations until ``--seconds``
have passed, checking every output, and sets up several times more;
``setup_s`` is the median of all set-ups.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every operation runs once untraced and once traced, the
per-layer metrics come from the spans, and the spans are written to
``perfbench/out/``.  The last line of stdout is the result object; the
exit code is 0 only if no check failed.
"""

import os

# One BLAS/OpenMP thread per process, so that the benchmark's load is
# exactly its own processes: one, plus two pool workers in the traced
# sweep.  Must precede numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR, OUT_DIR, PROBE_REFERENCE_S, MissingSource, Outcome, at_reference_speed,
    import_divgauge, load_fixture, median, probe,
)
from experiments_exact import ExperimentsExact  # noqa: E402
from pair_report import PairReport  # noqa: E402
from spans import NULL, Tracer  # noqa: E402
from sweep import Sweep  # noqa: E402

WORKLOADS = {
    "sweep_s8": Sweep,
    "experiments_exact": ExperimentsExact,
    "pair_report": PairReport,
}
SETUP_REPEATS = 5
# A run is flagged as contended above this foreign load (runnable tasks
# not ours, 1-minute average) or this median probe slowdown.
CONTENDED_LOAD = 0.5
CONTENDED_SLOWDOWN = 1.25
# The workload-specific name of `work_per_s`, printed beside it.
THROUGHPUT_NAME = {"pairs": "pairs_per_s", "atoms": "atoms_per_s", "calls": "calls_per_s"}


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict form
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def contention(before: tuple, after: tuple, seconds: float, probes: list) -> dict:
    """Two views of contention: foreign load in the guest, and the slowdown
    the probes saw, which also catches a host that slows the vCPUs.

    Over a run of T seconds the kernel's 1-minute load average decays the
    earlier load by exp(-T/60) and adds (1 - exp(-T/60)) per task that
    stayed runnable; what remains after our one busy process is foreign.
    """
    decay = math.exp(-seconds / 60.0)
    foreign = after[0] - before[0] * decay - (1.0 - decay)
    slowdown = median(probes) / PROBE_REFERENCE_S
    return {
        "loadavg_before": list(before),
        "loadavg_after": list(after),
        "foreign_load": round(foreign, 3),
        "probe_slowdown": round(slowdown, 3),
        "contended": foreign > CONTENDED_LOAD or slowdown > CONTENDED_SLOWDOWN,
    }


def set_up(wl, seed: int, workdir) -> float:
    """One full set-up from a fresh import; returns its duration at the
    reference speed."""
    before = probe()
    t0 = perf_counter()
    wl.setup(import_divgauge(), load_fixture(), seed, workdir)
    wall = perf_counter() - t0
    return at_reference_speed(wall, before, probe())


def execute(fn, *args) -> Outcome:
    """Run one operation; an exception counts as one failed operation."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        out = Outcome(work=0, attempted=1, failed=1, failures=[f"raised {exc!r}"])
    out.wall = perf_counter() - t0
    return out


def measure(wl, seconds: float, tracer) -> tuple[list, list, list, float]:
    """Closed loop, one caller: operations back to back until time is up.

    With a tracer, each input runs untraced and then traced.  A probe of
    the box's speed runs between operations.  An operation is started only
    if it should end nearer the deadline than stopping now would (judged
    by the last one), so that runs last about `seconds` even when one
    operation takes several seconds.

    Returns the untraced and traced outcomes, the probes and the elapsed
    time.
    """
    untraced, traced, probes = [], [], [probe()]
    start = perf_counter()
    while True:
        t0 = perf_counter()
        inp = wl.next_input()
        out = execute(wl.run, inp)
        probes.append(probe())
        out.scale = at_reference_speed(1.0, probes[-2], probes[-1])
        untraced.append(out)
        if tracer is not NULL:
            traced.append(execute(wl.traced, inp, tracer))
            probes.append(probe())
        now = perf_counter()
        if now - start + 0.5 * (now - t0) >= seconds:
            break
    return untraced, traced, probes, perf_counter() - start


def trace_metrics(wl, tracer, untraced: list, traced: list) -> dict:
    out = wl.layer_metrics(tracer, untraced, traced)
    roots = tracer.durations("op", "op")
    walls = [u.wall for u in untraced[: len(roots)]]
    out["trace.overhead_s"] = (median([r - w for r, w in zip(roots, walls)]), "s")
    covered_wall = sum(roots)
    unattributed = sum(t for name, t in tracer.self_times("op").items() if wl.attribute(name) is None)
    out["trace.uncovered_share"] = (unattributed / covered_wall if covered_wall else 0.0, "fraction")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else NULL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        setups = [set_up(wl, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        pre = wl.precheck()
        load_before = os.getloadavg()
        untraced, traced, probes, elapsed = measure(wl, args.seconds, tracer)
        load_after = os.getloadavg()
        # Set up again after the clock stops: samples taken far apart in
        # time make the median steadier on a box whose speed drifts.
        setups += [set_up(wl, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [pre] + untraced + traced
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    for msg in [f for o in ops for f in o.failures]:
        print(f"FAILED {msg}")
    record = {"machine": machine(), "load": contention(load_before, load_after, elapsed, probes)}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(record, sort_keys=True))

    if args.trace:
        found = trace_metrics(wl, tracer, untraced, traced)
        wanted = spec["per_layer"]
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, **record})
        print(f"spans {len(tracer.names)} written to {path.relative_to(BENCH_DIR.parent)}")
    else:
        # Short operations are timed at the reference speed (see
        # common.probe); long ones keep their wall time, because the speed
        # changes within them and probes at their ends misjudge it.
        scales = [o.scale if wl.short_ops else 1.0 for o in untraced]
        latencies = [t * k for o, k in zip(untraced, scales) for t in (o.latencies or [o.wall])]
        tail_s, tail_what = wl.tail(latencies)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        work = sum(o.work for o in untraced)
        found = {
            "work_per_s": (work / sum(o.wall * k for o, k in zip(untraced, scales)), "1/s"),
            "op_ms_p50": (1e3 * median(latencies), "ms"),
            "op_ms_tail": (1e3 * tail_s, "ms"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        wanted = spec["end_to_end"]
        print(f"{THROUGHPUT_NAME[wl.unit]} {found['work_per_s'][0]:.6g} 1/s "
              f"(wall clock: {work / elapsed:.6g} 1/s)")
        print(f"op_ms_tail is the {tail_what}")
        if wl.unit == "calls":
            print(f"call_ms_p50 {found['op_ms_p50'][0]:.6g} ms")
            print(f"call_ms_tail {found['op_ms_tail'][0]:.6g} ms ({tail_what})")
    print(f"failed_frac {failed / max(attempted, 1):.6g} (failed {failed} of {attempted})")

    metrics = {}
    for m in wanted:
        value, unit = found.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            print(f"perfbench: {m['name']} measured in {unit}, declared {m['unit']}", file=sys.stderr)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

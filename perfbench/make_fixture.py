"""Record fixture.json: the inputs the workloads draw from and what the
package returned for each of them when the fixture was made.

    python3 perfbench/make_fixture.py

The workloads compare against these records, so regenerate the fixture
only on purpose (a deliberate change of results), never to make a failing
check pass.  Takes about five minutes on two cores, most of it the sweeps,
which run in one worker process per usable CPU.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import experiments_exact  # noqa: E402
import pair_report  # noqa: E402
from common import FIXTURE, OUT_DIR, import_divgauge  # noqa: E402
from sweep import CHUNK, SUPPORT, digesting  # noqa: E402

SWEEP_SEEDS = list(range(100, 132))
ARGS_PER_ENTRY = 24
ARGS_SEED = 20260


def _sweep_seed(seed: int) -> tuple[dict, dict, dict]:
    """Per-case trial counts and worst slacks of the first two 500-pair
    chunks of a seed, and the clipped value sums of the first chunk."""
    import_divgauge()
    from divgauge import verify

    cases = verify.default_cases()
    sums = {}
    with digesting(verify, sums):
        first = verify._master_chunk((seed, 0, CHUNK, SUPPORT, cases))
    parts = [first, verify._master_chunk((seed, CHUNK, CHUNK, SUPPORT, cases))]
    for part in parts:
        bad = {k: r.violations for k, r in part.items() if r.violations}
        if bad:
            raise SystemExit(f"seed {seed}: violations {bad}")
    labels = sorted(parts[0])
    return (
        {label: [part[label].trials for part in parts] for label in labels},
        {label: [part[label].worst_slack for part in parts] for label in labels},
        sums,
    )


def sweep() -> dict:
    dg = import_divgauge()
    labels = sorted(dg.verify.case_label(b, p) for b, p in dg.verify.default_cases())
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        per_seed = pool.map(_sweep_seed, SWEEP_SEEDS)
    return {
        "support": SUPPORT,
        "chunk": CHUNK,
        "seeds": SWEEP_SEEDS,
        "labels": labels,
        "trials": {str(s): t for s, (t, _, _) in zip(SWEEP_SEEDS, per_seed)},
        "worst_slack": {str(s): w for s, (_, w, _) in zip(SWEEP_SEEDS, per_seed)},
        "value_sums": {str(s): v for s, (_, _, v) in zip(SWEEP_SEEDS, per_seed)},
    }


def experiments() -> dict:
    dg = import_divgauge()
    out = {}
    for name, spec in experiments_exact.config_names().items():
        atoms, checks, violations, values = experiments_exact.check_config(
            dg, experiments_exact.build(dg, spec))
        if violations:
            raise SystemExit(f"{name}: {violations} violations")
        out[name] = {"atoms": atoms, "checks": checks, "values": values}
    return out


def pair_calls() -> dict:
    dg = import_divgauge()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="fixture-", dir=OUT_DIR)
    try:
        ctx = pair_report.Context(dg, workdir)
        out = {}
        for i, name in enumerate(pair_report.ENTRIES):
            entry = pair_report.ENTRIES[name]
            rng = np.random.default_rng([ARGS_SEED, i])
            records = []
            for _ in range(ARGS_PER_ENTRY):
                args = pair_report.make_args(rng, name)
                observed = entry.observe(ctx, args, entry.call(ctx, args))
                problems = entry.check(observed, observed)
                if problems:
                    raise SystemExit(f"{name} {args}: {problems}")
                records.append({"args": args, "expected": observed})
            out[name] = records
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    fixture = {
        "pair_report": pair_calls(),
        "experiments": experiments(),
        "sweep": sweep(),
    }
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()

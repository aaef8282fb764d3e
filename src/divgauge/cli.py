"""divgauge command line: divergences, bounds, comparisons, verification,
generalization-bound sweeps, exact experiments, and the averaged-MI gap curve.

All I/O goes through files and stdout; identical config plus seed produces
byte-identical outputs (floats are written in shortest round-trip form).
Exit codes: 0 success, 2 validation/parse error, 3 verification violations.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import bounds as B
from . import divergences as dv
from . import genbounds as gb
from . import verify as vf
from .dist import AbsContPair, EventMask, FiniteDistribution, JointFinite, product_pair
from .errors import DivgaugeError, ValidationError
from .experiments import (
    GibbsExperiment,
    SuperSampleExperiment,
    run_gibbs_experiment,
    run_supersample_experiment,
)

SEED_ENV = "DIVGAUGE_SEED"


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_pair(path: str) -> AbsContPair:
    """pair.json schema: {"p": {"probs": [...]}, "q": {"probs": [...]}}."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise ValidationError(f"{path}: expected keys 'p' and 'q'")
    return AbsContPair(*(FiniteDistribution.from_obj(obj[side], f"{path}: {side}")
                         for side in "pq"))


def load_joint(path: str) -> JointFinite:
    """joint.json schema: {"matrix": [[...], ...]}."""
    return JointFinite.from_obj(_load_json(path), path)


def parse_grid(text: str) -> np.ndarray:
    """start:stop:step sweep syntax (inclusive of stop up to rounding)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid {text!r} must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"grid {text!r}: {exc}") from exc
    if step <= 0 or stop < start:
        raise ValidationError(f"grid {text!r} must have step > 0 and stop >= start")
    span = (stop - start) / step
    if not all(math.isfinite(x) for x in (start, stop, step, span)):
        raise ValidationError(f"grid {text!r} must have a finite start, stop, step and length")
    n = int(math.floor(span + 1e-9)) + 1
    too_many = f"grid {text!r} has {n} points, more than numpy can hold"
    try:
        points = np.arange(n)
    except ValueError as exc:  # e.g. 0:1e20:1
        raise ValidationError(too_many) from exc
    if points.size != n:  # np.arange returns some counts near 2^63 empty
        raise ValidationError(too_many)
    return start + step * points


def parse_event(text: str, size: int) -> EventMask:
    try:
        code = int(text, 0)  # accepts 0b0101, 0x.., decimal
    except ValueError as exc:
        raise ValidationError(f"event {text!r} is not an integer literal") from exc
    return EventMask.from_int(code, size)


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    """Write JSON (default) or CSV with the resolved config echoed first."""
    fmt = getattr(args, "format", "json")
    text: str
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"
    else:
        if csv_rows is None:
            raise ValidationError("this command has no CSV form")
        lines = ["# config " + json.dumps(payload["config"], sort_keys=True)]
        cols = list(csv_rows[0].keys()) if csv_rows else []
        lines.append(",".join(cols))
        for row in csv_rows:
            lines.append(",".join(_fmt(row[c]) for c in cols))
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args) -> dict:
    skip = {"func"}
    return {
        k: (v if not isinstance(v, float) or math.isfinite(v) else str(v))
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _kind_from_args(args) -> dv.DivergenceKind:
    """The kind of --kind, with its order from the option of that name."""
    if args.kind not in dv.ORDER_PARAMS:
        return dv.DivergenceKind(args.kind)
    option = dv.ORDER_PARAMS[args.kind][0]
    if getattr(args, option) is None:
        raise ValidationError(f"--kind {args.kind} needs --{option}")
    return dv.DivergenceKind(args.kind, getattr(args, option))


_JOINT_KINDS = ("sibson", "maximal_leakage", "mutual_information")


def cmd_div(args) -> int:
    if (args.pair is None) == (args.joint is None):
        raise ValidationError("provide exactly one of --pair / --joint")
    params: dict = {}
    kind_name = args.kind
    if args.joint and args.kind in _JOINT_KINDS:
        joint = load_joint(args.joint)
        if args.kind == "sibson":
            if args.alpha is None:
                raise ValidationError("--kind sibson needs --alpha")
            value = dv.sibson_mi(joint, args.alpha)
            params = {"order": args.alpha}
        elif args.kind == "maximal_leakage":
            value = dv.maximal_leakage(joint)
        else:
            value = dv.mutual_information(joint)
    else:
        if args.kind in _JOINT_KINDS:
            raise ValidationError(f"--kind {args.kind} needs --joint")
        # f-divergences of a joint mean: joint law against its product law
        pair = product_pair(load_joint(args.joint)) if args.joint else load_pair(args.pair)
        kind = _kind_from_args(args)
        value = dv.renyi(pair, kind.param) if kind.name == "renyi" else dv.f_divergence(pair, kind)
        params = {} if kind.param is None else {"order": kind.param}
        kind_name = kind.name
    payload = {
        "config": _config_echo(args),
        "kind": kind_name,
        "params": params,
        "value": value,
    }
    _emit(args, payload)
    return 0


# the bounds with a scalar entry point, from the bound table
_BOUND_DISPATCH = {spec.id: spec for spec in B.BOUNDS.values() if spec.scalar}
# options a bound cannot do without, whenever it takes them
_REQUIRED = {"gamma": "egamma needs --gamma", "beta": "power bounds need --beta"}


def _bound_options(entry) -> tuple[str, ...]:
    """The options of a bound's entry point: its parameters after (q, div),
    less those a ``functools.partial`` fixes."""
    fixed = getattr(entry, "keywords", {})
    return tuple(name for name in list(inspect.signature(entry).parameters)[2:]
                 if name not in fixed)


def cmd_bound(args) -> int:
    spec = _BOUND_DISPATCH.get(args.name)
    if spec is None:
        raise ValidationError(
            f"unknown bound {args.name!r}; choose one of {sorted(_BOUND_DISPATCH)}"
        )
    options = {name: getattr(args, name) for name in _bound_options(spec.scalar)}
    for name, value in options.items():
        if value is None and name in _REQUIRED:
            raise ValidationError(_REQUIRED[name])
    res = spec.scalar(args.q, args.div, **options)
    payload = {
        "config": _config_echo(args),
        "name": res.name,
        "raw": res.raw,
        "value": res.value,
        "free_params": res.free_params,
        "preconditions_met": res.preconditions_met,
        "notes": list(res.notes),
    }
    _emit(args, payload)
    return 0


def cmd_compare(args) -> int:
    pair = load_pair(args.pair)
    config = _config_echo(args)
    if args.event is not None:
        # per-event replica: ours vs competitor vs the true P(E), one row
        # per divergence family
        rows = vf.dominance_rows_at_event(pair, parse_event(args.event, pair.size))
        payload = {"config": config, "p": rows[0]["p"], "q": rows[0]["q"], "rows": rows}
    else:
        rows = vf.dominance_report(pair)
        payload = {"config": config, "rows": rows}
    csv_rows = [{k: ("" if v is None else v) for k, v in r.items()} for r in rows]
    _emit(args, payload, csv_rows)
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    suite = args.suite
    reports: list[dict] = []
    ok = True

    if suite in ("master", "all"):
        merged = vf.master_soundness(
            n_pairs=args.pairs, support=args.support, seed=seed, jobs=args.jobs
        )
        for key in sorted(merged):
            rep = merged[key]
            reports.append(rep.to_dict())
            ok = ok and rep.violations == 0

    if suite in ("identities", "all"):
        ident_ok, ident_reports = _identity_suite(seed)
        reports.extend(ident_reports)
        ok = ok and ident_ok

    if suite in ("selftest", "all"):
        control = vf.harness_self_test(seed=seed)
        caught = control.violations > 0
        entry = control.to_dict()
        entry["bound"] = "negative_control:" + entry["bound"]
        entry["expected_violations"] = True
        reports.append(entry)
        ok = ok and caught

    payload = {
        "config": _config_echo(args),
        "seed": seed,
        "suite": suite,
        "ok": ok,
        "reports": reports,
    }
    _emit(args, payload)
    return 0 if ok else 3


def _identity_suite(seed: int, trials: int = 200) -> tuple[bool, list[dict]]:
    """Exact identities on random pairs: variational form of the hockey-stick
    divergence, order-2 Renyi vs chi-square, unit hockey-stick vs TV."""
    worst_var = 0.0
    worst_d2 = 0.0
    worst_tv = 0.0
    for i in range(trials):
        pair = vf.random_pair(seed, i, 8)
        for g in (0.5, 1.0, 2.0, 5.0):
            rep = vf.verify_egamma_variational(pair, g)
            worst_var = max(worst_var, abs(rep["gap"]))
        chi2 = dv.f_divergence(pair, dv.CHI2)
        if math.isfinite(chi2):
            worst_d2 = max(
                worst_d2, abs(dv.renyi(pair, 2.0) - math.log1p(chi2))
            )
        tv = dv.f_divergence(pair, dv.TV)
        e1 = dv.f_divergence(pair, dv.hockey_stick_kind(1.0))
        worst_tv = max(worst_tv, abs(tv - e1))
    entries = [
        {"bound": f"identity:{name}", "trials": n, "violations": int(worst > 1e-12),
         "worst_slack": worst, "seed": seed, "witness": None}
        for name, n, worst in (
            ("egamma_variational", trials * 4, worst_var),
            ("renyi2_chi2", trials, worst_d2),
            ("unit_hockey_stick_tv", trials, worst_tv),
        )
    ]
    ok = all(e["violations"] == 0 for e in entries)
    return ok, entries


# the divergence values gen_tail_bounds needs, by keyword
_TAIL_KEYS = ("gamma", "e_gamma", "chi2", "h2", "beta", "h_beta")


def _tail_rows(args, eta_grid, divs, exact_tail=None) -> list[dict]:
    setting = gb.SubGaussianSetting(sigma=args.sigma, n=args.n)
    rows = []
    for eta in eta_grid:
        eta = float(eta)
        res = gb.gen_tail_bounds(setting, eta, **{key: divs[key] for key in _TAIL_KEYS})
        row = {"eta": eta, "theta": res.theta}
        row.update((branch, bound.raw) for branch, bound in res.branches.items())
        if "leakage" in divs:
            row["maximal_leakage"] = gb.gen_tail_ml(setting, eta, divs["leakage"]).raw
        if "i_alpha" in divs and "alpha" in divs:
            row["alpha_mi"] = gb.gen_tail_alpha_mi(
                setting, eta, divs["i_alpha"], divs["alpha"]
            ).raw
        row["min"] = min(v for k, v in row.items() if k not in ("eta", "theta"))
        if exact_tail is not None:
            row["exact_tail"] = exact_tail(eta)
        rows.append(row)
    return rows


def cmd_genbound(args) -> int:
    eta_grid = parse_grid(args.eta_grid)
    exact_tail = None
    if args.experiment:
        exp, obj = _experiment_from_file(args.experiment)
        if not isinstance(exp, GibbsExperiment):
            raise ValidationError(
                f"{args.experiment}: genbound runs a gibbs experiment, not type {obj['type']!r}"
            )
        run = run_gibbs_experiment(exp)
        panel = run.divergence_panel(
            alphas=(args.alpha,) if args.alpha else (2.0,),
            betas=(args.beta,),
            gammas=(args.gamma,),
        )
        divs = {
            "gamma": args.gamma,
            "e_gamma": panel["hockey_stick"][args.gamma],
            "chi2": panel["chi2"],
            "h2": panel["squared_hellinger"],
            "beta": args.beta,
            "h_beta": panel["power"][args.beta],
            "leakage": panel["maximal_leakage"],
        }
        if args.alpha:
            divs["alpha"] = args.alpha
            divs["i_alpha"] = panel["sibson_mi"][args.alpha]
        exact_tail = run.exact_tail
    elif args.div_file:
        divs = _load_json(args.div_file)
        for key in _TAIL_KEYS:
            if key not in divs:
                raise ValidationError(f"{args.div_file}: missing key {key!r}")
    else:
        raise ValidationError("provide --div-file or --experiment")
    rows = _tail_rows(args, eta_grid, divs, exact_tail)
    payload = {"config": _config_echo(args), "rows": rows}
    _emit(args, payload, rows)
    return 0


_EXPERIMENT_TYPES = {"gibbs": GibbsExperiment, "supersample": SuperSampleExperiment}


def _experiment_from_file(path: str):
    """(experiment, config object) from an experiment JSON file; its
    "type" (default gibbs) selects the experiment class."""
    obj = _load_json(path)
    kind = obj.get("type", "gibbs") if isinstance(obj, dict) else None
    if kind not in _EXPERIMENT_TYPES:
        raise ValidationError(f"unknown experiment type {kind!r}")
    for key in ("p_z", "loss_table", "n", "temperature"):
        if key not in obj:
            raise ValidationError(f"{path}: missing key {key!r}")
    temperature = obj["temperature"]
    try:  # malformed values, e.g. "p_z": "even"; the experiment checks n
        p_z = np.asarray(obj["p_z"], dtype=float)
        loss_table = np.asarray(obj["loss_table"], dtype=float)
        temperature = math.inf if temperature == "inf" else float(temperature)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    exp = _EXPERIMENT_TYPES[kind](FiniteDistribution(p_z), loss_table, obj["n"], temperature)
    return exp, obj


def cmd_experiment(args) -> int:
    eta_grid = parse_grid(args.eta_grid) if args.eta_grid else None
    exp, obj = _experiment_from_file(args.config)
    payload = {"config": _config_echo(args)}
    if isinstance(exp, GibbsExperiment):
        run = run_gibbs_experiment(exp)
        payload["type"] = "gibbs"
        payload["divergences"] = run.divergence_panel()
    else:
        gammas = obj.get("gammas", [1.0, 2.0, 4.0])
        if not isinstance(gammas, list) or not all(
            isinstance(g, (int, float)) and not isinstance(g, bool) and math.isfinite(g)
            for g in gammas
        ):
            raise ValidationError(f"{args.config}: gammas must be a list of finite numbers")
        run = run_supersample_experiment(exp)
        payload["type"] = "supersample"
        payload["conditional_hockey_stick"] = {
            str(g): run.conditional_hockey_stick(float(g)) for g in gammas
        }
    if eta_grid is not None:
        payload["tails"] = [
            {"eta": float(e), "exact_tail": run.exact_tail(float(e))} for e in eta_grid
        ]
    _emit(args, payload)
    return 0


def cmd_mi_gap(args) -> int:
    """Averaged-MI bound vs its competitor over an I(S;W) grid.

    Emits columns mi, ours, competitor, gap; the minimum gap approaches
    2 (sqrt(8 - 4/e) - sqrt(pi)) * sigma / sqrt(n).
    """
    setting = gb.SubGaussianSetting(sigma=args.sigma, n=args.n)
    grid = parse_grid(args.mi_grid)
    rows = []
    for mi in grid:
        mi = float(mi)
        ours = gb.avg_gen_bound_mi(setting, mi, variant="closed")
        comp = gb.avg_mi_competitor(setting, mi)
        rows.append({"mi": mi, "ours": ours, "competitor": comp, "gap": comp - ours})
    payload = {
        "config": _config_echo(args),
        "rows": rows,
        "min_gap": min(r["gap"] for r in rows),
        "gap_constant_scaled": gb.mi_gap_constant() * args.sigma / math.sqrt(args.n),
    }
    _emit(args, payload, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divgauge",
        description="Divergences, change-of-measure bounds, and exact verification "
        "on finite probability spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        p.add_argument("--seed", type=int, help=f"RNG seed (fallback ${SEED_ENV})")

    p = sub.add_parser("div", help="evaluate an information measure")
    p.add_argument("--pair", help="pair JSON file (dominated pair P, Q)")
    p.add_argument("--joint", help="joint JSON file (matrix over S x W)")
    p.add_argument(
        "--kind",
        required=True,
        choices=(*dv.KINDS, *_JOINT_KINDS),
    )
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--alpha", type=float)
    common(p)
    p.set_defaults(func=cmd_div)

    p = sub.add_parser("bound", help="evaluate one change-of-measure bound")
    p.add_argument("--name", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--div", type=float, required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--q-max", dest="q_max", type=float)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("compare", help="ours vs competitor rows on a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--event", help="event mask literal, e.g. 0b0101")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all", "master", "identities", "selftest"))
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--support", type=int, default=8)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("genbound", help="tail-bound sweep over an eta grid")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta-grid", dest="eta_grid", required=True)
    p.add_argument("--div-file", dest="div_file")
    p.add_argument("--experiment", help="Gibbs experiment JSON for exact tails")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--alpha", type=float)
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_genbound)

    p = sub.add_parser("experiment", help="run an exact enumeration experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-grid", dest="eta_grid")
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("mi-gap", help="averaged-MI bound vs competitor curve")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mi-grid", dest="mi_grid", default="0:10:0.01")
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_mi_gap)

    return ap


_parser = functools.cache(build_parser)  # main's, built on its first call, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DivgaugeError as exc:
        print(f"divgauge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

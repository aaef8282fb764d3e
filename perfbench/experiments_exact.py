"""experiments_exact: exact enumeration experiments and their tail checks.

One operation is a pass over a config set: the 20 criterion-6 configs (14
Gibbs, 6 supersample) plus three large enumerations (Gibbs m=2, k=2 at
n=20 and n=21, supersample n=7; 2.1 M to 4.2 M atoms each).  Every config
gets its 50-point eta grid and every bound-vs-exact-tail check of
criterion 6.  ``--seed`` picks the order of the configs in each pass and
the variant (loss table, sample law, temperature) of each large config;
the atom count of a config does not depend on its variant.  A run at the
2e7-atom cap would need ~5 GB and is left out.
"""

from __future__ import annotations

import math

import numpy as np

from common import Outcome, close, slowest_of_first
from spans import NULL, patched

TAIL_TOL = 1e-9
INF = math.inf
# eta-grid points whose exact tails are recorded and compared
TAIL_PROBES = (0, 24, 49)

_GIBBS_PZ = {"uniform": [0.5, 0.5], "skew": [0.3, 0.7], "tri": [0.3, 0.3, 0.4]}
_GIBBS_TABLES = {
    "t2": [[0.0, 1.0], [1.0, 0.0]],
    "t3": [[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]],
    "t3b": [[0.1, 0.9], [0.8, 0.3], [0.45, 0.5]],
    "m3": [[0.0, 0.5, 1.0], [1.0, 0.4, 0.1]],
}
_SS_PZ = {"uniform": [0.5, 0.5], "skew": [0.35, 0.65]}
_SS_TABLES = {"t2": [[0.0, 1.0], [0.8, 0.1]], "t2b": [[0.2, 0.9], [0.7, 0.0]]}

# (sample law, loss table, n, temperature), as in tests/test_acceptance.py
CRITERION_6 = [
    ("gibbs", _GIBBS_PZ[pz], _GIBBS_TABLES[t], n, temp)
    for pz, t, n, temp in (
        ("uniform", "t2", 4, 0.0), ("uniform", "t2", 6, 1.0),
        ("uniform", "t2", 8, 5.0), ("uniform", "t2", 10, INF),
        ("skew", "t2", 6, 2.0), ("skew", "t2", 10, 8.0),
        ("uniform", "t3", 6, 0.5), ("uniform", "t3", 8, 2.0),
        ("uniform", "t3", 10, INF), ("skew", "t3b", 7, 3.0),
        ("skew", "t3b", 9, 1.5), ("tri", "m3", 5, 2.0),
        ("tri", "m3", 7, INF), ("uniform", "t3b", 10, 4.0),
    )
] + [
    ("supersample", _SS_PZ[pz], _SS_TABLES[t], n, temp)
    for pz, t, n, temp in (
        ("uniform", "t2", 2, 1.0), ("uniform", "t2", 3, 3.0),
        ("uniform", "t2", 4, INF), ("skew", "t2b", 3, 2.0),
        ("skew", "t2b", 4, 5.0), ("uniform", "t2b", 4, 1.0),
    )
]

_BIG_GIBBS_VARIANTS = (
    ([0.5, 0.5], [[0.2, 0.9], [0.7, 0.1]], 2.0),
    ([0.3, 0.7], [[0.0, 1.0], [1.0, 0.0]], 1.0),
    ([0.5, 0.5], [[0.1, 0.8], [0.6, 0.3]], 4.0),
    ([0.4, 0.6], [[0.3, 0.7], [0.9, 0.2]], 0.5),
)
_BIG_SS_VARIANTS = (
    ([0.35, 0.65], [[0.2, 0.9], [0.7, 0.0]], 2.0),
    ([0.5, 0.5], [[0.0, 1.0], [0.8, 0.1]], 1.0),
    ([0.5, 0.5], [[0.2, 0.9], [0.7, 0.0]], 3.0),
    ([0.35, 0.65], [[0.0, 1.0], [0.8, 0.1]], 5.0),
)
# slot -> its variants; one variant of each slot runs in every pass
BIG = {
    "gibbs_n20": [("gibbs", pz, t, 20, temp) for pz, t, temp in _BIG_GIBBS_VARIANTS],
    "gibbs_n21": [("gibbs", pz, t, 21, temp) for pz, t, temp in _BIG_GIBBS_VARIANTS],
    "supersample_n7": [("supersample", pz, t, 7, temp) for pz, t, temp in _BIG_SS_VARIANTS],
}


def config_names() -> dict[str, tuple]:
    """Every config the workload can run, by its fixture key."""
    names = {f"c6_{i:02d}": spec for i, spec in enumerate(CRITERION_6)}
    for slot, variants in BIG.items():
        names.update({f"{slot}_v{j}": spec for j, spec in enumerate(variants)})
    return names


def build(dg, spec):
    kind, pz, table, n, temp = spec
    cls = dg.GibbsExperiment if kind == "gibbs" else dg.SuperSampleExperiment
    return cls(dg.make_distribution(pz), np.array(table, dtype=float), n, temp)


def _flat(panel: dict) -> dict[str, float]:
    out = {}
    for key, value in panel.items():
        if isinstance(value, dict):
            out.update({f"{key}.{k:g}": float(v) for k, v in value.items()})
        else:
            out[key] = float(value)
    return out


def check_config(dg, exp, tracer=NULL) -> tuple[int, int, int, dict]:
    """Enumerate one config and check every bound against its exact tail.

    Returns (atoms, checks, violations, values): values holds the
    divergences the bounds were fed and the exact tails at TAIL_PROBES, for
    comparison with the recorded ones.
    """
    etas = np.linspace(0.02, 1.0, 50)
    checks = violations = 0
    tails = {}
    if isinstance(exp, dg.GibbsExperiment):
        with tracer.span("experiments.enumerate"):
            run = dg.run_gibbs_experiment(exp)
        atoms = int(run.joint.matrix.size)
        with tracer.span("divergences.panel"):
            panel = run.divergence_panel(alphas=(2.0, 4.0), betas=(2.0,), gammas=(1.0, 2.0))
        setting = exp.sub_gaussian_setting()
        span = exp.loss_range[1] - exp.loss_range[0]
        with tracer.span("genbounds.tail"):
            for i, eta in enumerate(etas * span):
                eta = float(eta)
                exact = run.exact_tail(eta)
                if i in TAIL_PROBES:
                    tails[f"exact_tail.eta{i}"] = exact
                values = []
                for g in (1.0, 2.0):
                    res = dg.gen_tail_bounds(
                        setting, eta, gamma=g, e_gamma=panel["hockey_stick"][g],
                        chi2=panel["chi2"], h2=panel["squared_hellinger"],
                        beta=2.0, h_beta=panel["power"][2.0],
                    )
                    values.extend(br.raw for br in res.branches.values())
                values.append(dg.gen_tail_ml(setting, eta, panel["maximal_leakage"]).raw)
                values.append(dg.gen_tail_ml_chi2(setting, eta, panel["maximal_leakage"]).raw)
                for a in (2.0, 4.0):
                    values.append(dg.gen_tail_alpha_mi(setting, eta, panel["sibson_mi"][a], a).raw)
                checks += len(values)
                violations += sum(1 for v in values if not v >= exact - TAIL_TOL)
        values = _flat(panel)
    else:
        with tracer.span("experiments.enumerate"):
            run = dg.run_supersample_experiment(exp)
        atoms = int(run.pair.size)
        gammas = (1.0, 2.0, 4.0)
        with tracer.span("divergences.panel"):
            e_vals = [run.conditional_hockey_stick(g) for g in gammas]
        setting = exp.bounded_loss_setting()
        with tracer.span("genbounds.tail"):
            for g, e_val in zip(gammas, e_vals):
                for i, eta in enumerate(etas * setting.span):
                    eta = float(eta)
                    exact = run.exact_tail(eta)
                    if i in TAIL_PROBES:
                        tails[f"exact_tail.eta{i}"] = exact
                    bound = dg.cmi_tail_egamma(setting, eta, g, e_val)
                    checks += 1
                    violations += int(not bound >= exact - TAIL_TOL)
        values = _flat({"conditional_hockey_stick": dict(zip(gammas, e_vals))})
    values.update({k: float(v) for k, v in tails.items()})
    return atoms, checks, violations, values


class ExperimentsExact:
    unit = "atoms"
    short_ops = False  # a pass takes seconds

    def setup(self, dg, fixture: dict, seed: int, workdir) -> None:
        self.dg = dg
        self.expected = fixture["experiments"]
        self.rng = np.random.default_rng(seed)
        self.experiments = {name: build(dg, spec) for name, spec in config_names().items()}
        self.small = [f"c6_{i:02d}" for i in range(len(CRITERION_6))]

    def precheck(self) -> Outcome:
        return Outcome(work=0, attempted=0, failed=0, failures=[])

    def next_input(self) -> list[str]:
        picks = [f"{slot}_v{int(self.rng.integers(len(v)))}" for slot, v in BIG.items()]
        names = self.small + picks
        return [names[i] for i in self.rng.permutation(len(names))]

    def run(self, names: list[str], tracer=NULL) -> Outcome:
        atoms_total = checks_total = 0
        failures = []
        failed = 0
        for name in names:
            want = self.expected[name]
            try:
                atoms, checks, violations, values = check_config(self.dg, self.experiments[name], tracer)
            except Exception as exc:  # one config failing must not end the run
                failures.append(f"{name}: raised {exc!r}")
                failed += 1
                continue
            atoms_total += atoms
            checks_total += checks
            bad = []
            if violations:
                bad.append(f"{violations} bounds below the exact tail")
            if (atoms, checks) != (want["atoms"], want["checks"]):
                bad.append(f"atoms/checks {atoms}/{checks}, recorded {want['atoms']}/{want['checks']}")
            for key, rec in sorted(want["values"].items()):
                if not close(values.get(key, math.nan), rec):
                    bad.append(f"{key} {values.get(key)!r}, recorded {rec!r}")
            if bad:
                failures.append(f"{name}: " + "; ".join(bad))
                failed += 1
        return Outcome(
            work=atoms_total, attempted=len(names), failed=failed, failures=failures,
            counts={"atoms": atoms_total, "checks": checks_total},
        )

    tail = staticmethod(slowest_of_first)

    def traced(self, names: list[str], tracer) -> Outcome:
        experiments = self.dg.experiments
        with patched(tracer, [(experiments, "product_pair", "dist.product_pair")]):
            with tracer.span("op"):
                return self.run(names, tracer)

    _METRICS = {
        "experiments.enumerate": "experiments.enumerate_s",
        "dist.product_pair": "dist.product_pair_s",
        "divergences.panel": "divergences.panel_s",
        "genbounds.tail": "genbounds.tail_s",
    }

    def attribute(self, span: str) -> str | None:
        return self._METRICS.get(span)

    def layer_metrics(self, tracer, untraced: list, traced: list) -> dict:
        own = tracer.self_times("op")
        passes = max(len(traced), 1)
        out = {metric: (own.get(span, 0.0) / passes, "s/pass") for span, metric in self._METRICS.items()}
        first = next((o.counts for o in traced if o.counts), {})
        out["experiments.atoms"] = (first.get("atoms", 0), "count")
        out["genbounds.checks"] = (first.get("checks", 0), "count")
        return out

"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run pytest -s to see them);
a failure carries the offending instance in its assertion message.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

import divgauge as dg
from divgauge import bounds as B
from divgauge import cli
from divgauge.dist import event_mask_matrix
from divgauge.verify import PairBatch, case_label, default_cases, master_soundness, random_pair_rows
from sibson_oracle import definition_values, sibson_grid_min

MASTER_PAIRS = 10_000
MASTER_SUPPORT = 8
MASTER_SEED = 42


def _batch(seed, start, count, support):
    rows = random_pair_rows(seed, range(start, start + count), support)
    return PairBatch(*rows, event_mask_matrix(support))


def test_criterion_1_master_soundness():
    """10,000 seeded pairs x 256 events x every bound: zero violations."""
    t0 = time.time()
    reports = master_soundness(
        n_pairs=MASTER_PAIRS, support=MASTER_SUPPORT, seed=MASTER_SEED, jobs=1
    )
    elapsed = time.time() - t0
    labels = {case_label(b, p) for b, p in default_cases()}
    assert set(reports) == labels
    total_trials = sum(r.trials for r in reports.values())
    bad = {k: r.to_dict() for k, r in reports.items() if r.violations > 0}
    assert not bad, f"soundness violations: {bad}"
    worst = min(r.worst_slack for r in reports.values())
    assert worst >= -1e-9
    print(
        f"[criterion 1] PASS - {len(reports)} bound cases, {total_trials} trials, "
        f"worst slack {worst:.3e}, {elapsed:.0f}s single-threaded"
    )


def test_criterion_2_dominance():
    """egamma <= strong converse everywhere; the Hellinger row beats its
    competitor; each reverse row's competitor family at its reported optimum
    c* is our bound, and no nearby member of the family is below it; "same"
    rows agree to 1e-12."""
    gammas = (0.5, 1.0, 2.0, 5.0)
    worst_gap_sc = -math.inf
    worst = {k: -math.inf for k in ("hellinger", "reverse_chi2", "reverse_kl", "vincze")}
    worst_at_opt = {k: 0.0 for k in ("reverse_chi2", "reverse_kl", "vincze")}
    reverse_rows = (
        ("reverse_chi2", dg.REVERSE_CHI2, partial(B.competitor_optimum, "reverse_chi2"),
         B.comp_reverse_chi2_ac),
        ("reverse_kl", dg.REVERSE_KL, partial(B.competitor_optimum, "reverse_kl"),
         B.comp_reverse_kl_ac),
        ("vincze", dg.VINCZE_LECAM, partial(B.competitor_optimum, "vincze_lecam"),
         B.comp_vincze_ac),
    )
    worst_same = {"kl": 0.0, "chi2": 0.0}
    n_pairs, batch_size = MASTER_PAIRS, 500
    for start in range(0, n_pairs, batch_size):
        b = _batch(MASTER_SEED, start, batch_size, MASTER_SUPPORT)
        for g in gammas:
            e_val = b.div(dg.hockey_stick_kind(g))
            tail = ((b.r > g) * b.p).sum(axis=1, keepdims=True)
            gap = (g * b.q_events + e_val) - (g * b.q_events + tail)
            worst_gap_sc = max(worst_gap_sc, float(gap.max()))

        h2 = b.div(dg.SQUARED_HELLINGER)
        ours_h = B.hellinger_core(b.q_events, h2)
        comp_h, valid_h = B.comp_sq_hellinger_core(b.q_events, h2)
        if valid_h.any():
            diff = np.where(valid_h, ours_h - comp_h, -np.inf)
            worst["hellinger"] = max(worst["hellinger"], float(diff.max()))

        # c* is read off the logit gap of our bound p*, so it is not defined
        # where p* has rounded to the predecessor of 1 (at events of Q mass
        # within a few ulp of 1)
        inner = (b.q_events > 0.0) & (b.q_events < 1.0)
        for name, kind, optimum, family in reverse_rows:
            d = b.div(kind)
            raw, c_star = optimum(b.q_events, d)
            live = inner & np.isfinite(c_star) & (c_star > 0.0) & (raw < np.nextafter(1.0, 0.0))
            with np.errstate(all="ignore"):
                members = [family(b.q_events, d, c_star * f) for f in (0.5, 0.9, 1.0, 1.1, 2.0)]
                diff = np.where(live, raw - np.min(members, axis=0), -np.inf)
                err = np.where(live, np.abs(members[2] - raw) / raw, 0.0)
            worst[name] = max(worst[name], float(diff.max()))
            worst_at_opt[name] = max(worst_at_opt[name], float(err.max()))

    # "same" rows: ours and the competitor are one formula; check the two
    # public entry points agree on a scalar sample
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = float(rng.uniform(0.01, 0.98))
        d = float(rng.exponential(0.7))
        worst_same["kl"] = max(
            worst_same["kl"],
            abs(dg.bound_kl(q, d).raw - dg.competitor_bound("kl", q, d).raw),
        )
        worst_same["chi2"] = max(
            worst_same["chi2"],
            abs(dg.bound_chi2(q, d).raw - dg.competitor_bound("chi2", q, d).raw),
        )

    assert worst_gap_sc <= 1e-12, worst_gap_sc
    for name, gap in worst.items():
        assert gap <= 1e-10, (name, gap)
    for name, err in worst_at_opt.items():
        assert err <= 1e-12, (name, err)
    assert max(worst_same.values()) <= 1e-12
    print(
        "[criterion 2] PASS - egamma<=strong-converse margin "
        f"{worst_gap_sc:.2e}; tighter-row worst gaps "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + "; family at c* vs ours "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst_at_opt.items())
    )


def test_criterion_3_exact_identities():
    # hockey-stick variational identity on supports up to 12
    worst_var = 0.0
    for idx, support in ((0, 8), (1, 10), (2, 12)):
        pair = dg.random_pair(101, idx, support)
        for g in (0.5, 1.0, 2.0, 5.0):
            rep = dg.verify_egamma_variational(pair, g)
            worst_var = max(worst_var, abs(rep["gap"]))
    assert worst_var <= 1e-12, worst_var

    # order-2 Renyi vs chi-square, unit hockey-stick vs TV
    worst_d2 = worst_tv = 0.0
    for i in range(200):
        pair = dg.random_pair(103, i, 6)
        chi2 = dg.f_divergence(pair, dg.CHI2)
        worst_d2 = max(worst_d2, abs(dg.renyi(pair, 2.0) - math.log1p(chi2)))
        worst_tv = max(
            worst_tv,
            abs(
                dg.f_divergence(pair, dg.TV)
                - dg.f_divergence(pair, dg.hockey_stick_kind(1.0))
            ),
        )
    assert worst_d2 <= 1e-12 and worst_tv <= 1e-12

    # power <-> Renyi conversion round trip
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(500):
        h = float(rng.exponential(2.0)) + 1e-9
        beta = float(rng.uniform(1.01, 40.0))
        back = dg.renyi_to_hellinger(dg.hellinger_to_renyi(h, beta), beta)
        worst_rt = max(worst_rt, abs(back - h) / max(h, 1.0))
    assert worst_rt <= 1e-12, worst_rt

    # Vincze-Le Cam root equals the minimized competitor family
    from divgauge._optim import golden_min

    worst_vc = 0.0
    for _ in range(100):
        q = float(rng.uniform(0.02, 0.9))
        v = float(rng.exponential(0.7))
        ours = dg.bound_vincze_lecam(q, v).raw
        _, amin = golden_min(lambda c: float(B.comp_vincze_ac(q, v, c)))
        worst_vc = max(worst_vc, abs(ours - amin))
    assert worst_vc <= 1e-9, worst_vc

    # binary-KL inversion residual (targets inside the double-precision range)
    worst_kl = 0.0
    for _ in range(500):
        q = float(rng.uniform(0.001, 0.995))
        target = float(rng.uniform(q, 0.999))
        d = max(dg.bernoulli_kl(q, target), 0.0)
        p = dg.invert_binary_kl(q, d)
        worst_kl = max(worst_kl, abs(dg.bernoulli_kl(q, p) - d))
    assert worst_kl <= 1e-12, worst_kl

    # mixture tightness witness for every divergence kind
    kinds = [
        dg.KL, dg.REVERSE_KL, dg.CHI2, dg.REVERSE_CHI2, dg.TV,
        dg.SQUARED_HELLINGER, dg.VINCZE_LECAM, dg.power_kind(2.5),
        dg.hockey_stick_kind(1.5),
    ]
    worst_wit = 0.0
    for p, q in ((0.3, 0.6), (0.75, 0.2), (0.5, 0.5)):
        pair = dg.binary_tightness_witness(p, q, atoms_per_block=3, seed=11)
        for kind in kinds:
            gap = abs(
                dg.f_divergence(pair, kind) - dg.binary_f_divergence(p, q, kind)
            )
            worst_wit = max(worst_wit, gap)
        worst_wit = max(
            worst_wit, abs(dg.renyi(pair, 2.5) - dg.binary_renyi(p, q, 2.5))
        )
    assert worst_wit <= 1e-12, worst_wit
    print(
        f"[criterion 3] PASS - variational {worst_var:.1e}, renyi/chi2 {worst_d2:.1e}, "
        f"tv {worst_tv:.1e}, conversion {worst_rt:.1e}, vc-min {worst_vc:.1e}, "
        f"kl-inversion {worst_kl:.1e}, witness {worst_wit:.1e}"
    )


def test_criterion_4_sibson_closed_form_vs_grid():
    worst = 0.0
    for idx in range(5):
        joint = dg.random_joint(201, idx, 3, 3)
        for alpha in (1.5, 2.0, 4.0):
            closed = dg.sibson_mi(joint, alpha)
            grid = sibson_grid_min(joint, alpha, resolution=1e-3)
            assert grid >= closed - 1e-12, (idx, alpha, grid - closed)
            worst = max(worst, abs(grid - closed))
    assert worst <= 1e-6, worst
    print(f"[criterion 4] PASS - closed form vs grid minimization, worst gap {worst:.2e}")


def _sibson_definition_faults(sibson):
    """(idx, alpha, fault) for criterion 4's joints where `sibson` differs
    from D_alpha(P_SW || P_S x Q_W*) at the closed-form minimizer Q_W* by more
    than 1e-12, or where a seeded marginal gives a smaller D_alpha; the
    grid's 1e-6 cannot see an I_alpha that is wrong by less."""
    faults = []
    for idx in range(5):
        joint = dg.random_joint(201, idx, 3, 3)
        for alpha in (1.5, 2.0, 4.0):
            value = sibson(joint, alpha)
            at_star, others = definition_values(joint, alpha, seed=idx)
            if abs(at_star - value) > 1e-12:
                faults.append((idx, alpha, at_star - value))
            if others.min() < value:
                faults.append((idx, alpha, others.min() - value))
    return faults


def test_criterion_4_sibson_closed_form_is_its_definition():
    assert _sibson_definition_faults(dg.sibson_mi) == []
    print("[criterion 4] PASS - closed form is D_alpha at its minimizer, and no marginal is lower")


def test_sibson_definition_check_sees_what_the_grid_cannot():
    def shrunk(joint, alpha):
        return dg.sibson_mi(joint, alpha) * (1.0 - 1e-9)

    for idx in range(5):
        joint = dg.random_joint(201, idx, 3, 3)
        for alpha in (1.5, 2.0, 4.0):
            value, grid = shrunk(joint, alpha), sibson_grid_min(joint, alpha, resolution=1e-3)
            assert value - 1e-12 <= grid <= value + 1e-6
    assert len(_sibson_definition_faults(shrunk)) == 15


def test_criterion_5_reproduced_numbers(tmp_path):
    const = dg.mi_gap_constant()
    assert const == pytest.approx(1.5653, abs=5e-4)
    assert const == pytest.approx(2 * (math.sqrt(8 - 4 / math.e) - math.sqrt(math.pi)), abs=0)

    sigma, n = 2.0, 25
    out = tmp_path / "gap.csv"
    code = cli.main(
        ["mi-gap", "--sigma", str(sigma), "--n", str(n), "--mi-grid", "0:10:0.01",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()[2:]
    min_gap = min(float(r.split(",")[3]) for r in rows)
    scale = sigma / math.sqrt(n)
    assert abs(min_gap - const * scale) <= 1e-3 * scale, (min_gap, const * scale)
    print(
        f"[criterion 5] PASS - gap constant {const:.6f}, swept minimum "
        f"{min_gap / scale:.6f} (x sigma/sqrt(n))"
    )


def _gibbs_configs():
    uniform = dg.make_distribution([0.5, 0.5])
    skew = dg.make_distribution([0.3, 0.7])
    tri = dg.make_distribution([0.3, 0.3, 0.4])
    t2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    t3 = np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]])
    t3b = np.array([[0.1, 0.9], [0.8, 0.3], [0.45, 0.5]])
    m3 = np.array([[0.0, 0.5, 1.0], [1.0, 0.4, 0.1]])
    cfgs = [
        dg.GibbsExperiment(uniform, t2, 4, 0.0),
        dg.GibbsExperiment(uniform, t2, 6, 1.0),
        dg.GibbsExperiment(uniform, t2, 8, 5.0),
        dg.GibbsExperiment(uniform, t2, 10, math.inf),
        dg.GibbsExperiment(skew, t2, 6, 2.0),
        dg.GibbsExperiment(skew, t2, 10, 8.0),
        dg.GibbsExperiment(uniform, t3, 6, 0.5),
        dg.GibbsExperiment(uniform, t3, 8, 2.0),
        dg.GibbsExperiment(uniform, t3, 10, math.inf),
        dg.GibbsExperiment(skew, t3b, 7, 3.0),
        dg.GibbsExperiment(skew, t3b, 9, 1.5),
        dg.GibbsExperiment(tri, m3, 5, 2.0),
        dg.GibbsExperiment(tri, m3, 7, math.inf),
        dg.GibbsExperiment(uniform, t3b, 10, 4.0),
    ]
    return cfgs


def _supersample_configs():
    uniform = dg.make_distribution([0.5, 0.5])
    skew = dg.make_distribution([0.35, 0.65])
    t2 = np.array([[0.0, 1.0], [0.8, 0.1]])
    t2b = np.array([[0.2, 0.9], [0.7, 0.0]])
    return [
        dg.SuperSampleExperiment(uniform, t2, 2, 1.0),
        dg.SuperSampleExperiment(uniform, t2, 3, 3.0),
        dg.SuperSampleExperiment(uniform, t2, 4, math.inf),
        dg.SuperSampleExperiment(skew, t2b, 3, 2.0),
        dg.SuperSampleExperiment(skew, t2b, 4, 5.0),
        dg.SuperSampleExperiment(uniform, t2b, 4, 1.0),
    ]


def test_criterion_6_end_to_end_generalization_soundness():
    t0 = time.time()
    violations = 0
    checks = 0
    worst = math.inf

    for cfg in _gibbs_configs():
        run = dg.run_gibbs_experiment(cfg)
        setting = cfg.sub_gaussian_setting()
        panel = run.divergence_panel(alphas=(2.0, 4.0), betas=(2.0,), gammas=(1.0, 2.0))
        span = cfg.loss_range[1] - cfg.loss_range[0]
        for eta in np.linspace(0.02, 1.0, 50) * span:
            eta = float(eta)
            exact = run.exact_tail(eta)
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
                values.append(
                    dg.gen_tail_alpha_mi(setting, eta, panel["sibson_mi"][a], a).raw
                )
            for v in values:
                checks += 1
                worst = min(worst, v - exact)
                if v < exact - 1e-9:
                    violations += 1

    for cfg in _supersample_configs():
        run = dg.run_supersample_experiment(cfg)
        setting = cfg.bounded_loss_setting()
        span = setting.span
        for g in (1.0, 2.0, 4.0):
            e_val = run.conditional_hockey_stick(g)
            for eta in np.linspace(0.02, 1.0, 50) * span:
                eta = float(eta)
                exact = run.exact_tail(eta)
                bound = dg.cmi_tail_egamma(setting, eta, g, e_val)
                checks += 1
                worst = min(worst, bound - exact)
                if bound < exact - 1e-9:
                    violations += 1

    n_configs = len(_gibbs_configs()) + len(_supersample_configs())
    assert n_configs >= 20
    assert violations == 0, f"{violations} end-to-end violations"
    print(
        f"[criterion 6] PASS - {n_configs} exact configs, {checks} bound-vs-tail "
        f"checks, worst margin {worst:.3e}, {time.time() - t0:.0f}s"
    )


def test_criterion_7_pac_bayes_ordering():
    setting_grid = [
        dg.SubGaussianSetting(sigma, n)
        for sigma in (0.25, 1.0, 3.0)
        for n in (10, 200)
    ]
    rng = np.random.default_rng(71)
    count = 0
    for beta in np.linspace(1.005, 50.0, 80):
        for setting in setting_grid:
            delta = float(rng.uniform(0.01, 0.5))
            h = float(rng.exponential(1.0))
            res = dg.pac_bayes_bound(setting, delta, h, float(beta))
            assert res["holder"] <= res["integral"] + 1e-12, (beta, delta, h)
            count += 1
    print(f"[criterion 7] PASS - holder variant tighter on all {count} samples")


def test_criterion_8_negative_control():
    rep = dg.harness_self_test()
    assert rep.violations > 0
    assert rep.worst_slack < -1e-9
    print(
        f"[criterion 8] PASS - corrupted chi2 bound flagged with "
        f"{rep.violations} violations (worst slack {rep.worst_slack:.3f})"
    )

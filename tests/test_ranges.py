"""Argument ranges: the one range check, each public numeric parameter's
interval at its ends and at NaN, and a guard that keeps range tests from
being written by hand again."""

import ast
import inspect
import math
from pathlib import Path

import pytest

import divgauge as dg
from divgauge.errors import BoundaryError, RangeError, check_count, check_range

SRC = Path(dg.__file__).resolve().parent

PAIR = dg.random_pair(3, 0, 4)
JOINT = dg.random_joint(3, 0, 3, 2)
MASK = dg.EventMask.from_int(0b0101, 4)
GAUGE = dg.power_orlicz(2.0)
SETTING = dg.SubGaussianSetting(1.0, 10)
LOSS = dg.BoundedLossSetting(0.0, 1.0, 5)
DP = dg.DPParams(0.3, 0.01)
GIBBS = dg.GibbsExperiment(dg.make_distribution([1, 1]), [[0.0, 1.0], [1.0, 0.0]], 3, 1.0)
SUPER = dg.SuperSampleExperiment(dg.make_distribution([1, 1]), [[0.0, 1.0], [1.0, 0.0]], 1, 1.0)

DIV = "[-1e-12, inf]"  # a bound's divergence: within 1e-12 below 0 reads as 0
COUNT = "[1, inf)"  # an integer, probed at 1 and 0 and with 2.5, True and 10**400
COUNT_PROBES = [(1, True), (0, False), (2.5, False), (True, False), (10**400, False)]


def _probes(interval: str) -> list[tuple[float, bool]]:
    """(value, accepted) at each end of `interval`: a finite end's float
    inside and its neighbour outside, an infinite end itself (inside where
    the bracket is closed), an excluded point and its neighbour, and an
    integer past the float range (outside any interval)."""
    body, _, hole = interval.partition(" \\ ")
    lo, hi = (float(x) for x in body[1:-1].split(", "))
    out = []
    for end, closed, outward in ((lo, body[0] == "[", -math.inf), (hi, body[-1] == "]", math.inf)):
        if not math.isfinite(end):
            out.append((end, closed))
        elif closed:
            out += [(end, True), (math.nextafter(end, outward), False)]
        else:
            out += [(math.nextafter(end, -outward), True), (end, False)]
    if hole:
        point = float(hole.strip("{}"))
        out += [(point, False), (math.nextafter(point, math.inf), True)]
    return [*out, (10**400, False)]


# One row per public numeric parameter: its label, a call that reads the
# value, and its interval.  A fourth entry lists the (value, accepted)
# probes where the interval's own ends cannot be reached with the other
# arguments fixed.
ROWS = [
    ("bound_chi2.q", lambda x: dg.bound_chi2(x, 0.1), "[0, 1]"),
    ("bound_chi2.chi2", lambda x: dg.bound_chi2(0.3, x), DIV),
    ("bound_egamma.q", lambda x: dg.bound_egamma(x, 0.1, 2.0), "[0, 1]"),
    ("bound_egamma.e_gamma", lambda x: dg.bound_egamma(0.3, x, 2.0), DIV),
    ("bound_egamma.gamma", lambda x: dg.bound_egamma(0.3, 0.1, x), "(-inf, inf)"),
    ("bound_f_via_egamma.q", lambda x: dg.bound_f_via_egamma(x, 0.1, dg.CHI2, 2.0), "[0, 1]"),
    ("bound_f_via_egamma.df", lambda x: dg.bound_f_via_egamma(0.3, x, dg.CHI2, 2.0), DIV),
    ("bound_f_via_egamma.gamma", lambda x: dg.bound_f_via_egamma(0.3, 0.1, dg.CHI2, x),
     "(1, inf]"),
    ("bound_f_via_egamma.lipschitz",
     lambda x: dg.bound_f_via_egamma(0.3, 0.1, dg.CHI2, 2.0, lipschitz=x), "(0, inf]"),
    ("bound_hellinger.q", lambda x: dg.bound_hellinger(x, 0.1), "[0, 1]"),
    ("bound_hellinger.h2", lambda x: dg.bound_hellinger(0.3, x), "[0, 2]"),
    ("bound_kl.q", lambda x: dg.bound_kl(x, 0.1), "[0, 1]"),
    ("bound_kl.kl", lambda x: dg.bound_kl(0.3, x), DIV),
    ("bound_kl.c", lambda x: dg.bound_kl(0.3, 0.1, c=x), "(0, inf)"),
    ("bound_orlicz.gamma", lambda x: dg.bound_orlicz(PAIR, MASK, x, GAUGE), "(-inf, inf)"),
    ("bound_orlicz_joint.gamma",
     lambda x: dg.bound_orlicz_joint(JOINT, dg.EventMask.from_int(0b010101, 6), x, GAUGE, GAUGE),
     "(-inf, inf)"),
    ("bound_power_beta.q", lambda x: dg.bound_power_beta(x, 0.1, 2.0), "[0, 1]"),
    ("bound_power_beta.h_beta", lambda x: dg.bound_power_beta(0.3, x, 2.0), DIV),
    ("bound_power_beta.beta", lambda x: dg.bound_power_beta(0.3, 0.1, x), "(1, 50]"),
    ("bound_power_beta.q_max", lambda x: dg.bound_power_beta(0.3, 0.1, 2.0, "qmax", x),
     "[0.3, 1)"),
    ("bound_reverse_chi2.q", lambda x: dg.bound_reverse_chi2(x, 0.1), "[0, 1]"),
    ("bound_reverse_chi2.rchi2", lambda x: dg.bound_reverse_chi2(0.3, x), DIV),
    ("bound_reverse_kl.q", lambda x: dg.bound_reverse_kl(x, 0.1), "[0, 1]"),
    ("bound_reverse_kl.dqp", lambda x: dg.bound_reverse_kl(0.3, x, "explicit"), DIV),
    ("bound_strong_converse.gamma", lambda x: dg.bound_strong_converse(PAIR, MASK, x),
     "(-inf, inf)"),
    ("bound_vincze_lecam.q", lambda x: dg.bound_vincze_lecam(x, 0.1), "[0, 1]"),
    ("bound_vincze_lecam.vc", lambda x: dg.bound_vincze_lecam(0.3, x), DIV),
    ("bound_young_fenchel.q", lambda x: dg.bound_young_fenchel(x, 0.1, dg.KL), "[0, 1]"),
    ("bound_young_fenchel.df", lambda x: dg.bound_young_fenchel(0.3, x, dg.KL), DIV),
    ("bound_young_fenchel.u", lambda x: dg.bound_young_fenchel(0.3, 0.1, dg.CHI2, x, 0.0),
     "(0, inf)", [(5e-324, True), (0.0, False), (10**400, False)]),
    ("bound_young_fenchel.v", lambda x: dg.bound_young_fenchel(0.3, 0.1, dg.CHI2, 1.0, x),
     "(-inf, 1)", [(math.nextafter(1.0, 0.0), True), (1.0, False)]),
    ("competitor_bound.q", lambda x: dg.competitor_bound("chi2", x, 0.1), "[0, 1]"),
    ("competitor_bound.div", lambda x: dg.competitor_bound("chi2", 0.3, x), DIV),
    ("competitor_bound.div[squared_hellinger]",
     lambda x: dg.competitor_bound("squared_hellinger", 0.3, x), "[-1e-12, 2]"),
    ("competitor_bound.c", lambda x: dg.competitor_bound("kl", 0.3, 0.1, c=x), "(0, inf)"),
    ("competitor_bound.s", lambda x: dg.competitor_bound("power", 0.3, 0.1, beta=2.0, s=x),
     "(-inf, inf)"),
    ("competitor_bound.beta", lambda x: dg.competitor_bound("power", 0.3, 0.1, beta=x),
     "(1, 50]"),
    ("invert_binary_kl.q", lambda x: dg.invert_binary_kl(x, 0.1), "(0, 1)"),
    ("invert_binary_kl.d", lambda x: dg.invert_binary_kl(0.3, x), DIV),
    ("DivergenceKind.param[power]", lambda x: dg.DivergenceKind("power", x), "(1, 50]"),
    ("DivergenceKind.param[renyi]", lambda x: dg.DivergenceKind("renyi", x), "(0, inf) \\ {1}"),
    ("DivergenceKind.param[hockey_stick]", lambda x: dg.DivergenceKind("hockey_stick", x),
     "(-inf, inf)"),
    ("power_kind.beta", dg.power_kind, "(1, 50]"),
    ("renyi_kind.alpha", dg.renyi_kind, "(0, inf) \\ {1}"),
    ("hockey_stick_kind.gamma", dg.hockey_stick_kind, "(-inf, inf)"),
    ("bernoulli_kl.a", lambda x: dg.bernoulli_kl(x, 0.3), "[0, 1]"),
    ("bernoulli_kl.b", lambda x: dg.bernoulli_kl(0.3, x), "(0, 1)"),
    ("binary_f_divergence.p", lambda x: dg.binary_f_divergence(x, 0.3, dg.KL), "[0, 1]"),
    ("binary_f_divergence.q", lambda x: dg.binary_f_divergence(0.3, x, dg.CHI2), "(0, 1)"),
    ("binary_renyi.p", lambda x: dg.binary_renyi(x, 0.3, 2.0), "[0, 1]"),
    ("binary_renyi.q", lambda x: dg.binary_renyi(0.3, x, 2.0), "(0, 1)"),
    ("binary_renyi.alpha", lambda x: dg.binary_renyi(0.3, 0.4, x), "(0, inf) \\ {1}"),
    ("renyi.alpha", lambda x: dg.renyi(PAIR, x), "(0, inf) \\ {1}"),
    ("hellinger_to_renyi.h_beta", lambda x: dg.hellinger_to_renyi(x, 2.0), "[0, inf]"),
    ("hellinger_to_renyi.beta", lambda x: dg.hellinger_to_renyi(0.1, x), "(1, inf)"),
    ("renyi_to_hellinger.d_alpha", lambda x: dg.renyi_to_hellinger(x, 2.0), "[-inf, inf]"),
    ("renyi_to_hellinger.alpha", lambda x: dg.renyi_to_hellinger(0.1, x), "(1, inf)"),
    ("sibson_mi.alpha", lambda x: dg.sibson_mi(JOINT, x), "(1, inf]"),
    ("fiber_constants.alpha", lambda x: dg.fiber_constants(JOINT, x), "(1, inf]"),
    ("power_orlicz.kappa", dg.power_orlicz, "(1, inf)"),
    ("luxemburg_indicator_norm.q", lambda x: dg.luxemburg_indicator_norm(x, GAUGE), "(0, 1]"),
    ("amemiya_norm.gamma", lambda x: dg.amemiya_norm(PAIR, x, GAUGE), "[-inf, inf]"),
    ("SubGaussianSetting.sigma", lambda x: dg.SubGaussianSetting(x, 10), "(0, inf)"),
    ("SubGaussianSetting.n", lambda x: dg.SubGaussianSetting(1.0, x), COUNT),
    ("SubGaussianSetting.theta.eta", SETTING.theta, "(0, inf]"),
    ("BoundedLossSetting.a", lambda x: dg.BoundedLossSetting(x, 1.0, 5), "[-inf, 1)"),
    ("BoundedLossSetting.b", lambda x: dg.BoundedLossSetting(0.0, x, 5), "(0, inf]"),
    ("BoundedLossSetting.n", lambda x: dg.BoundedLossSetting(0.0, 1.0, x), COUNT),
    ("DPParams.epsilon", lambda x: dg.DPParams(x, 1e-3 * x), "(0, 0.5]",
     [(1e-320, True), (0.0, False), (0.5, True), (math.nextafter(0.5, 1.0), False)]),
    ("DPParams.delta", lambda x: dg.DPParams(0.3, x), "(0, 0.3)"),
    ("DPParams.c1", lambda x: dg.DPParams(0.3, 0.01, c1=x), "(0, inf]"),
    ("DPParams.c2", lambda x: dg.DPParams(0.3, 0.01, c2=x), "(0, inf]"),
    ("gen_tail_bounds.eta",
     lambda x: dg.gen_tail_bounds(SETTING, x, gamma=1.0, e_gamma=0.1, chi2=0.1, h2=0.1,
                                  beta=2.0, h_beta=0.1), "(0, inf]"),
    *((f"gen_tail_bounds.{key}",
       lambda x, key=key: dg.gen_tail_bounds(SETTING, 0.5, **{
           "gamma": 1.0, "e_gamma": 0.1, "chi2": 0.1, "h2": 0.1, "beta": 2.0, "h_beta": 0.1,
           key: x}), interval)
      for key, interval in (("gamma", "(-inf, inf)"), ("e_gamma", "[0, inf]"),
                            ("chi2", "[0, inf]"), ("h2", "[0, inf]"), ("beta", "(1, 50]"),
                            ("h_beta", "[0, inf]"))),
    ("gen_tail_ml.eta", lambda x: dg.gen_tail_ml(SETTING, x, 0.1), "(0, inf]"),
    ("gen_tail_ml.leakage", lambda x: dg.gen_tail_ml(SETTING, 0.5, x), "[0, inf]"),
    ("gen_tail_ml_chi2.eta", lambda x: dg.gen_tail_ml_chi2(SETTING, x, 0.1), "(0, inf]"),
    ("gen_tail_ml_chi2.leakage", lambda x: dg.gen_tail_ml_chi2(SETTING, 0.5, x), "[0, inf]"),
    ("gen_tail_alpha_mi.eta", lambda x: dg.gen_tail_alpha_mi(SETTING, x, 0.1, 2.0), "(0, inf]"),
    ("gen_tail_alpha_mi.i_alpha", lambda x: dg.gen_tail_alpha_mi(SETTING, 0.5, x, 2.0),
     "[0, inf]"),
    ("gen_tail_alpha_mi.alpha", lambda x: dg.gen_tail_alpha_mi(SETTING, 0.5, 0.1, x),
     "(1, inf]"),
    ("pac_bayes_bound.delta", lambda x: dg.pac_bayes_bound(SETTING, x, 0.1, 2.0), "(0, 1)"),
    ("pac_bayes_bound.h_beta", lambda x: dg.pac_bayes_bound(SETTING, 0.1, x, 2.0), "[0, inf]"),
    ("pac_bayes_bound.beta", lambda x: dg.pac_bayes_bound(SETTING, 0.1, 0.1, x), "(1, inf)"),
    ("cmi_tail_egamma.eta", lambda x: dg.cmi_tail_egamma(LOSS, x, 1.0, 0.1), "(0, inf]"),
    ("cmi_tail_egamma.gamma", lambda x: dg.cmi_tail_egamma(LOSS, 0.5, x, 0.1), "(-inf, inf)"),
    ("cmi_tail_egamma.e_gamma_cond", lambda x: dg.cmi_tail_egamma(LOSS, 0.5, 1.0, x),
     "[0, inf]"),
    ("cmi_tail_orlicz.eta", lambda x: dg.cmi_tail_orlicz(LOSS, x, 1.0, PAIR, GAUGE), "(0, inf]"),
    ("cmi_tail_orlicz.gamma", lambda x: dg.cmi_tail_orlicz(LOSS, 0.5, x, PAIR, GAUGE),
     "(-inf, inf)"),
    ("cmi_convert.delta", lambda x: dg.cmi_convert(lambda d: 0.0, x, LOSS), "(0, 1)"),
    ("dp_egamma_cap.n", lambda x: dg.dp_egamma_cap(DP, x), COUNT),
    ("dp_gen_bound.eta", lambda x: dg.dp_gen_bound(SETTING, x, DP), "(0, 1)"),
    ("avg_gen_bound_mi.mi", lambda x: dg.avg_gen_bound_mi(SETTING, x), "[0, inf]"),
    ("avg_mi_competitor.mi", lambda x: dg.avg_mi_competitor(SETTING, x), "[0, inf]"),
    ("GibbsExperiment.n", lambda x: dg.GibbsExperiment(GIBBS.p_z, GIBBS.loss_table, x, 1.0),
     COUNT),
    ("GibbsExperiment.temperature",
     lambda x: dg.GibbsExperiment(GIBBS.p_z, GIBBS.loss_table, 3, x), "[0, inf]"),
    ("SuperSampleExperiment.n",
     lambda x: dg.SuperSampleExperiment(SUPER.p_z, SUPER.loss_table, x, 1.0), COUNT),
    ("SuperSampleExperiment.temperature",
     lambda x: dg.SuperSampleExperiment(SUPER.p_z, SUPER.loss_table, 1, x), "[0, inf]"),
    ("GibbsRun.exact_tail.eta", lambda x: dg.run_gibbs_experiment(GIBBS).exact_tail(x),
     "[-inf, inf]"),
    ("SuperSampleRun.conditional_hockey_stick.gamma",
     lambda x: dg.run_supersample_experiment(SUPER).conditional_hockey_stick(x), "(-inf, inf)"),
    ("approx_max_info.tau", lambda x: dg.approx_max_info(PAIR, x), "[0, 1)"),
    ("binary_tightness_witness.p", lambda x: dg.binary_tightness_witness(x, 0.3, 2), "(0, 1)"),
    # at q = 5e-324, q R1 underflows where P keeps mass, and P is not dominated
    ("binary_tightness_witness.q", lambda x: dg.binary_tightness_witness(0.3, x, 2), "(0, 1)",
     [(1e-300, True), (0.0, False), (math.nextafter(1.0, 0.0), True), (1.0, False)]),
    ("binary_tightness_witness.atoms_per_block",
     lambda x: dg.binary_tightness_witness(0.3, 0.4, x), COUNT),
    ("harness_self_test.n_pairs", lambda x: dg.harness_self_test(n_pairs=x, support=3), COUNT),
    ("harness_self_test.support", lambda x: dg.harness_self_test(n_pairs=1, support=x), COUNT),
    ("master_soundness.n_pairs",
     lambda x: dg.master_soundness(n_pairs=x, support=2, cases=[("chi2", {})]), COUNT),
    ("master_soundness.support",
     lambda x: dg.master_soundness(n_pairs=1, support=x, cases=[("chi2", {})]), COUNT),
    ("master_soundness.batch_size",
     lambda x: dg.master_soundness(n_pairs=1, support=2, cases=[("chi2", {})], batch_size=x),
     COUNT),
    ("random_pair.support", lambda x: dg.random_pair(0, 0, x), COUNT),
    ("random_pair.zero_prob", lambda x: dg.random_pair(0, 0, 3, zero_prob=x), "[0, 1]"),
    ("verify_egamma_variational.gamma", lambda x: dg.verify_egamma_variational(PAIR, x),
     "(-inf, inf)"),
]


# (probe, value) where a row's end reaches a corner of the arithmetic: the
# call must return the exact value (mpmath, 50 digits) within 4 ulp, not
# only return.  At b = 5e-324, (a - b) / b overflows.
AT_ENDS = {"bernoulli_kl.b": (5e-324, 222.72115727435948)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_every_numeric_argument_keeps_its_interval_and_rejects_nan(row):
    label, call, interval, *probes = row
    if probes:
        probes = probes[0]
    elif interval == COUNT:
        probes = COUNT_PROBES
    else:
        probes = _probes(interval)
    for value, accepted in [*probes, (math.nan, False)]:
        if accepted:
            got = call(value)
            if AT_ENDS.get(label, (None,))[0] == value:
                exact = AT_ENDS[label][1]
                assert abs(got - exact) <= 4 * math.ulp(exact), (value, got)
        else:
            with pytest.raises(RangeError):
                call(value)


# Calls with a faulty argument at Q(E) in {0, 1}, where an entry point
# returns the degenerate bound: each checks all its arguments first.
DEGENERATE_ROWS = [
    ("bound_kl.c", lambda q: dg.bound_kl(q, 0.1, c=math.nan)),
    ("competitor_bound.beta[missing]", lambda q: dg.competitor_bound("power", q, 0.1)),
    ("competitor_bound.beta", lambda q: dg.competitor_bound("power", q, 0.1, beta=math.nan)),
    ("competitor_bound.div[squared_hellinger]",
     lambda q: dg.competitor_bound("squared_hellinger", q, 3.0)),
    ("bound_power_beta.q_max",
     lambda q: dg.bound_power_beta(q, 0.1, 2.0, mode="qmax", q_max=math.nan)),
    ("bound_young_fenchel.u", lambda q: dg.bound_young_fenchel(q, 0.1, dg.CHI2, u=math.nan, v=0.0)),
]


@pytest.mark.parametrize("q", [0.0, 1.0])
@pytest.mark.parametrize("call", [row[1] for row in DEGENERATE_ROWS],
                         ids=[row[0] for row in DEGENERATE_ROWS])
def test_degenerate_events_do_not_skip_the_argument_checks(call, q):
    with pytest.raises(RangeError):
        call(q)


# exported records of results, whose numeric fields are outputs, and the
# arguments that only seed or size a random draw
NOT_ARGUMENTS = {"BoundResult", "GenTailResult", "VerificationReport", "OrliczSpec",
                 "GibbsRun", "SuperSampleRun", "random_joint"}


def test_every_public_numeric_parameter_has_a_row():
    labels = {row[0].split("[")[0] for row in ROWS}
    missing = [
        f"{name}.{param.name}"
        for name in dg.__all__
        if callable(getattr(dg, name)) and name not in NOT_ARGUMENTS
        for param in inspect.signature(getattr(dg, name)).parameters.values()
        if str(param.annotation).startswith(("float", "int"))
        and param.name not in ("seed", "index", "jobs")
        and f"{name}.{param.name}" not in labels
    ]
    assert missing == []


def test_check_range_message_and_error_class():
    assert check_range(0.5, "q", "[0, 1]") == 0.5
    assert type(check_range(2, "n", "[1, inf)")) is float
    cases = [
        (1.5, "q", "[0, 1]", "q = 1.5 must lie in [0, 1]"),
        (math.nan, "q", "[0, 1]", "q = nan must lie in [0, 1]"),
        (0, "n", "[1, inf)", "n = 0 must lie in [1, inf)"),
        (None, "beta", "(1, 50]", "beta = None must lie in (1, 50]"),
        ("x", "gamma", "(-inf, inf)", "gamma = 'x' must lie in (-inf, inf)"),
        (1.0, "alpha", "(0, inf) \\ {1}", "alpha = 1.0 must lie in (0, inf) \\ {1}"),
        (math.inf, "c", "(0, inf)", "c = inf must lie in (0, inf)"),
        (10**400, "n", "[1, inf)", "n = 1.000000e+400 must lie in [1, inf)"),
        (-7 * 10**45 - 1, "n", "[1, inf)", "n = -7.000000e+45 must lie in [1, inf)"),
        ("x" * 50, "gamma", "(-inf, inf)", f"gamma = '{'x' * 36}... must lie in (-inf, inf)"),
    ]
    for value, name, interval, message in cases:
        with pytest.raises(RangeError) as info:
            check_range(value, name, interval)
        assert str(info.value) == message
    with pytest.raises(BoundaryError, match=r"^q = 0.0 must lie in \(0, 1\)$"):
        check_range(0.0, "q", "(0, 1)", BoundaryError)


def test_check_count_returns_an_int_or_names_the_interval():
    for value in (1, 8.0, 2**70):
        n = check_count(value, "n")
        assert type(n) is int and n == value
    for value in (0, 2.5, True, "3", None, math.inf, 10**400):
        with pytest.raises(RangeError, match=r" must be an integer in \[1, inf\)$"):
            check_count(value, "n")


def test_callers_keep_an_integral_count_as_an_int():
    assert type(dg.GibbsExperiment(GIBBS.p_z, GIBBS.loss_table, 3.0, 1.0).n) is int
    assert type(dg.SuperSampleExperiment(SUPER.p_z, SUPER.loss_table, 1.0, 1.0).n) is int
    assert type(dg.SubGaussianSetting(1.0, 10.0).n) is int
    assert type(dg.BoundedLossSetting(0.0, 1.0, 5.0).n) is int
    assert dg.dp_egamma_cap(DP, 4.0) == dg.dp_egamma_cap(DP, 4)
    assert dg.binary_tightness_witness(0.3, 0.4, 2.0).p.size == 4
    report = dg.harness_self_test(n_pairs=3.0, support=3.0)
    assert report.to_dict() == dg.harness_self_test(n_pairs=3, support=3).to_dict()


# Outside errors.py, the only hand-written range tests left are those that
# relate two arguments, written as the condition that must hold so that a
# NaN fails them: (function, count).
TWO_ARGUMENT_CHECKS = {
    "bounds.bound_power_beta": 1,  # q <= q_max < 1
    "bounds.bound_young_fenchel": 2,  # u > v, and f* finite at both
    "bounds.bound_orlicz_joint": 1,  # the mask's length against the joint's size
    "genbounds.BoundedLossSetting.__post_init__": 1,  # b > a
    "genbounds.DPParams.__post_init__": 1,  # delta < epsilon
}


def _range_raises(path: Path) -> dict[str, int]:
    """Per enclosing function, the `raise RangeError` and `raise
    BoundaryError` statements of one module."""
    found: dict[str, int] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in ("RangeError", "BoundaryError"):
                    key = ".".join([path.stem, *scope])
                    found[key] = found.get(key, 0) + 1
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_range_checks_are_not_written_by_hand():
    found: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            found.update(_range_raises(path))
    assert found == TWO_ARGUMENT_CHECKS

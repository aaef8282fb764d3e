import math

import numpy as np
import pytest

import divgauge as dg
from divgauge import (
    BoundedLossSetting,
    DPParams,
    SubGaussianSetting,
    avg_gen_bound_mi,
    avg_mi_competitor,
    cmi_convert,
    cmi_tail_egamma,
    cmi_tail_orlicz,
    dp_egamma_cap,
    dp_gen_bound,
    gen_tail_alpha_mi,
    gen_tail_bounds,
    gen_tail_ml,
    gen_tail_ml_chi2,
    mi_gap_constant,
    pac_bayes_bound,
)
from divgauge.errors import RangeError
from divgauge.verify import approx_max_info


SETTING = SubGaussianSetting(sigma=1.0, n=100)


def test_theta_formula_and_monotonicity():
    s = SubGaussianSetting(sigma=0.5, n=20)
    etas = np.linspace(0.01, 2.0, 25)
    thetas = [s.theta(float(e)) for e in etas]
    assert all(0.0 < t <= 2.0 for t in thetas)
    assert all(b < a for a, b in zip(thetas, thetas[1:]))
    assert s.theta(0.3) == pytest.approx(2 * math.exp(-20 * 0.09 / (2 * 0.25)), abs=0)
    with pytest.raises(RangeError):
        s.theta(0.0)


def test_settings_validate():
    with pytest.raises(RangeError):
        SubGaussianSetting(sigma=0.0, n=5)
    with pytest.raises(RangeError):
        SubGaussianSetting(sigma=1.0, n=0)
    with pytest.raises(RangeError):
        BoundedLossSetting(a=1.0, b=1.0, n=5)


def test_gen_tail_all_zero_divergences_min_is_theta():
    eta = 0.5
    theta = SETTING.theta(eta)
    assert theta < 1
    res = gen_tail_bounds(
        SETTING, eta, gamma=1.0, e_gamma=0.0, chi2=0.0, h2=0.0, beta=2.0, h_beta=0.0
    )
    assert res.branches["hockey_stick"].raw == pytest.approx(theta, abs=1e-12)
    assert res.min_value == pytest.approx(theta, abs=1e-9)
    assert not res.vacuous


def test_gen_tail_branches_match_bound_ops_at_theta():
    eta, gamma, beta = 0.35, 1.5, 2.0
    divs = dict(e_gamma=0.07, chi2=0.4, h2=0.15, h_beta=0.6)
    theta = SETTING.theta(eta)
    res = gen_tail_bounds(
        SETTING, eta, gamma=gamma, beta=beta,
        e_gamma=divs["e_gamma"], chi2=divs["chi2"], h2=divs["h2"], h_beta=divs["h_beta"],
    )
    assert res.branches["hockey_stick"].raw == pytest.approx(
        dg.bound_egamma(theta, divs["e_gamma"], gamma).raw, abs=1e-12
    )
    assert res.branches["chi2"].raw == pytest.approx(
        dg.bound_chi2(theta, divs["chi2"]).raw, abs=1e-12
    )
    assert res.branches["hellinger"].raw == pytest.approx(
        dg.bound_hellinger(theta, divs["h2"]).raw, abs=1e-12
    )
    assert res.branches["power"].raw == pytest.approx(
        dg.bound_power_beta(theta, divs["h_beta"], beta, mode="small_q").raw, abs=1e-12
    )
    assert res.min_value <= min(b.raw for b in res.branches.values()) + 1e-15


def test_gen_tail_vacuous_flag_at_tiny_eta():
    res = gen_tail_bounds(
        SETTING, 1e-4, gamma=1.0, e_gamma=0.5, chi2=1.0, h2=0.5, beta=2.0, h_beta=1.0
    )
    assert res.theta > 1
    assert res.vacuous


def test_gen_tail_ml_and_relaxations():
    eta = 0.4
    theta = SETTING.theta(eta)
    assert gen_tail_ml(SETTING, eta, 0.0).raw == pytest.approx(theta, abs=1e-15)
    leak = 0.8
    assert gen_tail_ml(SETTING, eta, leak).raw == pytest.approx(
        theta * math.exp(leak), abs=1e-12
    )
    relaxed = gen_tail_ml_chi2(SETTING, eta, leak)
    assert relaxed.raw == pytest.approx(
        theta + math.sqrt(theta * math.expm1(leak)), abs=1e-12
    )


def test_gen_tail_alpha_mi_limits_to_leakage_bound():
    eta, leak = 0.4, 0.6
    ml = gen_tail_ml(SETTING, eta, leak).raw
    big = gen_tail_alpha_mi(SETTING, eta, leak, 1e6).raw
    assert abs(big - ml) / ml <= 1e-4
    with pytest.raises(RangeError):
        gen_tail_alpha_mi(SETTING, eta, 0.5, 1.0)


def test_gen_tail_alpha_mi_at_infinity_is_the_leakage_bound():
    # the exponent (alpha - 1) / alpha is 1 at alpha = inf, not (inf - 1) / inf = nan
    for eta, leak in ((0.4, 0.6), (0.05, 0.0), (1.5, 3.0)):
        ml = gen_tail_ml(SETTING, eta, leak).raw
        assert float.hex(gen_tail_alpha_mi(SETTING, eta, leak, math.inf).raw) == float.hex(ml)
    # finite orders keep theta^frac exp(frac I_alpha), bit for bit
    theta = SETTING.theta(0.4)
    for alpha in (1.5, 2.0, 4.0, 1e6):
        frac = (alpha - 1.0) / alpha
        want = theta**frac * math.exp(frac * 0.6)
        assert float.hex(gen_tail_alpha_mi(SETTING, 0.4, 0.6, alpha).raw) == float.hex(want)


def test_all_bounds_weakly_decrease_in_n():
    etas = (0.2, 0.5)
    for eta in etas:
        prev = None
        for n in (10, 20, 40, 80):
            s = SubGaussianSetting(sigma=1.0, n=n)
            vals = (
                gen_tail_ml(s, eta, 0.3).raw,
                gen_tail_bounds(
                    s, eta, gamma=1.0, e_gamma=0.1, chi2=0.3, h2=0.1, beta=2.0, h_beta=0.3
                ).min_value,
            )
            if prev is not None:
                assert all(v <= p + 1e-12 for v, p in zip(vals, prev))
            prev = vals


def test_pac_bayes_holder_variant_always_tighter():
    for beta in np.linspace(1.01, 50.0, 60):
        for h in (0.0, 0.5, 5.0):
            res = pac_bayes_bound(SETTING, 0.05, h, float(beta))
            assert res["holder"] <= res["integral"] + 1e-12


def test_pac_bayes_plug_in_value():
    # delta -> 1 and h = 0 strip the bound to its constant part
    beta = 2.0
    res = pac_bayes_bound(SETTING, 1.0 - 1e-12, 0.0, beta)
    want = math.sqrt(2 / 100) * (
        math.log(math.sqrt(math.pi * beta / (beta - 1))) + beta / (4 * (beta - 1))
    )
    assert res["integral"] == pytest.approx(want, rel=1e-9)


def test_pac_bayes_scaling_in_n():
    a = pac_bayes_bound(SubGaussianSetting(1.0, 50), 0.1, 0.3, 2.0)
    b = pac_bayes_bound(SubGaussianSetting(1.0, 100), 0.1, 0.3, 2.0)
    assert b["integral"] == pytest.approx(a["integral"] / math.sqrt(2), rel=1e-12)
    assert b["holder"] == pytest.approx(a["holder"] / math.sqrt(2), rel=1e-12)


def test_cmi_tail_formulas():
    setting = BoundedLossSetting(a=0.0, b=1.0, n=25)
    eta = 0.3
    base = 2 * math.exp(-25 * 0.09 / 2.0)
    assert cmi_tail_egamma(setting, eta, 1.0, 0.0) == pytest.approx(base, abs=1e-15)
    assert cmi_tail_egamma(setting, eta, 2.0, 0.05) == pytest.approx(
        0.05 + 2.0 * base, abs=1e-15
    )


def test_cmi_tail_orlicz_reduces_when_amemiya_vanishes():
    setting = BoundedLossSetting(a=0.0, b=1.0, n=25)
    pair = dg.random_pair(51, 0, 6, zero_prob=0.0)
    gamma = float(pair.ratios.max()) + 0.5
    got = cmi_tail_orlicz(setting, 0.3, gamma, pair, dg.power_orlicz(2.0))
    assert got == pytest.approx(gamma * setting.theta(0.3), abs=1e-12)


def test_cmi_tail_orlicz_is_zero_when_theta_underflows():
    setting = BoundedLossSetting(a=0.0, b=1.0, n=2000)
    assert setting.theta(1.0) == 0.0
    pair = dg.random_pair(51, 0, 6, zero_prob=0.0)
    for spec in (dg.power_orlicz(2.0), dg.custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 / 2)):
        assert cmi_tail_orlicz(setting, 1.0, 1.0, pair, spec) == 0.0


def test_cmi_convert_composes_the_slack_term():
    setting = BoundedLossSetting(a=0.0, b=1.0, n=16)
    eps = lambda d: 2.0 * d  # noqa: E731
    delta = 0.2
    want = 2.0 * (delta / 2) + math.sqrt(1.0 / 32 * math.log(4 / delta))
    assert cmi_convert(eps, delta, setting) == pytest.approx(want, abs=1e-15)


def test_tail_bounds_past_the_exponent_range():
    s = SubGaussianSetting(1.0, 10)
    theta = s.theta(0.5)
    # below the overflow each keeps the bits of its formula
    assert float.hex(gen_tail_ml(s, 0.5, 709.0).raw) == float.hex(theta * math.exp(709.0))
    assert float.hex(gen_tail_ml_chi2(s, 0.5, 709.0).raw) == float.hex(
        theta + math.sqrt(theta * math.expm1(709.0)))
    assert float.hex(gen_tail_alpha_mi(s, 0.5, 1419.0, 2.0).raw) == float.hex(
        theta**0.5 * math.exp(709.5))
    # past it: theta e^x where that is finite, written with e^x split in two
    assert gen_tail_ml(s, 0.5, 710.0).raw == pytest.approx(
        theta * math.exp(1.0) * math.exp(709.0), rel=1e-12)
    assert gen_tail_ml_chi2(s, 0.5, 1000.0).raw == pytest.approx(
        theta + math.sqrt(theta) * math.exp(500.0), rel=1e-12)
    assert gen_tail_alpha_mi(s, 0.5, 1420.0, 2.0).raw == pytest.approx(
        math.sqrt(theta) * math.exp(1.0) * math.exp(709.0), rel=1e-12)
    # +inf where it is not, and where theta underflowed to 0 (never 0 * inf)
    assert s.theta(1e3) == 0.0
    for eta in (0.5, 1e3):
        assert gen_tail_ml(s, eta, 800.0).raw == math.inf
        assert gen_tail_ml_chi2(s, eta, 1500.0).raw == math.inf
        assert gen_tail_alpha_mi(s, eta, 1600.0, 2.0).raw == math.inf
        assert gen_tail_alpha_mi(s, eta, 800.0, math.inf).raw == math.inf


def test_dp_bound_past_the_exponent_range():
    dp = DPParams(epsilon=0.5, delta=1e-3)
    # k = 29,472 and theta underflows to 0
    assert dp_gen_bound(SubGaussianSetting(1.0, 100_000), 0.5, dp) == math.inf
    # k = 1000.1 > 709.8, theta = 2 e^-700 > 0
    s = SubGaussianSetting(1.0, 3393)
    eta = math.sqrt(1400.0 / 3393)
    k, tau = dp_egamma_cap(dp, 3393)
    theta = s.theta(eta)
    assert k > 710.0 and theta > 0.0
    assert dp_gen_bound(s, eta, dp) == pytest.approx(
        theta * math.exp(700.0) * math.exp(k - 700.0) + tau, rel=1e-12)


def test_extreme_sigmas_give_their_limits():
    # 2 sigma^2 underflows to 0 at sigma = 1e-200, and sigma^2 overflows at 1e200
    assert SubGaussianSetting(1e-200, 5).theta(0.1) == 0.0
    assert BoundedLossSetting(0.0, 1e-200, 5).theta(0.1) == 0.0
    assert SubGaussianSetting(1e200, 5).theta(0.1) == 2.0
    assert SubGaussianSetting(1e200, 5).theta(math.inf) == 0.0
    big, unit = pac_bayes_bound(SubGaussianSetting(1e200, 5), 0.1, 0.1, 2.0), pac_bayes_bound(
        SubGaussianSetting(1.0, 5), 0.1, 0.1, 2.0)
    for variant in ("integral", "holder"):
        assert big[variant] == pytest.approx(1e200 * unit[variant], rel=1e-12)
    assert cmi_convert(lambda d: 0.0, 0.1, BoundedLossSetting(-1e200, 1e200, 5)) == pytest.approx(
        1e200 * cmi_convert(lambda d: 0.0, 0.1, BoundedLossSetting(-1.0, 1.0, 5)), rel=1e-12)


def test_dp_params_validation():
    with pytest.raises(RangeError):
        DPParams(epsilon=0.8, delta=0.1)
    with pytest.raises(RangeError):
        DPParams(epsilon=0.4, delta=0.5)
    with pytest.raises(RangeError):
        DPParams(epsilon=0.4, delta=0.1, c1=0.0)


def test_dp_cap_and_bound_formulas():
    dp = DPParams(epsilon=0.5, delta=0.25)
    k, tau = dp_egamma_cap(dp, 64)
    root = 64 * math.sqrt(0.25 / 0.5)
    assert k == pytest.approx(0.25 * 64 + root, abs=1e-12)
    assert tau == pytest.approx(math.exp(-0.25 * 64) + root, abs=1e-12)
    s = SubGaussianSetting(1.0, 64)
    assert dp_gen_bound(s, 0.5, dp) == pytest.approx(
        s.theta(0.5) * math.exp(k) + tau, rel=1e-12
    )
    with pytest.raises(RangeError):
        dp_gen_bound(s, 1.5, dp)


def test_dp_bound_close_to_delta_free_limit():
    s = SubGaussianSetting(1.0, 40)
    dp = DPParams(epsilon=0.3, delta=1e-18)
    want = 2 * math.exp(0.09 * 40 - 40 * 0.25 / 2) + math.exp(-0.09 * 40)
    assert dp_gen_bound(s, 0.5, dp) == pytest.approx(want, rel=1e-6)


def test_dp_bound_monotone_in_delta_and_in_the_exponent_argument():
    s = SubGaussianSetting(1.0, 50)
    vals_delta = [
        dp_gen_bound(s, 0.5, DPParams(epsilon=0.4, delta=d)) for d in (0.01, 0.05, 0.2)
    ]
    assert vals_delta == sorted(vals_delta)
    # ε moves ε²n and n sqrt(δ/ε) in opposite directions, so the bound is only
    # monotone coordinate-wise: growing k at fixed τ (via c2) must increase it
    vals_c2 = [
        dp_gen_bound(s, 0.5, DPParams(epsilon=0.4, delta=0.005, c2=c)) for c in (0.5, 1.0, 2.0)
    ]
    assert vals_c2 == sorted(vals_c2)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
def test_hockey_stick_cap_iff_approx_max_info(gamma):
    # E_gamma <= tau if and only if the approximate max-information <= log gamma
    for i in range(30):
        pair = dg.random_pair(61, i, 6)
        e_val = dg.f_divergence(pair, dg.hockey_stick_kind(gamma))
        for tau in (0.01, 0.1, 0.3):
            lhs = e_val <= tau
            rhs = approx_max_info(pair, tau) <= math.log(gamma)
            assert lhs == rhs


def test_mi_gap_constant_value():
    assert mi_gap_constant() == pytest.approx(1.5653, abs=5e-4)
    assert mi_gap_constant() == pytest.approx(
        2 * (math.sqrt(8 - 4 / math.e) - math.sqrt(math.pi)), abs=0
    )


def test_avg_mi_closed_plug_in():
    s = SubGaussianSetting(sigma=2.0, n=25)
    want = (2 * 2.0 / 5.0) * (2 * math.sqrt(2 / math.e) + math.sqrt(math.pi))
    assert avg_gen_bound_mi(s, 0.0) == pytest.approx(want, rel=1e-12)


def test_avg_mi_tstar_variant_is_tighter():
    s = SubGaussianSetting(1.0, 30)
    for mi in (0.0, 0.3, 1.0, 5.0, 50.0, 300.0):
        tight = avg_gen_bound_mi(s, mi, variant="tstar")
        loose = avg_gen_bound_mi(s, mi, variant="closed")
        assert tight <= loose + 1e-12
    # the defining root equation is satisfied
    from divgauge.genbounds import _tstar

    t = _tstar(4.0)
    g = t * t * (1 - 2 * math.exp(-t * t))
    assert g == pytest.approx(4 + 2 / math.e, abs=1e-10)
    assert g >= 4 + 2 / math.e  # the root is taken on its upper side


def test_tstar_is_the_root_within_a_few_ulp():
    # Newton steps from an upper start: the root of t^2 (1 - 2 e^{-t^2}) = I + 2/e
    # (the float target), against a 40-digit root, on its upper side
    mpmath = pytest.importorskip("mpmath")
    from divgauge.genbounds import _tstar

    mpmath.mp.dps = 40
    for mi in (0.0, 1e-9, 0.05, 0.3, 1.0, 4.0, 17.5, 50.0, 300.0, 1e4, 1e8):
        target = mi + 2.0 / math.e
        root = float(mpmath.findroot(
            lambda t: t * t * (1 - 2 * mpmath.exp(-t * t)) - mpmath.mpf(target),
            math.sqrt(target) + 0.5))
        t = _tstar(mi)
        assert abs(t - root) <= 4 * math.ulp(root), mi
        assert t * t * (1.0 - 2.0 * math.exp(-t * t)) >= target


def test_avg_mi_gap_is_minimized_near_the_constant():
    s = SubGaussianSetting(1.0, 1)
    mis = np.linspace(0.0, 10.0, 2001)
    gaps = [avg_mi_competitor(s, float(m)) - avg_gen_bound_mi(s, float(m)) for m in mis]
    assert min(gaps) == pytest.approx(mi_gap_constant(), abs=1e-3)
    assert all(g > 0 for g in gaps)

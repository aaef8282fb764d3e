import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divgauge as dg
from divgauge import bounds as B
from divgauge.dist import EventMask, event_mask_matrix
from divgauge.divergences import bernoulli_kl_core
from divgauge.errors import RangeError, ValidationError
from divgauge._optim import golden_min


def exhaustive_events(pair):
    masks = event_mask_matrix(pair.size).astype(float)
    return pair.p.probs @ masks.T, pair.q.probs @ masks.T


# ---------------------------------------------------------------------------
# hockey-stick and strong converse
# ---------------------------------------------------------------------------


def test_egamma_linear_formula():
    assert dg.bound_egamma(0.2, 0.1, 1.0).raw == pytest.approx(0.3, abs=1e-15)


def test_egamma_equals_q_at_equality():
    d = dg.make_distribution([1, 2, 3])
    pair = dg.AbsContPair(d, d)
    e1 = dg.f_divergence(pair, dg.hockey_stick_kind(1.0))
    assert dg.bound_egamma(0.4, e1, 1.0).raw == pytest.approx(0.4, abs=1e-12)


def test_egamma_sound_on_all_events():
    pair = dg.random_pair(2, 4, 4)
    p_e, q_e = exhaustive_events(pair)
    e_val = dg.f_divergence(pair, dg.hockey_stick_kind(1.5))
    for p, q in zip(p_e, q_e):
        assert dg.bound_egamma(float(q), e_val, 1.5).raw >= p - 1e-12


def test_strong_converse_cases():
    pair = dg.random_pair(2, 0, 5)
    full = EventMask.full(5)
    gamma_hi = float(pair.ratios.max()) + 0.5
    res = dg.bound_strong_converse(pair, full, gamma_hi)
    assert res.raw == pytest.approx(gamma_hi * 1.0, abs=1e-12)  # empty tail
    mask = EventMask.from_indices([0, 2], 5)
    res0 = dg.bound_strong_converse(pair, mask, 0.0)
    assert res0.raw == pytest.approx(float(pair.p.probs[pair.ratios > 0].sum()), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
def test_egamma_never_worse_than_strong_converse(gamma):
    for i in range(40):
        pair = dg.random_pair(6, i, 6)
        e_val = dg.f_divergence(pair, dg.hockey_stick_kind(gamma))
        tail = B.likelihood_tail_mass(pair, gamma)
        p_e, q_e = exhaustive_events(pair)
        ours = gamma * q_e + e_val
        converse = gamma * q_e + tail
        assert np.all(ours <= converse + 1e-12)


# ---------------------------------------------------------------------------
# chi2 / KL
# ---------------------------------------------------------------------------


def test_chi2_bound_examples():
    assert dg.bound_chi2(0.3, 0.0).raw == pytest.approx(0.3, abs=1e-15)
    assert dg.bound_chi2(0.5, 1.0).raw == pytest.approx(1.0, abs=1e-15)


def test_kl_bound_fixed_c_example():
    want = (0.2 + math.log(1 + 0.5 * (math.e - 1))) / 1.0
    assert dg.bound_kl(0.5, 0.2, c=1.0).raw == pytest.approx(want, abs=1e-15)


def test_kl_closed_specialization_beats_crude_constant():
    q, d = 0.1, 0.3
    res = dg.bound_kl(q, d)
    closed = res.free_params["closed_value"]
    assert closed == pytest.approx((d + math.log(2 - q)) / math.log(1 / q), abs=1e-15)
    assert closed < (d + math.log(2)) / math.log(1 / q)
    # the optimizer is at least as good as the closed specialization
    assert res.raw <= closed + 1e-12


def test_kl_bound_at_zero_divergence_approaches_q():
    for q in (0.01, 0.2, 0.6):
        assert q <= dg.bound_kl(q, 0.0).raw <= q + 1e-9


def test_degenerate_event_masses():
    for fn in (
        lambda q: dg.bound_chi2(q, 0.5),
        lambda q: dg.bound_kl(q, 0.5),
        lambda q: dg.bound_hellinger(q, 0.5),
        lambda q: dg.bound_reverse_chi2(q, 0.5),
        lambda q: dg.bound_vincze_lecam(q, 0.5),
    ):
        assert fn(0.0).raw == 0.0
        assert fn(1.0).raw == 1.0


# ---------------------------------------------------------------------------
# Hellinger
# ---------------------------------------------------------------------------


def test_hellinger_zero_distance_returns_q():
    assert dg.bound_hellinger(0.37, 0.0).raw == pytest.approx(0.37, abs=1e-12)


def test_hellinger_vacuous_branch():
    # sqrt(q) > 1 - h2/2: the two-point constraint admits p = 1
    res = dg.bound_hellinger(0.9, 1.2)
    assert res.raw == 1.0
    assert any("vacuous" in n for n in res.notes)
    assert dg.bound_hellinger(0.3, 2.0).raw == 1.0


def test_hellinger_out_of_range():
    with pytest.raises(RangeError):
        dg.bound_hellinger(0.3, 2.5)


def test_hellinger_closed_form_in_solvable_regime():
    q, h2 = 0.04, 0.3
    x = 1 - h2 / 2
    want = (math.sqrt(q) * x + math.sqrt((1 - q) * (1 - x * x))) ** 2
    assert dg.bound_hellinger(q, h2).raw == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# power-beta trio
# ---------------------------------------------------------------------------


def test_power_implicit_equals_q_at_zero_divergence():
    for beta in (1.5, 2.0, 4.0):
        assert dg.bound_power_beta(0.23, 0.0, beta).raw == pytest.approx(0.23, abs=1e-9)


def test_power_small_q_reduces_when_u0_hits_one():
    # u0 = 1 forces the simple q^{(b-1)/b} ((b-1)H+1)^{1/b} form
    q, beta, h = 0.6, 2.0, 3.0
    rhs = 1 + (beta - 1) * h
    assert (rhs * q ** (beta - 1)) ** (1 / beta) >= 1.0
    want = q ** ((beta - 1) / beta) * rhs ** (1 / beta)
    res = dg.bound_power_beta(q, h, beta, mode="small_q")
    assert res.free_params["u0"] == 1.0
    assert res.raw == pytest.approx(want, rel=1e-12)


def test_power_implicit_below_small_q_relaxation():
    rng = np.random.default_rng(0)
    for _ in range(60):
        q = float(rng.uniform(0.01, 0.6))
        h = float(rng.exponential(0.5))
        beta = float(rng.uniform(1.1, 6.0))
        tight = dg.bound_power_beta(q, h, beta, mode="implicit").raw
        loose = dg.bound_power_beta(q, h, beta, mode="small_q").raw
        assert tight <= loose + 1e-9


def test_power_qmax_flags_nonpositive_slope():
    res = dg.bound_power_beta(0.5, 5.0, 2.0, mode="qmax", q_max=0.9)
    assert not res.preconditions_met
    ok = dg.bound_power_beta(0.01, 0.05, 2.0, mode="qmax", q_max=0.02)
    assert ok.preconditions_met and ok.free_params["m"] > 0
    with pytest.raises(RangeError):
        dg.bound_power_beta(0.5, 0.1, 2.0, mode="qmax", q_max=0.3)
    with pytest.raises(ValidationError):
        dg.bound_power_beta(0.5, 0.1, 2.0, mode="bogus")


@pytest.mark.parametrize("q", [0.0, 1.0, 0.3])
def test_power_beta_rejects_an_unknown_mode_at_every_q(q):
    with pytest.raises(ValidationError):
        dg.bound_power_beta(q, 0.1, 2.0, mode="bogus")


def test_power_beta_envelope():
    with pytest.raises(RangeError):
        dg.bound_power_beta(0.3, 0.1, 60.0)
    with pytest.raises(RangeError):
        dg.bound_power_beta(0.3, 0.1, 1.0)


# ---------------------------------------------------------------------------
# Young-Fenchel
# ---------------------------------------------------------------------------


def test_young_fenchel_reproduces_chi2_bound():
    for q, d in ((0.25, 0.5), (0.05, 2.0), (0.6, 0.1)):
        target = dg.bound_chi2(q, d).raw
        got = dg.bound_young_fenchel(q, d, dg.CHI2).raw
        assert got == pytest.approx(target, abs=1e-9)


def test_young_fenchel_matches_sharp_bounds():
    rng = np.random.default_rng(31)
    sharp = {
        dg.KL: dg.bound_kl,
        dg.CHI2: dg.bound_chi2,
        **{dg.power_kind(b): partial(dg.bound_power_beta, beta=b, mode="implicit")
           for b in (1.5, 2.0, 4.0)},
    }
    for q, d in zip(rng.uniform(0.02, 0.98, 12), rng.exponential(0.4, 12)):
        for kind, bound in sharp.items():
            target = bound(q, d).raw
            if target < 1.0:
                assert dg.bound_young_fenchel(q, d, kind).raw == pytest.approx(target, abs=1e-12)
    for q, d in ((0.1, 0.2), (0.4, 0.05), (0.7, 0.1)):
        target = dg.bound_chi2(q, d).raw
        assert target < 1.0
        got = dg.bound_young_fenchel(q, d, lambda t: (t - 1.0) ** 2).raw
        assert got == pytest.approx(target, abs=1e-9)


def test_young_fenchel_fixed_uv_example():
    res = dg.bound_young_fenchel(0.25, 0.5, dg.CHI2, u=2.0, v=0.0)
    assert res.raw == pytest.approx(0.625, abs=1e-15)


def test_young_fenchel_sound_at_zero_divergence():
    for spec in (dg.CHI2, dg.KL, dg.power_kind(3.0)):
        assert dg.bound_young_fenchel(0.3, 0.0, spec).raw >= 0.3 - 1e-9


def test_young_fenchel_fixed_pairs_sound_over_events():
    pair = dg.random_pair(15, 2, 5, zero_prob=0.0)
    p_e, q_e = exhaustive_events(pair)
    d = dg.f_divergence(pair, dg.CHI2)
    spec = dg.conjugate_spec_for(dg.CHI2)
    for u, v in ((1.0, 0.0), (2.0, -1.0), (0.5, -0.25)):
        for p, q in zip(p_e, q_e):
            if 0.0 < q < 1.0:
                res = dg.bound_young_fenchel(float(q), d, spec, u=u, v=v)
                assert res.raw >= p - 1e-9


def test_young_fenchel_argument_validation():
    with pytest.raises(RangeError):
        dg.bound_young_fenchel(0.3, 0.1, dg.CHI2, u=1.0, v=1.0)
    with pytest.raises(ValidationError):
        dg.bound_young_fenchel(0.3, 0.1, dg.CHI2, u=1.0)


def test_generic_conjugate_pairs_with_builtin():
    custom = dg.conjugate_spec_for(lambda t: (t - 1.0) ** 2)
    built = dg.conjugate_spec_for(dg.CHI2)
    for u in (0.3, 1.0, 4.0):
        assert custom.fstar(u) == pytest.approx(built.fstar(u), rel=1e-8)


@pytest.mark.parametrize(
    "kind,f",
    [
        (dg.KL, lambda t: t * math.log(t)),
        (dg.power_kind(3.0), lambda t: (t**3 - 1) / 2.0),
        (dg.power_kind(1.5), lambda t: (t**1.5 - 1) / 0.5),
    ],
)
def test_closed_conjugates_match_numeric_conjugation(kind, f):
    closed = dg.conjugate_spec_for(kind)
    numeric = dg.conjugate_spec_for(f)
    for u in (0.05, 0.7, 1.0, 3.0, 20.0):
        assert closed.fstar(u) == pytest.approx(numeric.fstar(u), rel=1e-7)
        # f(1) = 0 forces f*(x) >= x; a smaller conjugate would be unsound
        assert closed.fstar(u) >= u - 1e-12


# ---------------------------------------------------------------------------
# f-divergence bound through the hockey-stick route
# ---------------------------------------------------------------------------


def test_f_via_egamma_zero_divergence():
    res = dg.bound_f_via_egamma(0.2, 0.0, dg.CHI2, 1.5)
    assert res.raw == pytest.approx(0.3, abs=1e-12)


def test_f_via_egamma_composition_identity():
    q, df, gamma = 0.15, 0.4, 2.0
    gap = 2.0 * gamma - 2.0  # chi2 slope gap
    via = dg.bound_f_via_egamma(q, df, dg.CHI2, gamma)
    composed = dg.bound_egamma(q, df / gap, gamma)
    assert via.raw == pytest.approx(composed.raw, abs=1e-12)


def test_f_via_egamma_lipschitz_never_hurts():
    rng = np.random.default_rng(8)
    for _ in range(40):
        q = float(rng.uniform(0.01, 0.9))
        df = float(rng.exponential(0.5))
        gamma = float(rng.uniform(1.05, 6.0))
        plain = dg.bound_f_via_egamma(q, df, dg.CHI2, gamma).raw
        lip = dg.bound_f_via_egamma(q, df, dg.CHI2, gamma, lipschitz=2.0).raw
        assert lip <= plain + 1e-12


def test_f_via_egamma_flat_generator_flagged():
    res = dg.bound_f_via_egamma(0.2, 0.5, lambda t: 0.0, 2.0)
    assert not res.preconditions_met
    assert res.raw == math.inf


def test_f_via_egamma_requires_gamma_above_one():
    with pytest.raises(RangeError):
        dg.bound_f_via_egamma(0.2, 0.1, dg.CHI2, 1.0)


def test_f_via_egamma_sound_over_events():
    for i in range(20):
        pair = dg.random_pair(21, i, 6)
        p_e, q_e = exhaustive_events(pair)
        for kind in (dg.CHI2, dg.KL, dg.SQUARED_HELLINGER):
            d = dg.f_divergence(pair, kind)
            for gamma in (1.5, 3.0):
                res = dg.bound_f_via_egamma(0.0, d, kind, gamma)  # slope only
                gap_bound = gamma * q_e + d / res.free_params["slope_gap"]
                assert np.all(gap_bound >= p_e - 1e-9)


# ---------------------------------------------------------------------------
# reverse rows and the binary-KL inversion
# ---------------------------------------------------------------------------


def test_reverse_bounds_collapse_at_zero_divergence():
    q = 0.31
    assert dg.bound_reverse_chi2(q, 0.0).raw == pytest.approx(q, abs=1e-12)
    assert dg.bound_reverse_kl(q, 0.0, mode="exact").raw == pytest.approx(q, abs=1e-12)
    assert dg.bound_vincze_lecam(q, 0.0).raw == pytest.approx(q, abs=1e-12)
    # the explicit reverse-KL relaxation is one-sided: it stays sound but
    # does not collapse to q (see the module docstring for why)
    assert dg.bound_reverse_kl(q, 0.0, mode="explicit").raw >= q


def test_reverse_kl_exact_below_explicit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        q = float(rng.uniform(0.01, 0.95))
        d = float(rng.exponential(0.7))
        exact = dg.bound_reverse_kl(q, d, mode="exact").raw
        explicit = dg.bound_reverse_kl(q, d, mode="explicit").raw
        assert exact <= explicit + 1e-12


def test_reverse_chi2_solves_the_two_point_quadratic():
    q, r = 0.2, 0.8
    p = dg.bound_reverse_chi2(q, r).raw
    assert (1 + r) * p * p - (r + 2 * q) * p + q * q == pytest.approx(0.0, abs=1e-12)


def test_vincze_solves_the_two_point_quadratic():
    # expanding V (p+q)(2-p-q) >= 2 (p-q)^2 gives
    # (V+2) p^2 - 2 (V(1-q) + 2q) p + ((V+2) q^2 - 2 V q) <= 0
    q, v = 0.35, 1.3
    p = dg.bound_vincze_lecam(q, v).raw
    lhs = (v + 2) * p * p - 2 * (v * (1 - q) + 2 * q) * p + (v + 2) * q * q - 2 * v * q
    assert lhs == pytest.approx(0.0, abs=1e-10)
    # equivalently, the two-point divergence is met with equality at the root
    assert 2 * (p - q) ** 2 / ((p + q) * (2 - p - q)) == pytest.approx(v, abs=1e-9)


def test_vincze_matches_minimized_competitor_family():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = float(rng.uniform(0.02, 0.9))
        v = float(rng.exponential(0.8))
        ours = dg.bound_vincze_lecam(q, v).raw
        _, amin = golden_min(lambda c: float(B.comp_vincze_ac(q, v, c)))
        assert ours == pytest.approx(amin, abs=1e-9)


def test_invert_binary_kl_examples():
    assert dg.invert_binary_kl(0.3, 0.0) == 0.3
    p = dg.invert_binary_kl(0.1, 0.5)
    assert dg.bernoulli_kl(0.1, p) == pytest.approx(0.5, abs=1e-12)
    # fine grid scan oracle
    grid = np.linspace(0.1, 1 - 1e-9, 200001)
    vals = bernoulli_kl_core(0.1, grid)
    scan = grid[int(np.argmin(np.abs(vals - 0.5)))]
    assert p == pytest.approx(float(scan), abs=1e-5)
    assert dg.invert_binary_kl(0.4, 1e9) == np.nextafter(1.0, 0.0)
    # the root by mpmath is 0.771382328607575...; the bound may not fall below it
    assert dg.bound_reverse_kl(0.3, 0.5).raw >= 0.771382328607575
    with pytest.raises(RangeError):
        dg.invert_binary_kl(0.0, 0.5)
    with pytest.raises(RangeError):
        dg.invert_binary_kl(0.3, -0.1)


@settings(max_examples=200)
@given(st.floats(0.001, 0.999), st.floats(0.0, 1.0))
def test_invert_binary_kl_residual_property(q, frac):
    # sample targets away from p = 1, where a double's ulp already moves
    # kl(q, .) by more than 1e-12 and no solver could meet the residual
    target = q + (0.999 - q) * frac
    d = max(dg.bernoulli_kl(q, target), 0.0)
    p = dg.invert_binary_kl(q, d)
    assert abs(dg.bernoulli_kl(q, p) - d) <= 1e-12
    assert q <= p < 1.0


@settings(max_examples=300)
@given(
    st.floats(-300.0, -1e-12).map(lambda x: 10.0**x),
    st.one_of(st.just(0.0), st.floats(-300.0, 3.0).map(lambda x: 10.0**x)),
)
@example(0.3, 0.5)
def test_invert_binary_kl_is_on_the_sound_side(q, d):
    # the inverted bound may sit above the root, never below it: kl(q, p)
    # reaches d unless p is already the largest double below 1
    p = dg.invert_binary_kl(q, d)
    assert q <= p
    assert p == np.nextafter(1.0, 0.0) or dg.bernoulli_kl(q, p) >= d


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-300.0, -1e-12).map(lambda x: 10.0**x),
    st.one_of(st.just(0.0), st.floats(-300.0, 3.0).map(lambda x: 10.0**x)),
)
@example(0.3, 0.5)
@example(0.23, 0.0)
@example(1e-17, 1.0)  # (q - p) / p rounds to -1 in kl(q || p)
def test_root_kernels_are_on_the_sound_side(q, d):
    # the sharp inversions: the constraint, evaluated as the kernel evaluates
    # it, reaches the target at the returned value (or the value is the end
    # of its range)
    p = float(B.kl_opt_core(q, d)[0])
    assert q <= p <= 1.0 and (p == 1.0 or dg.bernoulli_kl(p, q) >= d)
    p_rev = float(B.reverse_kl_exact_core(q, d))
    assert q <= p_rev and (p_rev == np.nextafter(1.0, 0.0) or dg.bernoulli_kl(q, p_rev) >= d)
    # the competitors: a number, and never below the sharp bound
    slack = dg.verify.SLACK_TOL
    comp_rev = float(B.comp_reverse_kl_core(q, d)[0])
    assert comp_rev >= p_rev - slack
    for beta in (1.5, 2.0, 4.0):
        p_pow = float(B.power_implicit_core(q, d, beta))
        with np.errstate(all="ignore"):
            excess = float(B._power_excess(p_pow, q, beta)[0])
        assert q <= p_pow <= 1.0 and (p_pow == 1.0 or excess >= (beta - 1.0) * d)
        assert float(B.comp_power_core(q, d, beta)[0]) >= p_pow - slack


def _reference_root(fn, lo, hi, target, *args):
    """The smallest double in [lo, hi] (lo >= 0) where fn reaches target, or
    hi: bisection over the ordered bit patterns of nonnegative doubles."""
    lo, hi, target, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, target, *args)))
    finite = np.isfinite(hi)
    a, b = lo.view(np.int64).copy(), np.where(finite, hi, lo).view(np.int64).copy()
    for _ in range(64):
        m = a + (b - a) // 2
        below = fn(m.view(float), *args)[0] < target
        a, b = np.where(below, m, a), np.where(below, b, m)
    return np.where(finite & (fn(lo, *args)[0] < target), b.view(float), np.where(finite, lo, hi))


ROOT_KERNEL_IDS = ("kl", "power_implicit", "reverse_kl_exact", "competitor_power", "competitor_reverse_kl")


def test_root_kernels_converge_on_a_sweep_chunk(monkeypatch):
    # on a criterion-1 chunk every root settles before the step cap, and each
    # kernel's values are within 4 ulp of 1 (bound values are probabilities)
    # of the same kernel with an exact bisection in place of the root-finder.
    # Closer agreement is not defined: the constraints are evaluated with a
    # few ulp of noise, and two bisections can stop at different crossings.
    from divgauge import _optim, verify as V
    from divgauge._optim import ROOT_STEPS, increasing_root

    pairs = [dg.random_pair(11, i, 8) for i in range(500)]
    masks = event_mask_matrix(8)

    def values():
        batch = V.PairBatch.from_pairs(pairs, masks)
        return [
            np.broadcast_to(V._REGISTRY[bound_id](batch, **params)[0], batch.shape)
            for bound_id, params in V.default_cases()
            if bound_id in ROOT_KERNEL_IDS
        ]

    steps = []

    def counted_root(fn, lo, hi, target, *args):
        calls = []

        def counted(x, *params):
            calls.append(1)
            return fn(x, *params)

        root = increasing_root(counted, lo, hi, target, *args)
        steps.append((fn, len(calls) - 2))  # the first two evaluate lo and hi
        return root

    monkeypatch.setattr(B, "increasing_root", counted_root)
    monkeypatch.setattr(_optim, "ROOT_BLOCK", 1 << 30)  # one block per call, so one count
    ours = values()
    monkeypatch.setattr(B, "increasing_root", _reference_root)
    with np.errstate(all="ignore"):
        reference = values()
    assert len(steps) == len(ours) == 9 and max(n for _, n in steps) < ROOT_STEPS
    # the KL search starts below p = 1, whose slope is infinite, so it settles fast
    assert max(n for fn, n in steps if fn is B._kl_above) <= 20
    for got, want in zip(ours, reference):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 4 * np.spacing(1.0)


# ---------------------------------------------------------------------------
# monotonicity in the divergence argument
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "core",
    [
        lambda q, d: B.chi2_core(q, d),
        lambda q, d: B.kl_closed_core(q, d),
        lambda q, d: B.hellinger_core(q, np.minimum(d, 2.0)),
        lambda q, d: B.power_small_q_core(q, d, 2.0)[0],
        lambda q, d: B.power_implicit_core(q, d, 2.0),
        lambda q, d: B.reverse_chi2_core(q, d),
        lambda q, d: B.reverse_kl_exact_core(q, d),
        lambda q, d: B.reverse_kl_explicit_core(q, d),
        lambda q, d: B.vincze_core(q, d),
        lambda q, d: B.egamma_core(q, d, 1.5),
    ],
)
def test_bounds_nondecreasing_in_divergence(core):
    q = np.asarray([0.05, 0.3, 0.7])
    grid = np.linspace(0.0, 3.0, 40)
    prev = None
    for d in grid:
        cur = np.asarray(core(q, float(d)), dtype=float)
        if prev is not None:
            assert np.all(cur >= prev - 1e-9)
        prev = cur


# ---------------------------------------------------------------------------
# Orlicz bounds
# ---------------------------------------------------------------------------


def test_orlicz_bound_gamma_zero_is_the_holder_bound():
    pair = dg.AbsContPair(dg.make_distribution([3, 1, 2, 2]), dg.make_distribution([1, 1, 1, 1]))
    spec = dg.power_orlicz(2.0)
    mask = EventMask.from_indices([0, 3], 4)
    q = dg.event_probability(pair.q, mask)
    alpha = spec.conjugate_exponent
    m_alpha = float(np.sum(pair.ratios**alpha * pair.q.probs) ** (1 / alpha))
    want = q ** (1 / 2.0) * 2.0 ** (-1 / 2.0) * 2.0 ** (1 / 2.0) * m_alpha
    res = dg.bound_orlicz(pair, mask, 0.0, spec)
    assert res.raw == pytest.approx(want, rel=1e-9)


def test_orlicz_bound_gamma_above_max_ratio():
    pair = dg.random_pair(33, 0, 5)
    gamma = float(pair.ratios.max()) + 0.1
    mask = EventMask.from_indices([1, 2], 5)
    res = dg.bound_orlicz(pair, mask, gamma, dg.power_orlicz(2.0))
    q = dg.event_probability(pair.q, mask)
    assert res.raw == pytest.approx(gamma * q, abs=1e-12)
    p = dg.event_probability(pair.p, mask)
    assert res.raw >= p - 1e-12


def test_orlicz_bound_sound_over_events():
    spec = dg.power_orlicz(2.0)
    for i in range(15):
        pair = dg.random_pair(35, i, 5)
        p_e, q_e = exhaustive_events(pair)
        for gamma in (0.0, 1.0):
            am = dg.amemiya_norm(pair, gamma, spec)
            vals = B.orlicz_core(q_e, am, gamma, spec)
            assert np.all(vals >= p_e - 1e-9)


def test_orlicz_joint_bound_requires_power_family():
    joint = dg.random_joint(40, 0, 3, 3)
    custom = dg.custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 / 2)
    with pytest.raises(ValidationError):
        dg.bound_orlicz_joint(joint, EventMask.full(9), 1.0, custom, custom)


def test_orlicz_joint_bound_sound_on_sampled_events():
    joint = dg.random_joint(44, 1, 4, 4)
    pair = dg.product_pair(joint)
    spec = dg.power_orlicz(2.0)
    rng = np.random.default_rng(5)
    flat = joint.matrix.ravel()
    for code in rng.integers(1, 2**16 - 1, size=200):
        mask = EventMask.from_int(int(code), 16)
        truth = float(flat[mask.bits].sum())
        for gamma in (0.0, 1.0):
            res = dg.bound_orlicz_joint(joint, mask, gamma, spec, spec)
            assert res.raw >= truth - 1e-9
            # the joint refinement never loses to the unconditional bound
            flat_bound = dg.bound_orlicz(pair, mask, gamma, spec)
            assert res.raw <= flat_bound.raw + 1e-9


def test_orlicz_joint_skips_dead_outputs():
    m = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
    joint = dg.JointFinite(m)
    res = dg.bound_orlicz_joint(
        joint, EventMask.from_indices([0, 4], 6), 1.0, dg.power_orlicz(2.0), dg.power_orlicz(2.0)
    )
    assert any("zero-mass outputs" in n for n in res.notes)


# ---------------------------------------------------------------------------
# competitors
# ---------------------------------------------------------------------------


def test_competitor_kl_and_chi2_match_ours_exactly():
    for q, d in ((0.1, 0.4), (0.45, 1.2)):
        assert dg.competitor_bound("kl", q, d).raw == pytest.approx(
            dg.bound_kl(q, d).raw, abs=1e-12
        )
        assert dg.competitor_bound("chi2", q, d).raw == pytest.approx(
            dg.bound_chi2(q, d).raw, abs=1e-12
        )


def test_competitor_squared_hellinger_closed_form():
    q, h2 = 0.04, 0.35
    x = 1 - h2
    res = dg.competitor_bound("squared_hellinger", q, h2)
    want = (math.sqrt((1 - x * x) * (1 - q)) + x * math.sqrt(q)) ** 2
    assert res.preconditions_met
    assert res.raw == pytest.approx(want, abs=1e-12)
    # numeric minimization over c reproduces the closed optimum
    _, amin = golden_min(
        lambda c: 1 + c - c * (1 + c) * x * x / (q + c)
    )
    assert res.raw == pytest.approx(amin, abs=1e-10)
    out = dg.competitor_bound("squared_hellinger", 0.9, 0.35)
    assert not out.preconditions_met


def test_competitor_dominance_on_reverse_rows():
    rng = np.random.default_rng(77)
    for _ in range(40):
        q = float(rng.uniform(0.02, 0.9))
        d = float(rng.exponential(0.6))
        assert (
            dg.bound_reverse_chi2(q, d).raw
            <= dg.competitor_bound("reverse_chi2", q, d).raw + 1e-10
        )
        assert (
            dg.bound_reverse_kl(q, d, mode="exact").raw
            <= dg.competitor_bound("reverse_kl", q, d).raw + 1e-10
        )
        assert (
            dg.bound_vincze_lecam(q, min(d, 1.99)).raw
            <= dg.competitor_bound("vincze_lecam", q, min(d, 1.99)).raw + 1e-10
        )


def test_competitor_power_fixed_and_optimized():
    q, h, beta = 0.2, 0.6, 2.0
    fixed = dg.competitor_bound("power", q, h, beta=beta, s=0.1)
    assert fixed.raw == pytest.approx(B.comp_power_fixed(q, h, beta, 0.1), abs=1e-12)
    opt = dg.competitor_bound("power", q, h, beta=beta)
    assert opt.raw <= fixed.raw + 1e-9
    with pytest.raises(RangeError):
        dg.competitor_bound("power", q, h)


def test_competitor_optima_at_extreme_inputs():
    """Each free-parameter competitor at its optimum: never NaN, never above
    its own family on a log grid of the parameter, q at divergence 0."""
    rng = np.random.default_rng(2026)
    q = np.concatenate([10.0 ** rng.uniform(-300, 0, 60), rng.uniform(0, 1, 40)])
    grid = np.geomspace(1e-6, 1e6, 2001)
    families = [
        (B.kl_opt_core, B.kl_fixed_core),
        (B.comp_reverse_chi2_core, B.comp_reverse_chi2_ac),
        (B.comp_reverse_kl_core, B.comp_reverse_kl_ac),
        (B.comp_vincze_core, B.comp_vincze_ac),
    ] + [
        (partial(B.comp_power_core, beta=beta),
         lambda q, d, t, beta=beta: B.comp_power_fixed(q, d, beta, -t))
        for beta in (1.5, 2.0, 4.0)
    ]
    for d in (0.0, 1e-300, 1e-12, 0.3, 50.0, math.inf):
        for core, family in families:
            raw, _ = core(q, d)
            assert not np.isnan(raw).any(), (core, d)
            best = family(q[:, None], d, grid[None, :]).min(axis=1)
            assert np.all(raw <= best + 1e-12), (core, d, np.max(raw - best))
            if d == 0.0:
                assert np.array_equal(raw, q), (core, d)
        vacuous = d >= np.log(1.0 / q)
        for qv in q[vacuous]:
            assert dg.bound_kl(float(qv), d).raw == 1.0


def test_competitor_unknown_row():
    with pytest.raises(ValidationError):
        dg.competitor_bound("nonsense", 0.1, 0.1)


@pytest.mark.parametrize(
    "row", ["kl", "squared_hellinger", "reverse_chi2", "reverse_kl", "vincze_lecam"]
)
def test_competitor_fixed_c_must_be_positive(row):
    assert dg.competitor_bound(row, 0.3, 0.5, c=0.7).free_params == {"c": 0.7}
    for c in (0.0, -1.0):
        with pytest.raises(RangeError):
            dg.competitor_bound(row, 0.3, 0.5, c=c)


# ---------------------------------------------------------------------------
# BoundResult mechanics
# ---------------------------------------------------------------------------


def test_bound_result_clips_for_reporting():
    res = dg.BoundResult("x", 3.7)
    assert res.value == 1.0 and res.raw == 3.7
    assert dg.BoundResult("x", -0.2).value == 0.0
    assert dg.BoundResult("x", math.inf).value == 1.0

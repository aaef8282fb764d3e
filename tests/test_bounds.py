import itertools
import math
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divgauge as dg
from divgauge import bounds as B
from divgauge.dist import EventMask, event_mask_matrix
from divgauge.divergences import bernoulli_kl_core, generator_values
from divgauge.errors import RangeError, ValidationError
from divgauge._optim import golden_min, increasing_root
from divgauge.verify import SLACK_TOL


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


def test_chi2_bound_where_the_product_underflows():
    # q (1-q) chi^2 underflows to 0 here, which returned q itself
    assert B.chi2_core(3.723e-262, 6.05e-150) == pytest.approx(
        4.7459614410570174e-206, rel=1e-15, abs=0)


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


def _power_small_q_full_bracket(q, h_beta, beta):
    """power_small_q_core with its bracket formed on every element: the
    reference for the core, which forms it only where u0 < 1."""
    v = B.EventView(q)
    excess = (beta - 1.0) * np.asarray(h_beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u0 = np.exp(np.minimum(0.0, (np.log(1.0 + excess) + (beta - 1.0) * v.log_q) / beta))
        cap = (1.0 - beta) * v.log1m_q + beta * np.log1p(-u0)
        bracket = np.maximum(excess - np.expm1(np.maximum(cap, -100.0)), 0.0)
        raw = np.exp(((beta - 1.0) * v.log_q + np.log(np.maximum(bracket, 1e-300))) / beta)
        raw = np.where(bracket <= 0.0, 0.0, raw)
    return B._override(v, raw), u0


@pytest.mark.parametrize("beta", [1.01, 1.5, 2.0, 4.0, 50.0])
def test_power_small_q_matches_the_full_bracket_form_bit_for_bit(beta):
    # where u0 = 1 the full bracket is exactly 1 + (b-1) H_b, so the bound is
    # exp(a); the core forms the bracket only elsewhere.  An extreme grid, a
    # criterion-1 chunk's event masses against each pair's divergence, and
    # 0-d inputs, which stay 0-d (NaN compared as NaN, whatever its sign bit)
    def same(got, want):
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w, equal_nan=True)

    up = np.nextafter(1.0, 2.0)
    q = np.concatenate([[0.0, 1e-300, 3.67e-109, 1.0 - 1e-16, 1.0, up],
                        np.geomspace(1e-300, 0.5, 60), 1.0 - np.geomspace(1e-16, 0.5, 40)])
    h = np.concatenate([[0.0, 1e-300, math.inf, math.nan], np.geomspace(1e-30, 1e300, 96)])
    same(B.power_small_q_core(q[:, None], h, beta),
         _power_small_q_full_bracket(q[:, None], h, beta))

    pairs = [dg.random_pair(11, i, 8) for i in range(100)]
    masses = np.array([pair.q.probs for pair in pairs]) @ event_mask_matrix(8).T
    div = np.array([[dg.f_divergence(pair, dg.power_kind(beta))] for pair in pairs])
    same(B.power_small_q_core(masses, div, beta), _power_small_q_full_bracket(masses, div, beta))

    for one in [(0.3, 0.5), (0.6, 3.0), (1e-300, 0.0), (0.3, math.inf), (0.3, math.nan), (1.0, 2.0)]:
        same(B.power_small_q_core(*one, beta), _power_small_q_full_bracket(*one, beta))
        same(B.power_small_q_core(*map(np.asarray, one), beta),
             _power_small_q_full_bracket(*map(np.asarray, one), beta))


def test_power_implicit_below_small_q_relaxation():
    rng = np.random.default_rng(0)
    for _ in range(60):
        q = float(rng.uniform(0.01, 0.6))
        h = float(rng.exponential(0.5))
        beta = float(rng.uniform(1.1, 6.0))
        tight = dg.bound_power_beta(q, h, beta, mode="implicit").raw
        loose = dg.bound_power_beta(q, h, beta, mode="small_q").raw
        assert tight <= loose + 1e-9


def test_power_implicit_at_tiny_q():
    # from the start q^((b-1)/b) the steps hit the cap far above the root
    # (1.52e-161 at beta = 2); at beta = 2 the constraint is the chi^2 one
    q, h = 3.723e-262, 6.05e-150
    assert B.power_implicit_core(q, h, 2.0) == pytest.approx(
        float(B.chi2_core(q, h)), rel=1e-12, abs=0)
    for beta in (1.5, 4.0):
        with np.errstate(all="ignore"):
            want = float(_reference_root(partial(B._power_excess, beta=beta), q, None, 1.0,
                                         (beta - 1.0) * h, q))
        assert B.power_implicit_core(q, h, beta) == pytest.approx(want, rel=1e-12, abs=0)


def test_power_implicit_where_the_ratio_power_overflows():
    # (p/q)^b overflowed to inf well below the root and read as the target
    # reached: at q = 4.8e-247 the bound was 7.9e-31 where p = 1 is admitted
    q = 4.7911978217550844e-247
    for h in (1e300, math.inf):
        assert dg.bound_power_beta(q, h, 2.0).raw == 1.0


def test_power_small_q_is_vacuous_at_infinite_divergence():
    # (1 - u0)^beta is 0 where u0 >= 1; its product with the infinite
    # bracket was NaN, where the bound is +inf (reported as 1)
    res = dg.bound_power_beta(0.3, math.inf, 2.0, mode="small_q")
    assert res.raw == math.inf and res.value == 1.0 and res.free_params["u0"] == 1.0


_EDGE_Q = np.array([0.0, 1e-300, 3.67e-109, 1e-6, 0.3, 1.0 - 1e-6, 1.0])


@pytest.mark.parametrize("at", ["least", "inf"])
@pytest.mark.parametrize(
    "bound_id, params",
    [(b.id, params) for b in B.BOUNDS.values() if b.stat is None for params in b.grid],
)
def test_table_cores_at_extreme_divergences(bound_id, params, at):
    # each core at its divergence's least value (that of P = Q: 0, or
    # 1 - gamma for E_gamma with gamma < 1) and at +inf, over Q(E) from 0 to
    # 1: no NaN, and never below Q(E) by more than the harness's SLACK_TOL;
    # power_small_q and reverse_kl_explicit, which cancelled to 0 at Q(E) =
    # 1e-300 and 3.67e-109, and the two Hellinger closed forms, which were an
    # ulp below Q(E) at 0.3 and 3.67e-109 from squaring sqrt(q), never below
    # Q(E) at all
    spec = B.BOUNDS[bound_id]
    kind = spec.divergence(params)
    same = dg.make_distribution([1.0, 2.0, 3.0])
    d = dg.f_divergence(dg.AbsContPair(same, same), kind) if at == "least" else math.inf
    raw, valid = spec.evaluate(_EDGE_Q, d, params)
    raw = np.broadcast_to(raw, _EDGE_Q.shape)
    valid = np.ones(_EDGE_Q.shape, dtype=bool) if valid is None else np.broadcast_to(valid, _EDGE_Q.shape)
    assert not np.isnan(raw[valid]).any(), raw
    inner = valid & (_EDGE_Q > 0.0) & (_EDGE_Q < 1.0)
    exact = ("power_small_q", "reverse_kl_explicit", "hellinger", "competitor_squared_hellinger")
    tol = 0.0 if bound_id in exact else SLACK_TOL
    assert np.all(raw[inner] >= _EDGE_Q[inner] - tol), raw


def test_override_writes_only_the_degenerate_events():
    # Q(E) of 0, 1 and 1 + 1 ulp (the mask matmul can round the full
    # event's mass up) beside interior masses
    up = np.nextafter(1.0, 2.0)
    q = np.array([[0.0, 0.3, 1.0, up], [0.0, 1e-300, 0.5, 1.0 - 1e-16]])
    want = np.array([[0.0, 7.0, 1.0, 1.0], [0.0, 7.0, 7.0, 7.0]])
    v = B.EventView(q)
    assert np.array_equal(v.empty, [0, 4]) and np.array_equal(v.full, [2, 3])
    assert np.array_equal(B._override(v, np.full(q.shape, 7.0)), want)
    kept = B._override(v, np.full(q.shape, 7.0), full=None)
    assert np.array_equal(kept, np.where(q <= 0.0, 0.0, 7.0))
    # a column of empty events, as every sweep chunk has
    col = np.array([[0.0, 0.2], [0.0, 0.9], [0.0, up]])
    assert np.array_equal(B._override(B.EventView(col), np.full(col.shape, 7.0)),
                          [[0.0, 7.0], [0.0, 7.0], [0.0, 1.0]])
    # 0-d Q(E) with a scalar, and with a vector of divergences
    for q0, want0 in ((0.0, 0.0), (1.0, 1.0), (up, 1.0), (0.4, 7.0)):
        assert float(B._override(B.EventView(q0), np.float64(7.0))) == want0
        assert np.array_equal(B._override(B.EventView(q0), np.full(3, 7.0)), np.full(3, want0))
    # a core gives the same values at 0-d masses as in the batch
    batch = B.chi2_core(q, 0.5)
    for i, j in np.ndindex(q.shape):
        assert float(B.chi2_core(q[i, j], 0.5)) == batch[i, j]


# the edges of Q(E) and seeded masses, among which C pow and np.power
# differ by an ulp at about one point in twenty
_ONE_Q = (0.0, 5e-324, 1e-300, 0.3, 1.0 - 2.0**-53, 1.0,
          *np.random.default_rng(11).uniform(0.0, 1.0, 24), *10.0 ** -np.arange(2, 300, 37.5))
_ONE_D = (0.0, 1e-30, 0.3, 50.0, math.inf)


@pytest.mark.parametrize(
    "bound_id, params", [(b.id, params) for b in B.BOUNDS.values() for params in b.grid]
)
def test_table_cores_at_one_event_give_a_float64_with_the_batch_bits(bound_id, params):
    # a scalar call's core runs on float64 scalars (the view holds Q(E) as
    # one); it must give the bits of the same core on a one-element batch,
    # which would move where a power of a value derived from Q(E) were
    # taken with the C library's pow instead of np.power
    core = B.BOUNDS[bound_id].core

    def raw(out):
        return out[0] if isinstance(out, tuple) else out

    for q, d in itertools.product(_ONE_Q, _ONE_D):
        one = raw(core(q, d, **params))
        batch = raw(core(np.array([q]), d, **params))
        assert type(one) is np.float64, (q, d, type(one))
        assert batch.shape == (1,) and one.tobytes() == batch[0].tobytes(), (q, d, one, batch)


# bound_kl and competitor_bound("kl") at (q, KL): the bits of (raw, c*), as
# float.hex; c* = 0 at KL = 0, and inf where KL >= log(1/q) and the bound is 1
_KL_C_STAR = [
    ((0.3, 0.5), "0x1.919c13e375960p-1", "0x1.11c2c23df238cp+1"),
    ((0.01, 1e-08), "0x1.48242544873c9p-7", "0x1.746c2093d7a66p-10"),
    ((0.5, 1e-20), "0x1.000000009b7eap-1", "0x1.36fd400000000p-32"),
    ((1e-06, 3.0), "0x1.08b7c13cd9194p-2", "0x1.9860ab2535deep+3"),
    ((0.9, 0.05), "0x1.f55f88c2034cbp-1", "0x1.a82073990ea9fp+0"),
    ((0.2, 0.0), "0x1.999999999999ap-3", "0x0.0p+0"),
    ((0.1, 5.0), "0x1.0000000000000p+0", "inf"),
    ((0.3, math.log(1 / 0.3)), "0x1.0000000000000p+0", "inf"),
    ((1e-300, 1.0), "0x1.7fac286fa3236p-10", "0x1.562004587accfp+9"),
    ((0.999999, 1e-3), "0x1.0000000000000p+0", "inf"),
    ((0.75, 0.25), "0x1.fbebc4f87a822p-1", "0x1.dce8d493e31f0p+1"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point, raw, c_star", _KL_C_STAR)
def test_kl_reports_the_same_c_star(point, raw, c_star):
    # c* is computed by the two entry points that report it, not by
    # kl_opt_core, with no warning where it is inf (p* = 1)
    for res in (dg.bound_kl(*point), dg.competitor_bound("kl", *point)):
        assert res.raw == float.fromhex(raw) and res.free_params["c"] == float.fromhex(c_star)


def test_power_qmax_flags_nonpositive_slope():
    res = dg.bound_power_beta(0.5, 5.0, 2.0, mode="qmax", q_max=0.9)
    assert not res.preconditions_met
    ok = dg.bound_power_beta(0.01, 0.05, 2.0, mode="qmax", q_max=0.02)
    assert ok.preconditions_met and ok.free_params["m"] > 0
    with pytest.raises(RangeError):
        dg.bound_power_beta(0.5, 0.1, 2.0, mode="qmax", q_max=0.3)
    with pytest.raises(ValidationError):
        dg.bound_power_beta(0.5, 0.1, 2.0, mode="bogus")


@pytest.mark.parametrize("mode", ["implicit", "small_q"])
def test_power_beta_takes_q_max_only_in_qmax_mode(mode):
    with pytest.raises(ValidationError, match=f"power mode '{mode}' takes no q_max"):
        dg.bound_power_beta(0.3, 0.1, 2.0, mode=mode, q_max=0.5)


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


def _min_convex_line(fn, x0=0.0, step=1.0):
    """Minimize a convex function on the whole real line: bracket the
    minimum by doubling steps away from x0 (at most 200), then refine the
    bracket by golden-section.  Returns (argmin, value)."""

    def safe(x):
        v = fn(x)
        return v if v == v else math.inf

    a, m, b = x0 - step, x0, x0 + step
    fa, fm, fb = safe(a), safe(m), safe(b)
    for _ in range(200):
        if fa < fm:
            a, m, b = a - 2.0 * (m - a), a, m
            fa, fm, fb = safe(a), fa, fm
        elif fb < fm:
            a, m, b = m, b, b + 2.0 * (b - m)
            fa, fm, fb = fm, fb, safe(b)
        else:
            break
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - shrink * (b - a), a + shrink * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(200):
        if (b - a) <= 1e-10 * max(abs(a), abs(b), 1.0):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - shrink * (b - a)
            f1 = safe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + shrink * (b - a)
            f2 = safe(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _nested_young_fenchel(q, d, spec):
    """The Young-Fenchel bound minimized over (u, v) by a nested search, the
    oracle for the sharp root: golden-section over the gap w = u - v on the
    log bracket [1e-5, 1e12] (below 1e-5 the numerator cancels), and for each
    gap a line search over v on the whole real line (the objective is convex
    in v)."""

    def value(u, v):
        fu, fv = spec.fstar(u), spec.fstar(v)
        if not (u > v and math.isfinite(fu) and math.isfinite(fv)):
            return math.inf
        return (d - v + q * fu + (1.0 - q) * fv) / (u - v)

    _, val = golden_min(
        lambda w: _min_convex_line(lambda x: value(x + w, x), step=max(w, 1.0))[1], 1e-5, 1e12)
    return val


def test_young_fenchel_matches_sharp_bounds():
    """The Young-Fenchel optimum is the sharp inversion: the nested search
    over (u, v) finds the sharp bounds, which bound_young_fenchel returns."""
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
                spec = dg.conjugate_spec_for(kind)
                assert _nested_young_fenchel(q, d, spec) == pytest.approx(target, abs=1e-12)
                assert dg.bound_young_fenchel(q, d, kind).raw == pytest.approx(target, abs=1e-12)
    square = lambda t: (t - 1.0) ** 2  # noqa: E731
    for q, d in ((0.1, 0.2), (0.4, 0.05), (0.7, 0.1)):
        target = dg.bound_chi2(q, d).raw
        assert target < 1.0
        assert _nested_young_fenchel(q, d, dg.conjugate_spec_for(square)) == pytest.approx(
            target, abs=1e-9)
        assert dg.bound_young_fenchel(q, d, square).raw == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("generator", [dg.KL, dg.CHI2, dg.power_kind(1.5), dg.power_kind(4.0),
                                       lambda t: (t - 1.0) ** 2])
def test_young_fenchel_reports_the_optimal_pair(generator):
    """Fenchel equality: the reported (u, v), given back to the bound, give
    the optimum again.  The fixed-(u, v) formula sums terms larger than its
    value, so the rounding allowed is 4 ulp of the sum of their magnitudes
    over u - v."""
    spec = dg.conjugate_spec_for(generator)
    rng = np.random.default_rng(2202)
    checked = 0
    for q, d in zip(rng.uniform(0.02, 0.98, 40), rng.exponential(0.4, 40)):
        res = dg.bound_young_fenchel(q, d, generator)
        if not res.raw < 1.0:
            continue
        u, v = res.free_params["u"], res.free_params["v"]
        again = dg.bound_young_fenchel(q, d, spec, u=u, v=v).raw
        size = (d + abs(v) + q * abs(spec.fstar(u)) + (1.0 - q) * abs(spec.fstar(v))) / (u - v)
        assert abs(again - res.raw) <= 4 * math.ulp(max(size, res.raw)), (q, d)
        checked += 1
    assert checked >= 20


_SHARP_CORES = [
    (dg.KL, B.kl_opt_core),
    (dg.CHI2, B.chi2_core),
    (dg.SQUARED_HELLINGER, B.hellinger_core),
    (dg.REVERSE_CHI2, B.reverse_chi2_core),
    (dg.REVERSE_KL, B.reverse_kl_exact_core),
    (dg.VINCZE_LECAM, B.vincze_core),
    (dg.power_kind(1.5), partial(B.power_implicit_core, beta=1.5)),
    (dg.power_kind(4.0), partial(B.power_implicit_core, beta=4.0)),
]


@pytest.mark.parametrize("kind, core", _SHARP_CORES, ids=[str(k) for k, _ in _SHARP_CORES])
def test_sharp_cores_are_the_inversion_of_their_generator(kind, core):
    """Each hand-written sharp core is f_sharp_core of the generator the
    sweep computes its divergence with, at divergences of p* > q."""
    rng = np.random.default_rng(2203)
    q = np.exp(rng.uniform(math.log(1e-6), math.log(0.9), 200))
    p = q + (1.0 - q) * rng.uniform(0.0, 1.0, 200)
    d = np.array([dg.binary_f_divergence(a, b, kind) for a, b in zip(p, q)])
    want = core(q, d)
    got = B.f_sharp_core(q, d, partial(generator_values, kind))
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_f_sharp_core_at_the_ends():
    square = lambda t: (t - 1.0) ** 2  # noqa: E731
    q = np.array([0.0, 0.3, 0.3, 0.3, 0.3, 1.0])
    d = np.array([0.5, 0.0, np.inf, 1e6, np.nan, 0.5])
    got = B.f_sharp_core(q, d, square)
    assert got[:4].tolist() == [0.0, 0.3, 1.0, 1.0] and np.isnan(got[4]) and got[5] == 1.0
    assert B.f_sharp_core(0.3, 0.5, square) == B.f_sharp_core(np.array([0.3]), 0.5, square)[0]


def test_young_fenchel_reports_a_callables_slopes():
    """The slopes of (t - 1)^2 at p*/q, large at small q, and (1-p*)/(1-q)."""
    for q, d in ((1e-6, 0.5), (1e-3, 2.0), (0.3, 0.1)):
        res = dg.bound_young_fenchel(q, d, lambda t: (t - 1.0) ** 2)
        p, u, v = res.raw, res.free_params["u"], res.free_params["v"]
        assert u == pytest.approx(2.0 * (p / q - 1.0), rel=1e-9)
        assert v == pytest.approx(2.0 * ((1.0 - p) / (1.0 - q) - 1.0), rel=1e-9)


@pytest.mark.parametrize("generator, sharp", [
    (lambda t: t * math.log(t), dg.bound_kl),
    (lambda t: -math.log(t), partial(dg.bound_reverse_kl, mode="exact")),
])
def test_young_fenchel_takes_a_generator_undefined_at_zero(generator, sharp):
    """t log t and -log t written with the math module raise at t = 0."""
    for q, d in ((0.2, 0.3), (0.2, 3.0), (0.01, 1.0), (0.9, 0.05)):
        got = dg.bound_young_fenchel(q, d, generator).raw
        assert got == pytest.approx(sharp(q, d).raw, rel=1e-12), (q, d)


def test_young_fenchel_reports_the_slopes_at_the_ends():
    res = dg.bound_young_fenchel(0.5, 5.0, dg.KL)  # KL saturates: p* = 1
    assert res.raw == 1.0
    assert res.free_params["u"] == math.log(2.0) + 1.0 and res.free_params["v"] == -math.inf
    res = dg.bound_young_fenchel(0.5, 5.0, dg.CHI2)  # its raw value exceeds 1
    assert res.value == 1.0 and res.free_params["u"] > res.free_params["v"]
    res = dg.bound_young_fenchel(5e-324, 0.5, dg.power_kind(50.0))  # f'(p*/q) overflows
    assert res.raw < 1e-290 and res.free_params["u"] == math.inf


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
    by_hand = dg.ConjugateSpec("chi2 by hand", lambda u: u + 0.25 * u * u)  # no generator
    with pytest.raises(ValidationError):
        dg.bound_young_fenchel(0.25, 0.5, by_hand)
    assert dg.bound_young_fenchel(0.25, 0.5, by_hand, u=2.0, v=0.0).raw == pytest.approx(0.625)


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


# the worst error of the power conjugate, in ulp, where its exponent
# b/(b-1) is a float (3 and 2 exactly, 4/3 rounded)
POWER_CONJUGATE_ULPS = {1.5: 3.0, 2.0: 3.0, 4.0: 12.0}


@pytest.mark.parametrize("beta", sorted(POWER_CONJUGATE_ULPS))
def test_power_conjugate_matches_a_decimal_reference(beta):
    """1/(b-1) + ((b-1)u/b)^(b/(b-1)) against 50 digits on log-uniform u in
    [1e-6, 1e6]."""
    fstar = dg.conjugate_spec_for(dg.power_kind(beta)).fstar
    b, worst = Decimal(beta), 0.0
    with localcontext() as context:
        context.prec = 50
        for u in 10.0 ** np.random.default_rng(0).uniform(-6.0, 6.0, 3000):
            want = 1 / (b - 1) + ((b - 1) * Decimal(u) / b) ** (b / (b - 1))
            err = abs(Decimal(fstar(u)) - want) / Decimal(math.ulp(float(want)))
            worst = max(worst, float(err))
    assert worst <= POWER_CONJUGATE_ULPS[beta]
    assert fstar(0.0) == fstar(-1.0) == 1.0 / (beta - 1.0)
    assert fstar(1e300) == math.inf  # past the float range


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


def test_f_slope_gap_of_a_callable_keeps_its_digits_at_large_gamma():
    # the Richardson step grows with t: a fixed step of 1e-6 put the gap of
    # (t - 1)^2 off by 4.0 at gamma = 1e5, and that of t log t by 1.7e-4
    cases = ((lambda t: (t - 1.0) ** 2, lambda g: 2.0 * (g - 1.0)),
             (lambda t: t * np.log(t), math.log))
    for f, exact in cases:
        # at t = 1 the step is still 1e-6
        assert float(B._relative_slope(f, 1.0)) == B._richardson_derivative(f, 1.0, 1e-6)
        for gamma in (1.5, 1e3, 1e5):
            gap, gamma0 = B.f_slope_gap(f, gamma)
            assert gamma0 == gamma
            assert gap == pytest.approx(exact(gamma), rel=1e-9, abs=1e-9), (gamma, gap)


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


def test_reverse_chi2_and_vincze_where_the_product_underflows():
    # r * q * (1-q) under one root underflows: both returned 1.5e-200
    assert B.reverse_chi2_core(1e-200, 1e-200) == pytest.approx(
        (3.0 + math.sqrt(5.0)) / 2.0 * 1e-200, rel=1e-15, abs=0)
    assert B.vincze_core(1e-200, 1e-200) == pytest.approx(3e-200, rel=1e-15, abs=0)


def test_reverse_kl_exact_is_one_at_infinite_divergence():
    assert dg.bound_reverse_kl(0.3, math.inf).raw == 1.0
    assert dg.invert_binary_kl(1e-200, math.inf) == 1.0


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
@example(0.5, 1e-20)  # Pinsker is tight: kl(p || q) at q + sqrt(d / 2) rounds below d
def test_root_kernels_are_on_the_sound_side(q, d):
    # the sharp inversions: the constraint, evaluated as the kernel evaluates
    # it, reaches the target at the returned value (or the value is the end
    # of its range)
    p = float(B.kl_opt_core(q, d))
    assert q <= p <= 1.0 and (p == 1.0 or dg.bernoulli_kl(p, q) >= d)
    p_rev = float(B.reverse_kl_exact_core(q, d))
    assert q <= p_rev and (p_rev == np.nextafter(1.0, 0.0) or dg.bernoulli_kl(q, p_rev) >= d)
    for beta in (1.5, 2.0, 4.0):
        p_pow = float(B.power_implicit_core(q, d, beta))
        with np.errstate(all="ignore"):
            excess = float(B._power_excess(p_pow, q, beta)[0])
        assert q <= p_pow <= 1.0 and (p_pow == 1.0 or excess >= (beta - 1.0) * d)


def _recording(monkeypatch, name):
    """The points at which ``bounds.<name>`` is evaluated from now on, one
    flat array per call, in call order."""
    fn, calls = getattr(B, name), []

    def recorded(x, *params, **kw):
        calls.append(np.array(x, dtype=float).reshape(-1))
        return fn(x, *params, **kw)

    monkeypatch.setattr(B, name, recorded)
    return calls


def test_kl_start_is_above_the_root_where_pinsker_is_tight(monkeypatch):
    # at q = 1/2 and tiny d, kl(p || q) at Pinsker's q + sqrt(d / 2) is d
    # within its rounding; a start below the root leaves the bracket
    # [start, 1], searched from p = 1 in 36 steps
    calls = _recording(monkeypatch, "_kl_above")
    p = float(B.kl_opt_core(0.5, 1e-20))
    assert dg.bernoulli_kl(p, 0.5) >= 1e-20
    assert len(calls) - 1 <= 10  # the first evaluates the start; q is not evaluated


def _extreme_grid():
    """(q, d) on 5,400 points: q log-spaced on [1e-300, 0.5] and 1 - q on
    [3e-16, 0.5], times divergences log-spaced on [1e-30, 1e3]."""
    q = np.concatenate([np.geomspace(1e-300, 0.5, 30), 1.0 - np.geomspace(3e-16, 0.5, 30)])
    return tuple(v.ravel() for v in np.meshgrid(q, np.geomspace(1e-30, 1e3, 90)))


# (q, d) where a kernel takes a path of its own: d = 0, inf and NaN; Q(E) = 0
# and 1; KL saturated (d >= log(1/q)); power bounds that admit p = 1; the
# rare lane of kl(q || p)'s log-ratio at (1e-17, 1); Pinsker tight (1/2, 1e-20);
# and a point each where the KL, reverse-KL and beta = 1.5 power searches end
# at a Newton point that leaves the value unchanged
_EDGE_POINTS = [(0.3, 0.0), (1e-200, 0.0), (0.3, math.inf), (0.3, math.nan), (1e-200, math.nan),
                (0.0, 0.5), (1.0, 0.5), (0.3, 2.0), (1e-5, 12.0), (0.3, 100.0), (1e-3, 1e4),
                (1e-17, 1.0), (0.5, 1e-20), (8.591832359581749e-08, 1.0578765951584015e-08),
                (0.3082719477488186, 9.207763515742612e-13), (0.2101355338824341, 8.881258766468771e-07)]

# the root kernels and the competitors that report an optimal parameter, at
# their (value, parameter); the small-q power relaxation at its (value, u0)
_ONE_POINT_KERNELS = {
    "kl": B.kl_opt_core,
    "competitor_kl": partial(B.competitor_optimum, "kl"),
    "reverse_kl_exact": B.reverse_kl_exact_core,
    "competitor_reverse_kl": partial(B.competitor_optimum, "reverse_kl"),
    **{f"{name}[beta={b:g}]": partial(core, beta=b)
       for name, core in (("power_implicit", B.power_implicit_core),
                          ("competitor_power", partial(B.competitor_optimum, "power")),
                          ("power_small_q", B.power_small_q_core))
       for b in (1.5, 2.0, 4.0)},
}


def test_root_kernels_agree_at_one_point_and_in_a_batch():
    # the input shape picks the path: a batch is searched in blocks, one
    # point (0-d inputs) by the root-finder's one-element path, with no
    # reductions in the rare-lane checks.  A kernel's values at one point
    # are its values in a batch, bit for bit, at 40 random points, at 500
    # points of the extreme grid and at the edge points; invert_binary_kl
    # is the reverse-KL kernel's
    rng = np.random.default_rng(13)
    n = 10_000
    grid_q, grid_d = _extreme_grid()
    pick = rng.choice(grid_q.size, 500, replace=False)
    edge_q, edge_d = np.array(_EDGE_POINTS).T
    q = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, n // 2), rng.uniform(0.0, 1.0, n // 2),
                        grid_q[pick], edge_q])
    d = np.concatenate([10.0 ** rng.uniform(-25.0, 2.0, n), grid_d[pick], edge_d])
    points = np.concatenate([rng.choice(n // 2, 20, replace=False),
                             rng.choice(np.arange(n // 2, n), 20, replace=False),
                             np.arange(n, q.size)])
    with np.errstate(all="ignore"):
        for name, core in _ONE_POINT_KERNELS.items():
            batch = core(q, d)
            batch = batch if isinstance(batch, tuple) else (batch,)
            assert all(np.shape(v) == q.shape for v in batch), name
            for i in points:
                one = core(np.asarray(q[i]), np.asarray(d[i]))
                for got, want in zip(one if isinstance(one, tuple) else (one,), batch):
                    got = np.asarray(got)
                    assert got.shape == () and got.tobytes() == want[i].tobytes(), (name, q[i], d[i])
            if name == "reverse_kl_exact":
                for i in points[(q[points] > 0.0) & (q[points] < 1.0) & ~np.isnan(d[points])]:
                    assert float.hex(B.invert_binary_kl(q[i], d[i])) == float.hex(batch[0][i])


@pytest.mark.parametrize("kernel", ["kl", "reverse_kl_exact", "power_implicit[beta=1.5]",
                                    "power_implicit[beta=2]", "power_implicit[beta=4]"])
def test_one_point_evaluates_as_a_one_element_batch(monkeypatch, kernel):
    # at 0-d inputs each searched kernel evaluates its constraint at the
    # same points, as many times, as on a one-element batch: the start, the
    # open bracket end, each step and the beta = 2 check, in the same order
    core = _ONE_POINT_KERNELS[kernel]
    calls = [_recording(monkeypatch, name) for name in ("_kl_above", "_power_excess", "_kl_below")]
    grid_q, grid_d = _extreme_grid()
    pick = np.random.default_rng(17).choice(grid_q.size, 100, replace=False)
    evaluated = 0
    for q, d in [*_EDGE_POINTS, *zip(grid_q[pick], grid_d[pick])]:
        seen = []
        for shape in ((), (1,)):
            for c in calls:
                c.clear()
            with np.errstate(all="ignore"):
                core(np.reshape(q, shape), np.reshape(d, shape))
            seen.append([[x.tobytes() for x in c] for c in calls])
        assert seen[0] == seen[1], (q, d)
        evaluated += sum(map(len, seen[0]))
    assert evaluated >= len(pick)


def _reference_root(fn, lo, start, hi, target, *args):
    """The smallest double in [lo, hi] (lo >= 0) where fn reaches target, or
    hi: bisection over the ordered bit patterns of nonnegative doubles,
    which does not use start."""
    lo, hi, target, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, target, *args)))
    finite = np.isfinite(hi)
    a, b = lo.view(np.int64).copy(), np.where(finite, hi, lo).view(np.int64).copy()
    for _ in range(64):
        m = a + (b - a) // 2
        below = fn(m.view(float), *args)[0] < target
        a, b = np.where(below, m, a), np.where(below, b, m)
    return np.where(finite & (fn(lo, *args)[0] < target), b.view(float), np.where(finite, lo, hi))


def test_root_kernels_on_an_extreme_grid():
    # each sharp inversion against a bisection of its own constraint, in
    # ulps of the value, on the 5,400 points of _extreme_grid.  KL and
    # reverse KL are within 4 ulp either way; the power bound is at most 5
    # below and 8 above (883 / 406 / 189 above for beta = 1.5 / 2 / 4 while
    # its constraint summed (p/q)^b as exp(b log(p/q)) at any p)
    q, d = _extreme_grid()
    with np.errstate(all="ignore"):
        saturated = d >= -np.log(q)
        kl = _reference_root(B._kl_above, q, None, np.where(saturated, q, 1.0), d, q)
        kernels = {
            "kl": (B.kl_opt_core(q, d), np.where(saturated, 1.0, kl), 4, 4),
            "reverse_kl": (B.reverse_kl_exact_core(q, d),
                           _reference_root(B._kl_below, q, None, np.nextafter(1.0, 0.0), d, q), 4, 4),
        }
        for beta in (1.5, 2.0, 4.0):
            admits_one = np.log1p((beta - 1.0) * d) + (beta - 1.0) * np.log(q) >= 0.0
            ref = _reference_root(partial(B._power_excess, beta=beta), q, None, 1.0, (beta - 1.0) * d, q)
            kernels[f"power[beta={beta:g}]"] = (B.power_implicit_core(q, d, beta),
                                                np.where(admits_one, 1.0, ref), 5, 8)
    for name, (got, want, below, above) in kernels.items():
        ulps = (got - want) / np.spacing(want)
        assert not np.isnan(ulps).any(), name
        assert -below <= ulps.min() and ulps.max() <= above, (name, ulps.min(), ulps.max())


def test_root_kernels_give_nan_at_a_nan_divergence():
    # the root-finder returns the hi side of a bracket whose value is NaN:
    # the bound was 1, the vacuous value that counts as sound, where the
    # closed forms (chi2, the power bound at beta = 2) give NaN
    kernels = {
        "kl": B.kl_opt_core,
        "reverse_kl_exact": B.reverse_kl_exact_core,
        **{f"power_implicit[beta={b:g}]": partial(B.power_implicit_core, beta=b)
           for b in (1.5, 2.0, 4.0)},
    }
    q = np.array([0.3, 1e-200, 0.3, 1e-200])
    d = np.array([math.nan, math.nan, 0.5, 0.5])
    for name, core in kernels.items():
        for one in (0.3, 1e-200):
            assert np.isnan(core(one, math.nan)), (name, one)
        batch = core(q, d)
        assert np.isnan(batch[:2]).all(), name
        assert np.array_equal(batch[2:], core(q[2:], d[2:])), name


ROOT_KERNEL_IDS = ("kl", "power_implicit", "reverse_kl_exact", "competitor_power", "competitor_reverse_kl")
# elements at which each constraint is evaluated on the chunk below (starts,
# bracket ends and steps of every search, and anything a kernel evaluates
# itself, as the beta = 2 power bound checks its closed form): a ceiling, so
# that duplicate evaluations cannot return unnoticed
EVALUATED_ELEMENTS = {"_kl_above": 244_741, "_power_excess": 266_619, "_kl_below": 364_459}
# most root-finder calls after the start's in one search (the power
# constraint's over its two searches, beta = 1.5 and 4)
SEARCH_STEPS = {"_kl_above": 8, "_power_excess": 10, "_kl_below": 6}


def test_root_kernels_converge_on_a_sweep_chunk(monkeypatch):
    # on a criterion-1 chunk every root settles before the step cap, and each
    # kernel's values are within 4 ulp of 1 (bound values are probabilities)
    # of the same kernel with an exact bisection in place of the root-finder.
    # Closer agreement is not defined: the constraints are evaluated with a
    # few ulp of noise, and two bisections can stop at different crossings.
    # The power and reverse-KL competitors are our bounds, evaluated once, and
    # the power bound at beta = 2 is a closed form: four searches.
    from divgauge import _optim, verify as V
    from divgauge._optim import ROOT_STEPS

    pairs = [dg.random_pair(11, i, 8) for i in range(500)]
    masks = event_mask_matrix(8)

    def values():
        batch = V.PairBatch.from_pairs(pairs, masks)
        return {
            V.case_label(bound_id, params):
                np.broadcast_to(V._REGISTRY[bound_id](batch, **params)[0], batch.shape)
            for bound_id, params in V.default_cases()
            if bound_id in ROOT_KERNEL_IDS
        }

    evaluated = dict.fromkeys(EVALUATED_ELEMENTS, 0)

    def counting(name):
        fn = getattr(B, name)

        def counted(x, *params, **kw):
            evaluated[name] += np.size(x)
            return fn(x, *params, **kw)

        counted.__name__ = name
        return counted

    for name in EVALUATED_ELEMENTS:
        monkeypatch.setattr(B, name, counting(name))
    steps = []

    def counted_root(fn, lo, start, hi, target, *args):
        calls = []

        def counted(x, *params):
            calls.append(1)
            return fn(x, *params)

        root = increasing_root(counted, lo, start, hi, target, *args)
        # every call after the first, which evaluates the start (a bracket
        # end left open is evaluated in the second, and counts as a step)
        steps.append((getattr(fn, "func", fn).__name__, len(calls) - 1))
        return root

    monkeypatch.setattr(B, "increasing_root", counted_root)
    monkeypatch.setattr(_optim, "ROOT_BLOCK", 1 << 30)  # one block per call, so one count
    ours = values()
    counts = dict(evaluated)
    monkeypatch.setattr(B, "increasing_root", _reference_root)
    with np.errstate(all="ignore"):
        reference = values()
    assert len(ours) == 9 and len(steps) == 4 and max(n for _, n in steps) < ROOT_STEPS
    assert all(counts[name] <= most for name, most in EVALUATED_ELEMENTS.items()), counts
    assert all(n <= SEARCH_STEPS[name] for name, n in steps), steps
    for beta in (1.5, 2, 4):
        assert np.array_equal(ours[f"competitor_power[beta={beta:g}]"],
                              ours[f"power_implicit[beta={beta:g}]"])
    assert np.array_equal(ours["competitor_reverse_kl"], ours["reverse_kl_exact"])
    for label, got in ours.items():
        want = reference[label]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 4 * np.spacing(1.0)


def test_root_finder_leaves_its_inputs_unchanged(monkeypatch):
    # the root-finder searches views of the caller's arrays, block by block:
    # it writes none of them, whether an input is contiguous, strided or
    # broadcast against the others, and the blocks do not change a root
    from divgauge import _optim

    rng = np.random.default_rng(3)
    root = rng.uniform(0.5, 2.0, (6, 10))
    scale = rng.uniform(1.0, 3.0, 10)  # broadcast over the rows
    lo = np.zeros((6, 1))  # broadcast over the columns
    hi = np.repeat(4.0 * root, 2, axis=1)[:, ::2]  # strided
    start = root * rng.uniform(0.5, 4.0, root.shape)  # some below the root, some above
    target = scale * root**3
    inputs = (lo, start, hi, target, scale)
    before = [v.copy() for v in inputs]

    def cube(x, c):
        return c * x**3, 3.0 * c * x * x

    whole = increasing_root(cube, *inputs)
    monkeypatch.setattr(_optim, "ROOT_BLOCK", 7)
    blocked = increasing_root(cube, *inputs)
    for got, want in zip(inputs, before):
        assert np.array_equal(got, want)
    assert blocked.shape == root.shape and blocked.tobytes() == whole.tobytes()
    assert np.all(cube(blocked, scale)[0] >= target)


def test_root_finder_may_be_given_back_its_own_arrays():
    # a function may return its argument as its value (the identity gauge of
    # a custom Orlicz norm does); the root-finder writes the values it keeps,
    # so it must copy such a value first
    target = np.array([0.3, 1.0, 2.5, 3.9])

    def identity(x, t):
        return x, np.nan  # no slope: halving, with points below the target

    def shifted(x, t):
        return x + 0.0, np.nan

    for lo, start in ((0.0, 4.0), (np.zeros(4), target * 0.5)):
        got = increasing_root(identity, lo, start, 4.0, target, target)
        assert got.tobytes() == increasing_root(shifted, lo, start, 4.0, target, target).tobytes()
        assert np.all(got >= target) and np.all(got - target <= 2.0 * np.spacing(target))
    one = increasing_root(lambda x: (x, np.nan), 0.0, 4.0, 4.0, 1.0)
    assert one.shape == () and 1.0 <= float(one) <= 1.0 + 2.0 * np.spacing(1.0)
    assert np.array_equal(target, [0.3, 1.0, 2.5, 3.9])


def _mixed(x, kind):
    """kind 0: x^3, convex, so every Newton point from above is above the
    bracket; kind 1: sqrt(x), concave, where Newton points fall at or below
    the bracket and secant and halving steps take over; kind 2: x with a
    NaN slope, searched by halving.  The cube is np.power's: Python's ** on
    a float64 scalar is the C library's pow, an ulp off it at some points."""
    with np.errstate(invalid="ignore", divide="ignore"):
        value = np.where(kind == 0, np.power(x, 3), np.where(kind == 1, np.sqrt(x), x))
        slope = np.where(kind == 0, 3.0 * x * x, np.where(kind == 1, 0.5 / np.sqrt(x), np.nan))
    return value, slope


def _one_element_batch(fn, *inputs):
    """increasing_root on one-element arrays, with fn given 0-d arrays: the
    array path at one point."""

    def at_one(x, *params):
        return fn(x.reshape(()), *(p.reshape(()) for p in params))

    return increasing_root(at_one, *(np.reshape(v, 1) for v in inputs))[0]


def test_root_finder_steps_do_not_depend_on_the_batch():
    # on steps where every Newton point is above its bracket the root-finder
    # skips the fallback; a batch that mixes pure-Newton elements with ones
    # that need the secant or halving fallback gives each element the root
    # it gets when searched alone (the one-element path) and in a batch of
    # one, bit for bit, within 2 ulp of the exact root; alone and in a batch
    # of one it evaluates the same points
    rng = np.random.default_rng(5)
    n = 60
    kind = np.repeat([0.0, 1.0, 2.0], n // 3)
    root = rng.uniform(0.5, 4.0, n)
    target = _mixed(root, kind)[0]
    hi = root * rng.uniform(1.5, 40.0, n)
    start = np.where(rng.uniform(size=n) < 0.5, hi, root * rng.uniform(0.2, 1.0, n))
    lo = np.zeros(n)
    batch = increasing_root(_mixed, lo, start, hi, target, kind)

    def traced(root, i):  # (root, the points evaluated)
        points = []

        def fn(x, k):
            points.append(float(x))
            return _mixed(x, k)

        return float(root(fn, lo[i], start[i], hi[i], target[i], kind[i])), points

    alone = [traced(increasing_root, i) for i in range(n)]
    assert alone == [traced(_one_element_batch, i) for i in range(n)]
    assert batch.tobytes() == np.array([r for r, _ in alone]).tobytes()
    assert np.all(_mixed(batch, kind)[0] >= target)
    assert np.all(np.abs(batch - root) <= 2.0 * np.spacing(root))


def test_scalar_callers_of_the_root_finder_agree_with_a_batch_of_one(monkeypatch):
    # the searches outside bounds call the root-finder at shape (): the
    # t* of the averaged-MI bound, and a custom gauge's inverse and
    # Luxemburg norm (pure halving, with no slope).  Each gives the bits of
    # a one-element array call, as does a halving search cut at ROOT_STEPS;
    # so does a gauge written with Python's ** (on a float64 scalar that is
    # the C library's pow, an ulp off numpy's at some of these points)
    from divgauge import genbounds as G, orlicz as O

    def arr(t):
        return np.asarray(t, dtype=float)

    gauges = [O.custom_orlicz(lambda t: arr(t) ** 2 / 2.0, name="half-square"),
              O.custom_orlicz(lambda t: (1.0 + arr(t)) * np.log1p(arr(t)) - arr(t), name="xlogx"),
              O.custom_orlicz(lambda t: t ** 3.3 / 3.3, name="power(3.3) by **")]
    values, weights = np.array([1e-14, 0.3, 2.5, 40.0]), np.array([0.1, 0.2, 0.3, 0.4])

    def results(root):
        with np.errstate(all="ignore"):
            return ([G._tstar(mi) for mi in (0.0, 0.1, 3.0, 1e3)]
                    + [spec.inverse(s) for spec in gauges for s in np.geomspace(1e-9, 1e6, 200)]
                    + [O.luxemburg_norm_values(values, weights, spec) for spec in gauges]
                    + [float(root(_mixed, 0.0, 1e300, 1e300, 1.0, 2.0))])

    alone = results(increasing_root)
    assert alone[-1] > 1e260  # the cut search: 100 halvings from 1e300
    for module in (G, O):
        monkeypatch.setattr(module, "increasing_root", _one_element_batch)
    assert list(map(float.hex, results(_one_element_batch))) == list(map(float.hex, alone))


@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0, 50.0])
def test_power_implicit_settles_where_the_constraint_admits_one(monkeypatch, beta):
    # where q^(1-b) - 1 <= (b-1) H, p = 1 meets the constraint: the bound is
    # exactly 1 and nothing is evaluated. Half the points straddle that line
    # within a few ulp of H; none of their values is below the smallest
    # double where the constraint, as evaluated, reaches its target
    rng = np.random.default_rng(int(10 * beta))
    n = 400
    q_far = 10.0 ** rng.uniform(-300.0, -1e-3, n // 2)
    h_far = 10.0 ** rng.uniform(-300.0, 3.0, n // 2)
    # q >= 1e-300 where the line's H is finite, and H within 4 ulp of it
    q_near = np.exp(-rng.uniform(1e-3, min(690.0, 700.0 / (beta - 1.0)), n // 2))
    line = np.expm1((1.0 - beta) * np.log(q_near)) / (beta - 1.0)
    h_near = line * (1.0 + np.spacing(1.0) * rng.integers(-4, 5, n // 2))
    q, h = np.concatenate([q_far, q_near]), np.concatenate([h_far, h_near])
    excess = B._power_excess
    evaluated = []

    def counted(p, qs, beta):
        evaluated.append(np.array(qs, ndmin=1))
        return excess(p, qs, beta)

    monkeypatch.setattr(B, "_power_excess", counted)
    got = B.power_implicit_core(q, h, beta)
    settled = ~np.isin(q, np.concatenate(evaluated))
    evaluated.clear()
    at_zero = B.power_implicit_core(q, 0.0, beta)
    assert not evaluated
    admits_one = np.log1p((beta - 1.0) * h) >= (1.0 - beta) * np.log(q)  # q^(1-b) <= 1 + (b-1) H
    assert admits_one.any() and not admits_one.all()
    assert np.array_equal(settled, admits_one)
    assert np.all(got[admits_one] == 1.0)
    # elsewhere the constraint as evaluated reaches its target (beta = 2, a
    # closed form raised an ulp at a time, as well as the searches)
    with np.errstate(all="ignore"):
        assert np.all(excess(got, q, beta)[0][~admits_one] >= (beta - 1.0) * h[~admits_one])
    with np.errstate(all="ignore"):
        reference = _reference_root(partial(excess, beta=beta), q, None, 1.0, (beta - 1.0) * h, q)
    near = slice(n // 2, None)
    assert np.all(got[near] >= reference[near])
    # elsewhere a tiny H puts the root within rounding of q, where the
    # constraint is rounding noise: the search and the bisection can stop at
    # crossings a few ulp apart (see the sweep-chunk test)
    assert np.all(got >= reference - 8.0 * np.spacing(reference))
    # H = 0 gives q itself, as bound_kl(q, 0) does
    assert np.array_equal(at_zero, q)


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


def test_orlicz_bound_with_a_custom_gauge_matches_its_power_twin():
    # t^2 / 2, given as a callable, is the power gauge of kappa = 2
    custom = dg.custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 / 2.0, name="half-square")
    pair = dg.AbsContPair(dg.make_distribution([3, 1, 2, 0, 2]), dg.make_distribution([1, 2, 1, 1, 3]))
    for code in range(1, 32):
        mask = EventMask.from_int(code, 5)
        for gamma in (0.0, 1.0):
            res = dg.bound_orlicz(pair, mask, gamma, custom)
            twin = dg.bound_orlicz(pair, mask, gamma, dg.power_orlicz(2.0))
            assert res.free_params["gauge"] == "half-square"
            assert res.raw == pytest.approx(twin.raw, rel=1e-12)
            assert res.raw >= dg.event_probability(pair.p, mask) - 1e-12


@pytest.mark.parametrize("mask", [EventMask.empty(3), EventMask.from_indices([2], 3)])
def test_pair_bounds_at_an_event_of_q_mass_0(mask):
    # P(E) = 0 wherever Q(E) = 0, by domination
    pair = dg.AbsContPair(dg.make_distribution([2, 1, 0]), dg.make_distribution([1, 2, 0]))
    for res in (dg.bound_orlicz(pair, mask, 1.0, dg.power_orlicz(2.0)),
                dg.bound_strong_converse(pair, mask, 1.0)):
        assert res.raw == 0.0 and res.value == 0.0
        assert res.notes[0].startswith("degenerate: Q(E)=0")


def test_qmax_cap_is_checked_at_the_degenerate_events():
    assert dg.bound_power_beta(0.0, 0.1, 2.0, mode="qmax", q_max=0.5).raw == 0.0
    # no cap q_max < 1 lies at or above Q(E) = 1
    with pytest.raises(RangeError, match="q <= q_max < 1"):
        dg.bound_power_beta(1.0, 0.1, 2.0, mode="qmax", q_max=0.5)


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
    # at their optima the reverse competitors are our sharp bounds
    rng = np.random.default_rng(77)
    for _ in range(40):
        q = float(rng.uniform(0.02, 0.9))
        d = float(rng.exponential(0.6))
        assert dg.bound_reverse_chi2(q, d).raw == dg.competitor_bound("reverse_chi2", q, d).raw
        assert (dg.bound_reverse_kl(q, d, mode="exact").raw
                == dg.competitor_bound("reverse_kl", q, d).raw)
        v = min(d, 1.99)
        assert dg.bound_vincze_lecam(q, v).raw == dg.competitor_bound("vincze_lecam", q, v).raw


def test_competitor_power_fixed_and_optimized():
    q, h, beta = 0.2, 0.6, 2.0
    fixed = dg.competitor_bound("power", q, h, beta=beta, s=0.1)
    assert fixed.raw == pytest.approx(B.comp_power_fixed(q, h, beta, 0.1), abs=1e-12)
    opt = dg.competitor_bound("power", q, h, beta=beta)
    assert opt.raw <= fixed.raw + 1e-9
    with pytest.raises(RangeError):
        dg.competitor_bound("power", q, h)


def test_competitor_power_is_the_implicit_power_bound():
    # the family's optimum is the implicit power constraint's root, and the
    # family at the reported shift evaluates back to it
    rng = np.random.default_rng(31)
    q = np.concatenate([10.0 ** rng.uniform(-6, 0, 150), rng.uniform(1e-6, 1, 50)])
    h = 10.0 ** rng.uniform(-6, math.log10(50.0), q.size)
    for beta in (1.5, 2.0, 4.0, 10.0):
        for qv, hv in zip(q, h):
            comp = dg.competitor_bound("power", qv, hv, beta=beta)
            assert comp.raw == dg.bound_power_beta(qv, hv, beta, mode="implicit").raw
            if comp.raw < 1.0:
                at_s = float(B.comp_power_fixed(qv, hv, beta, comp.free_params["s"]))
                assert at_s == pytest.approx(comp.raw, rel=1e-12, abs=0), (qv, hv, beta)


def test_competitor_power_at_tiny_q():
    # at q ~ 1e-226 the family infimum (by 400-digit arithmetic) is
    # 3.7429075059428380e-173; a stationarity search in z = -log rho
    # stopped at 2.55e-173, below every member of the family
    q, h = 2.718305126734714e-226, 3.257020655659663e-14
    opt = dg.competitor_bound("power", q, h, beta=4)
    assert opt.raw == pytest.approx(3.7429075059428380e-173, rel=1e-12, abs=0)
    # at a fixed shift where e^A is close to rho (600-digit reference);
    # subtracting the two lost 14%
    fixed = dg.competitor_bound("power", q, h, beta=4, s=-1e-160)
    assert fixed.raw == pytest.approx(4.6365846965208396e-173, rel=1e-12, abs=0)


# row -> (our scalar bound, the competitor family at a free parameter t > 0,
# the name of t in the competitor's free_params, extra competitor_bound args)
_POWER_FAMILIES = {
    f"power[beta={beta:g}]": (
        partial(dg.bound_power_beta, beta=beta, mode="implicit"),
        lambda q, d, t, beta=beta: B.comp_power_fixed(q, d, beta, -t),
        "s", {"beta": beta},
    )
    for beta in (1.5, 2.0, 4.0)
}
_FAMILIES = {
    "kl": (dg.bound_kl, B.kl_fixed_core, "c", {}),
    "reverse_chi2": (dg.bound_reverse_chi2, B.comp_reverse_chi2_ac, "c", {}),
    "reverse_kl": (partial(dg.bound_reverse_kl, mode="exact"), B.comp_reverse_kl_ac, "c", {}),
    "vincze_lecam": (dg.bound_vincze_lecam, B.comp_vincze_ac, "c", {}),
    **_POWER_FAMILIES,
}


def test_competitor_optima_at_extreme_inputs():
    """Each free-parameter competitor at its optimum is our scalar bound,
    bit for bit; its family at the reported optimum evaluates back to it;
    and no member of the family on a log grid of the parameter is below it.
    So it is the family's infimum, attained at the reported parameter."""
    rng = np.random.default_rng(2026)
    q = np.concatenate([10.0 ** rng.uniform(-300, 0, 60), rng.uniform(0, 1, 40)])
    grid = np.geomspace(1e-6, 1e6, 2001)
    for label, (ours, family, param, extra) in _FAMILIES.items():
        row = label.split("[")[0]
        for d in (0.0, 1e-300, 1e-12, 0.3, 50.0, math.inf):
            raw, t_star = np.empty(q.size), np.empty(q.size)
            for i, qv in enumerate(q):
                comp = dg.competitor_bound(row, float(qv), d, **extra)
                assert comp.raw == ours(float(qv), d).raw, (label, qv, d)
                raw[i], t_star[i] = comp.raw, comp.free_params[param]
            t_star = -t_star if param == "s" else t_star
            assert not np.isnan(raw).any(), (label, d)
            if d == 0.0:
                assert np.array_equal(raw, q), (label, d)
            with np.errstate(all="ignore"):
                best = family(q[:, None], d, grid[None, :]).min(axis=1)
                at_opt = family(q, d, t_star)
            assert np.all(best >= raw - 1e-12), (label, d, np.max(raw - best))
            attained = np.isfinite(t_star) & (t_star > 0.0) & (raw < 1.0)
            err = np.abs(at_opt - raw)[attained] / raw[attained]
            assert np.all(err <= 1e-12), (label, d, err.max())
            if row == "kl":
                for qv in q[d >= np.log(1.0 / q)]:
                    assert dg.bound_kl(float(qv), d).raw == 1.0


def test_competitor_rejects_a_parameter_its_row_does_not_take():
    # each of these used to return as if the argument were absent
    for row, extra in (("chi2", {"c": 5.0}), ("kl", {"s": 0.5}),
                       ("power", {"beta": 2.0, "c": 3.0}), ("reverse_kl", {"beta": 2.0})):
        with pytest.raises(ValidationError):
            dg.competitor_bound(row, 0.3, 0.2, **extra)


_COMPETITOR_CASES = [(row, params) for row, ours in B.DOMINANCE_ROWS.items()
                     for params in ours.competitor.grid]


@pytest.mark.parametrize("row, params", _COMPETITOR_CASES, ids=[
    row + "".join(f"[{k}={v:g}]" for k, v in params.items()) for row, params in _COMPETITOR_CASES])
def test_every_competitor_row_reads_its_table_entry(row, params):
    """At seeded points and the edge points: competitor_bound at the optimum
    is the entry's core at one point, bit for bit; the reported parameter,
    fed back to the declared family, gives the value again to 1e-12; and
    an argument the row does not take raises."""
    comp = B.DOMINANCE_ROWS[row].competitor
    free = comp.free
    rng = np.random.default_rng(23)
    q = np.concatenate([10.0 ** rng.uniform(-300, 0, 40), rng.uniform(0, 1, 40)])
    d = 10.0 ** rng.uniform(-25, 2, q.size)
    points = [*zip(q, d), *((qv, dv) for qv, dv in _EDGE_POINTS if not math.isnan(dv))]
    top = np.nextafter(1.0, 0.0)
    for qv, dv in points:
        qv, dv = float(qv), float(dv)
        if comp.kind is dg.SQUARED_HELLINGER:
            dv = min(dv, 2.0)
        got = dg.competitor_bound(row, qv, dv, **params)
        with np.errstate(all="ignore"):
            want, valid = comp.evaluate(np.asarray(qv), np.asarray(dv), params)
        assert float.hex(got.raw) == float.hex(float(want)), (qv, dv)
        if not 0.0 < qv < 1.0:  # degenerate: no precondition, no parameter
            continue
        assert got.preconditions_met == (valid is None or bool(valid)), (qv, dv)
        t = got.free_params.get(free.name) if free else None
        # the parameter is read off p*, which has rounded to 1 or its
        # predecessor at the top, where it is not defined
        if t is None or not (math.isfinite(t) and t != 0.0 and got.raw < top):
            continue
        with np.errstate(all="ignore"):
            at_t = float(free.family(qv, dv, **params, **{free.name: t}))
        assert at_t == pytest.approx(got.raw, rel=1e-12, abs=0), (qv, dv, t)
    takes = {*params, *([free.name] if free else [])}
    for name, value in (("c", 0.5), ("s", -0.5), ("beta", 2.0)):
        if name not in takes:
            with pytest.raises(ValidationError):
                dg.competitor_bound(row, 0.3, 0.2, **params, **{name: value})


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


def test_kl_fixed_c_must_be_positive():
    assert dg.bound_kl(0.3, 0.5, c=0.7).free_params == {"c": 0.7}
    for c in (0.0, -1.0):
        with pytest.raises(RangeError, match=rf"^c = {c!r} must lie in \(0, inf\)$"):
            dg.bound_kl(0.3, 0.5, c=c)


def test_squared_hellinger_competitor_needs_a_distance_in_range():
    assert not dg.competitor_bound("squared_hellinger", 0.3, 2.0).preconditions_met
    with pytest.raises(RangeError, match=r"must lie in \[0, 2\]$"):
        dg.competitor_bound("squared_hellinger", 0.3, math.nextafter(2.0, 3.0))


def test_f_from_egamma_at_a_nonpositive_slope_gap_checks_nothing():
    # below gamma = 1 the chi-square slope gap f'(gamma) - f'(1) is negative
    q = np.array([0.0, 0.3, 1.0])
    raw, valid = B._f_hs_case(q, 0.2, "chi2", 0.5)
    assert np.all(raw == np.inf) and not valid.any()
    report = dg.verify_com_bound(dg.random_pair(1, 0, 4), "f_from_egamma",
                                 {"kind": "chi2", "gamma": 0.5})
    assert report.trials == 0 and report.violations == 0


# ---------------------------------------------------------------------------
# BoundResult mechanics
# ---------------------------------------------------------------------------


def test_bound_result_clips_for_reporting():
    res = dg.BoundResult("x", 3.7)
    assert res.value == 1.0 and res.raw == 3.7
    assert dg.BoundResult("x", -0.2).value == 0.0
    assert dg.BoundResult("x", math.inf).value == 1.0
    assert dg.BoundResult("x", math.nan).value == 1.0  # NaN never reads as sound

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divgauge import (
    AbsContPair,
    CHI2,
    KL,
    REVERSE_CHI2,
    REVERSE_KL,
    SQUARED_HELLINGER,
    TV,
    VINCZE_LECAM,
    bernoulli_kl,
    binary_f_divergence,
    binary_renyi,
    f_divergence,
    fiber_constants,
    hellinger_to_renyi,
    hockey_stick_kind,
    make_distribution,
    maximal_leakage,
    power_kind,
    random_joint,
    random_pair,
    renyi,
    renyi_kind,
    renyi_to_hellinger,
    sibson_mi,
)
from divgauge.dist import JointFinite, event_mask_matrix
from divgauge.divergences import bernoulli_kl_core, generator_values
from divgauge.errors import BoundaryError, DegenerateMarginalError, RangeError

ALL_KINDS = [
    KL,
    REVERSE_KL,
    CHI2,
    REVERSE_CHI2,
    TV,
    SQUARED_HELLINGER,
    VINCZE_LECAM,
    power_kind(2.5),
    hockey_stick_kind(1.5),
]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_divergence_vanishes_at_equal_arguments(kind):
    d = make_distribution([1, 2, 3, 4])
    assert f_divergence(AbsContPair(d, d), kind) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_divergence_nonnegative_on_random_pairs(kind):
    for i in range(25):
        pair = random_pair(3, i, 6)
        assert f_divergence(pair, kind) >= -1e-12


def test_chi2_matches_hand_computation():
    pair = AbsContPair(make_distribution([1, 1]), make_distribution([1, 3]))
    # sum (p - q)^2 / q = .0625/.25 + .0625/.75
    assert f_divergence(pair, CHI2) == pytest.approx(1 / 3, abs=1e-15)


def test_unit_hockey_stick_equals_total_variation():
    for i in range(30):
        pair = random_pair(5, i, 7)
        tv = f_divergence(pair, TV)
        e1 = f_divergence(pair, hockey_stick_kind(1.0))
        assert tv == pytest.approx(e1, abs=1e-12)


def test_generators_convex_and_zero_at_one():
    grid = np.geomspace(0.05, 20.0, 41)
    for kind in ALL_KINDS:
        vals = generator_values(kind, grid)
        mid = generator_values(kind, 0.5 * (grid[:-1] + grid[1:]))
        chord = 0.5 * (vals[:-1] + vals[1:])
        assert np.all(mid <= chord + 1e-12)
        assert float(generator_values(kind, np.asarray(1.0))) == pytest.approx(
            0.0, abs=1e-15
        )


def test_reverse_divergences_are_infinite_when_p_kills_an_atom():
    pair = AbsContPair(make_distribution([1, 0]), make_distribution([1, 1]))
    assert f_divergence(pair, REVERSE_KL) == math.inf
    assert f_divergence(pair, REVERSE_CHI2) == math.inf
    # forward kinds stay finite under the f(0) conventions
    assert math.isfinite(f_divergence(pair, KL))
    assert math.isfinite(f_divergence(pair, CHI2))


def test_binary_divergence_examples():
    assert binary_f_divergence(0.3, 0.3, KL) == pytest.approx(0.0, abs=1e-15)
    assert binary_f_divergence(0.5, 0.25, CHI2) == pytest.approx(1 / 3, abs=1e-14)
    assert binary_f_divergence(0.9, 0.5, hockey_stick_kind(1.0)) == pytest.approx(
        0.4, abs=1e-15
    )


def test_bernoulli_kl_just_below_one():
    # (b - a) / (1 - b) rounds to -1 at a = 1 - 1 ulp, where log1p returns -inf;
    # kl(1 - 1 ulp, b) is log(1/b) up to ~40 ulp of 1
    a = float(np.nextafter(1.0, 0.0))
    for b in [0.24005781397043852, *np.linspace(1e-3, 1 - 1e-3, 999)]:
        got = bernoulli_kl(a, float(b))
        assert math.isfinite(got) and abs(got - math.log(1.0 / b)) <= 1e-12


def _bernoulli_kl_where(a, b):
    """The reference form of bernoulli_kl_core: both branches of every
    np.where computed on every element."""
    def log_ratio(x, y, diff):
        down = diff / y
        return np.where(down > -1.0, np.log1p(down), np.log(x / y))

    t1 = np.where(a > 0, a * log_ratio(a, b, a - b), 0.0)
    t2 = np.where(a < 1, (1.0 - a) * log_ratio(1.0 - a, 1.0 - b, b - a), 0.0)
    return t1 + t2


def test_bernoulli_kl_core_matches_the_where_form_bit_for_bit():
    # the rare lanes (a in {0, 1}, or (a - b) / b rounding to -1) are fixed up
    # after the fact; every value, in every shape, is the reference's
    rng = np.random.default_rng(19)
    a = np.concatenate([[0.0, 1.0, 1e-17, 1e-300, np.nextafter(1.0, 0.0), 0.5],
                        rng.uniform(0.0, 1.0, 50), 10.0 ** rng.uniform(-300.0, 0.0, 50)])
    b = np.concatenate([[0.3, 0.3, 0.5, 0.9, 0.25, 0.5],
                        rng.uniform(1e-9, 1.0 - 1e-9, 50), 10.0 ** rng.uniform(-300.0, -1e-9, 50)])
    cases = [
        (a, b),  # 1-d, with a = 0, a = 1 and (a - b) / b = -1 lanes
        (a[6:], b[6:]),  # no rare lane
        (a[:, None], b[None, :]),  # broadcast to a matrix
        (0.3, b),  # scalar against a vector
        (a, 0.5),
        (np.float64(1e-17), np.float64(0.5)),  # scalars
        (np.asarray(0.0), np.asarray(0.3)),  # 0-d arrays
        (np.asarray(0.2), np.asarray(0.7)),
        (1.0, 0.4),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, y in cases:
            got, want = bernoulli_kl_core(x, y), _bernoulli_kl_where(x, y)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (x, y)


def test_binary_divergence_boundary_errors():
    with pytest.raises(BoundaryError):
        binary_f_divergence(0.5, 0.0, KL)
    with pytest.raises(BoundaryError):
        binary_f_divergence(0.5, 1.0, KL)
    with pytest.raises(RangeError):
        binary_f_divergence(1.5, 0.5, KL)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_indicator_channel_contraction(kind):
    # two-point divergence of (P(E), Q(E)) never exceeds the full divergence
    for i in range(10):
        pair = random_pair(9, i, 6)
        full = f_divergence(pair, kind)
        masks = event_mask_matrix(6)
        counts = masks.sum(axis=1)
        p_e = pair.p.probs @ masks.astype(float).T
        q_e = pair.q.probs @ masks.astype(float).T
        for c, p, q in zip(counts, p_e, q_e):
            if 0 < c < 6:  # proper nonempty events only
                p = min(max(float(p), 0.0), 1.0)
                assert binary_f_divergence(p, float(q), kind) <= full + 1e-9


def test_renyi_zero_at_equality_and_chi2_identity():
    d = make_distribution([2, 1, 1])
    assert renyi(AbsContPair(d, d), 2.0) == pytest.approx(0.0, abs=1e-14)
    for i in range(20):
        pair = random_pair(13, i, 4, zero_prob=0.0)
        chi2 = f_divergence(pair, CHI2)
        assert renyi(pair, 2.0) == pytest.approx(math.log1p(chi2), abs=1e-12)


def test_renyi_indicator_contraction():
    for i in range(10):
        pair = random_pair(29, i, 5, zero_prob=0.0)
        full = renyi(pair, 2.5)
        masks = event_mask_matrix(5)
        counts = masks.sum(axis=1)
        p_e = pair.p.probs @ masks.astype(float).T
        q_e = pair.q.probs @ masks.astype(float).T
        for c, p, q in zip(counts, p_e, q_e):
            if 0 < c < 5:
                p = min(max(float(p), 0.0), 1.0)
                assert binary_renyi(p, float(q), 2.5) <= full + 1e-9


@given(st.floats(1e-6, 100.0), st.floats(1.0001, 40.0))
def test_power_renyi_conversion_round_trip(h, beta):
    d = hellinger_to_renyi(h, beta)
    back = renyi_to_hellinger(d, beta)
    assert back == pytest.approx(h, rel=1e-12, abs=1e-12)


def test_renyi_kind_validation():
    with pytest.raises(RangeError):
        renyi_kind(1.0)
    with pytest.raises(RangeError):
        renyi(random_pair(0, 0, 3), 0.0)


def test_sibson_independent_joint_is_zero():
    joint = JointFinite(np.outer([0.4, 0.6], [0.1, 0.7, 0.2]))
    assert sibson_mi(joint, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert maximal_leakage(joint) == pytest.approx(0.0, abs=1e-12)


def test_deterministic_identity_channel_leaks_log_k():
    k = 5
    joint = JointFinite(np.eye(k) / k)
    assert maximal_leakage(joint) == pytest.approx(math.log(k), abs=1e-12)


def test_sibson_monotone_in_alpha_and_below_leakage():
    for i in range(10):
        joint = random_joint(17, i, 3, 3)
        leak = maximal_leakage(joint)
        values = [sibson_mi(joint, a) for a in (1.5, 2.0, 4.0, 16.0)]
        assert all(v >= -1e-12 for v in values)
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
        assert leak >= values[-1] - 1e-10
        assert sibson_mi(joint, math.inf) == pytest.approx(leak, abs=0)


def test_sibson_rejects_zero_marginal_rows():
    joint = JointFinite(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(DegenerateMarginalError):
        sibson_mi(joint, 2.0)


def test_fiber_constants_identities():
    for i in range(10):
        joint = random_joint(31, i, 4, 3)
        m_inf = fiber_constants(joint, math.inf)
        mw = joint.matrix.sum(axis=0)
        assert float(m_inf @ mw) == pytest.approx(
            math.exp(maximal_leakage(joint)), abs=1e-12
        )
        m_big = fiber_constants(joint, 1e6)
        assert np.max(np.abs(m_big - m_inf)) <= 1e-4
    ind = JointFinite(np.outer([0.5, 0.5], [0.25, 0.75]))
    assert np.allclose(fiber_constants(ind, math.inf), 1.0, atol=1e-12)
    assert np.allclose(fiber_constants(ind, 3.0), 1.0, atol=1e-12)


def test_mutual_information_matches_kl_of_product_pair():
    joint = random_joint(41, 0, 3, 4)
    from divgauge import mutual_information, product_pair

    assert mutual_information(joint) == pytest.approx(
        f_divergence(product_pair(joint), KL), abs=0
    )

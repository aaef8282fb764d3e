import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divgauge import (
    AbsContPair,
    EventMask,
    FiniteDistribution,
    JointFinite,
    binary_tightness_witness,
    event_probability,
    make_distribution,
    product_pair,
    random_pair,
)
from divgauge.dist import (
    EXHAUSTIVE_LIMIT,
    adopted_distribution,
    dominated_ratios,
    event_mask_matrix,
    normalized,
)
from divgauge.errors import (
    DegenerateMarginalError,
    DominationError,
    ResourceError,
    ShapeError,
    ValidationError,
)


def test_make_distribution_symmetry():
    d = make_distribution([2, 2])
    assert np.allclose(d.probs, [0.5, 0.5], atol=0)


def test_make_distribution_normalizes():
    d = make_distribution([1, 0, 3])
    assert np.allclose(d.probs, [0.25, 0.0, 0.75], atol=1e-15)
    assert d.probs.sum() == 1.0


@pytest.mark.parametrize(
    "weights", [[1, -1], [0, 0], [math.inf, 1], [math.nan, 1]]
)
def test_make_distribution_rejects_bad_weights(weights):
    with pytest.raises(ValidationError):
        make_distribution(weights)


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12))
def test_make_distribution_is_proportional(weights):
    total = sum(weights)
    if total <= 0:
        with pytest.raises(ValidationError):
            make_distribution(weights)
        return
    d = make_distribution(weights)
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    assert np.all(d.probs >= 0)
    i = int(np.argmax(weights))
    for j, w in enumerate(weights):
        assert d.probs[j] * weights[i] == pytest.approx(d.probs[i] * w, abs=1e-9)


def test_distribution_is_immutable():
    d = make_distribution([1, 2])
    with pytest.raises(ValueError):
        d.probs[0] = 0.3


def test_distribution_json_round_trip_is_bit_exact():
    d = make_distribution([1, 7, 0.1234567890123456789], labels=("a", "b", "c"))
    back = FiniteDistribution.from_json(d.to_json())
    assert np.array_equal(back.probs, d.probs)
    assert back.labels == d.labels


def test_distributions_and_pairs_compare_by_value():
    d = make_distribution([1, 7, 2], labels=("a", "b", "c"))
    same = FiniteDistribution(d.probs.copy(), ("a", "b", "c"))
    assert (d == same) is True and (d != same) is False
    assert (d == FiniteDistribution(d.probs)) is False  # labels differ
    assert (d == make_distribution([1, 7, 3], labels=("a", "b", "c"))) is False
    assert (d == make_distribution([1, 1])) is False  # another support
    assert (d == d.probs.tolist()) is False and (d == None) is False  # noqa: E711
    witness = binary_tightness_witness(0.3, 0.4, 2)
    assert (witness == binary_tightness_witness(0.3, 0.4, 2)) is True
    assert (witness != binary_tightness_witness(0.3, 0.4, 2)) is False
    assert (witness == binary_tightness_witness(0.3, 0.5, 2)) is False
    assert (witness == binary_tightness_witness(0.3, 0.4, 3)) is False  # 8 atoms, not 4
    assert (witness == AbsContPair(witness.q, witness.p)) is False  # P and Q swapped
    assert (witness == witness.p) is False


def test_make_pair_ratios():
    pair = AbsContPair(make_distribution([1, 1]), make_distribution([1, 3]))
    assert pair.ratios[0] == pytest.approx(2.0, abs=1e-15)
    assert pair.ratios[1] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_make_pair_identity_ratios():
    d = make_distribution([3, 1, 4])
    pair = AbsContPair(d, d)
    assert np.allclose(pair.ratios, 1.0, atol=1e-15)


def test_make_pair_rejects_domination_failure():
    with pytest.raises(DominationError):
        AbsContPair(make_distribution([1, 1]), make_distribution([1, 0]))


def test_make_pair_rejects_support_mismatch():
    with pytest.raises(ShapeError):
        AbsContPair(make_distribution([1, 1]), make_distribution([1, 1, 1]))


def test_event_probability_basics():
    d = make_distribution([1, 3])
    assert event_probability(d, EventMask.from_indices([0], 2)) == 0.25
    assert event_probability(d, EventMask.full(2)) == 1.0
    assert event_probability(d, EventMask.empty(2)) == 0.0
    with pytest.raises(ShapeError):
        event_probability(d, EventMask.full(3))


def test_event_probability_additive_over_disjoint_masks():
    pair = random_pair(11, 0, 8)
    a = EventMask.from_indices([0, 2, 5], 8)
    b = EventMask.from_indices([1, 6], 8)
    union = EventMask(a.bits | b.bits)
    got = event_probability(pair.p, union)
    assert got == pytest.approx(
        event_probability(pair.p, a) + event_probability(pair.p, b), abs=1e-15
    )


def test_event_mask_matrix_counts():
    assert event_mask_matrix(0).shape == (1, 0)
    masks = event_mask_matrix(3)
    assert masks.shape == (8, 3)
    assert [EventMask(m).to_int() for m in masks] == list(range(8))


def test_event_mask_matrix_cap():
    with pytest.raises(ResourceError):
        event_mask_matrix(EXHAUSTIVE_LIMIT + 1)


def test_event_mask_from_int_round_trip():
    m = EventMask.from_int(0b0101, 4)
    assert list(m.bits) == [True, False, True, False]
    assert m.to_int() == 5


def test_joint_marginals_match_direct_sums():
    joint = JointFinite(np.array([[0.1, 0.2, 0.05], [0.15, 0.3, 0.2]]))
    m = joint.matrix
    assert np.allclose(joint.marginal_s.probs, m.sum(axis=1), atol=1e-12)
    assert np.allclose(joint.marginal_w.probs, m.sum(axis=0), atol=1e-12)


def test_joint_renormalizes_within_tolerance():
    m = np.full((2, 2), 0.25) * (1 + 5e-10)
    joint = JointFinite(m)
    assert joint.matrix.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        JointFinite(np.full((2, 2), 0.3))


@pytest.mark.parametrize(
    "entries, problem",
    [
        ([[math.nan, -0.1], [0.5, 0.6]], "finite"),  # NaN beside a negative entry
        ([[-math.inf, 0.5], [0.25, 0.25]], "finite"),
        ([[math.inf, 0.0], [0.0, 0.0]], "finite"),
        ([[-0.1, 0.6], [0.25, 0.25]], "nonnegative"),
    ],
)
def test_joint_checks_finite_before_nonnegative(entries, problem):
    with pytest.raises(ValidationError, match=f"joint entries must be {problem}$"):
        JointFinite(np.array(entries))


def test_joint_and_distribution_hold_read_only_copies():
    m = np.array([[0.25, 0.25], [0.25, 0.25]])
    joint = JointFinite(m)
    w = np.array([0.5, 0.5])
    dist = FiniteDistribution(w)
    m[0, 0] = w[0] = 0.9
    assert joint.matrix[0, 0] == 0.25 and dist.probs[0] == 0.5
    assert not joint.matrix.flags.writeable and not dist.probs.flags.writeable
    # a read-only array is frozen already and kept as it is
    assert FiniteDistribution(dist.probs).probs is dist.probs


def test_adopted_distribution_normalizes_in_place_with_the_same_bits():
    w = np.random.default_rng(3).random(1000)
    want = FiniteDistribution(normalized(w))
    got = adopted_distribution(w)
    assert got.probs is w and not w.flags.writeable
    assert np.array_equal(got.probs, want.probs)


def test_dominated_ratios_where_every_q_is_positive_and_where_some_is_zero():
    p = np.array([[0.2, 0.3, 0.5], [0.0, 0.6, 0.4]])
    q = np.array([[0.3, 0.3, 0.4], [0.2, 0.4, 0.4]])
    assert np.array_equal(dominated_ratios(p, q), p / q)
    q0 = np.array([[0.3, 0.3, 0.4], [0.0, 0.6, 0.4]])
    assert np.array_equal(dominated_ratios(p, q0), [[0.2 / 0.3, 1.0, 1.25], [0.0, 1.0, 1.0]])
    assert dominated_ratios(np.empty((0, 3)), np.empty((0, 3))).shape == (0, 3)


def test_joint_conditional_errors_on_zero_row():
    joint = JointFinite(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(DegenerateMarginalError):
        joint.conditional_w_given_s()


def test_product_pair_independent_joint_has_unit_ratios():
    ps = np.array([0.3, 0.7])
    pw = np.array([0.2, 0.5, 0.3])
    joint = JointFinite(np.outer(ps, pw))
    pair = product_pair(joint)
    assert np.allclose(pair.ratios, 1.0, atol=1e-12)


def test_product_pair_diagonal_joint_keeps_domination():
    joint = JointFinite(np.array([[0.5, 0.0], [0.0, 0.5]]))
    pair = product_pair(joint)
    # off-diagonal P_SW atoms are zero but the product is positive
    assert pair.ratios[0] == pytest.approx(2.0, abs=1e-12)
    assert pair.ratios[1] == 0.0
    assert pair.p.probs[1] == 0.0 and pair.q.probs[1] > 0


@pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0, 5.0])
def test_positive_part_integral_equals_event_supremum(gamma):
    # sum_i [r_i - gamma]_+ Q_i == max_E (P(E) - gamma Q(E)), exhaustively
    for idx, support in ((0, 6), (1, 8), (2, 10)):
        pair = random_pair(23, idx, support)
        masks = event_mask_matrix(support).astype(float)
        sup = np.max(pair.p.probs @ masks.T - gamma * (pair.q.probs @ masks.T))
        integral = float(np.maximum(pair.ratios - gamma, 0.0) @ pair.q.probs)
        assert sup == pytest.approx(integral, abs=1e-12)


def test_joint_json_round_trip():
    joint = JointFinite([[0.125, 0.375], [0.25, 0.25]])
    back = JointFinite.from_json(joint.to_json())
    assert np.array_equal(back.matrix, joint.matrix)


_NOT_NUMBERS = "'{}' must be a regular array of numbers"


@pytest.mark.parametrize("reader, obj, message", [
    (FiniteDistribution, [0.5, 0.5], "expected a JSON object"),
    (FiniteDistribution, {"prob": [0.5, 0.5]}, "expected key 'probs'"),
    (FiniteDistribution, {"probs": ["x", 0.5]}, _NOT_NUMBERS.format("probs")),
    (FiniteDistribution, {"probs": [[0.5], [0.5, 0.0]]}, _NOT_NUMBERS.format("probs")),
    (FiniteDistribution, {"probs": [0.5, 10**400]}, _NOT_NUMBERS.format("probs")),
    (FiniteDistribution, {"probs": [0.5, 0.5], "labels": "ab"}, "'labels' must be a list"),
    (FiniteDistribution, {"probs": [0.5, 0.5], "labels": None}, "'labels' must be a list"),
    (JointFinite, "matrix", "expected a JSON object"),
    (JointFinite, {"matrix": "abc"}, _NOT_NUMBERS.format("matrix")),
    (JointFinite, {"matrix": [[0.5], [0.5, 0.0]]}, _NOT_NUMBERS.format("matrix")),
    (JointFinite, {"probs": [0.5, 0.5]}, "expected key 'matrix'"),
])
def test_json_readers_name_the_source_of_a_schema_fault(reader, obj, message):
    with pytest.raises(ValidationError) as info:
        reader.from_obj(obj, "in.json")
    assert str(info.value) == f"in.json: {message}"
    with pytest.raises(ValidationError) as info:  # from_json runs the same reader
        reader.from_json(json.dumps(obj))
    assert str(info.value) == f"JSON: {message}"


def test_distribution_json_uses_shortest_round_trip_floats():
    d = make_distribution([1, 2])
    obj = json.loads(d.to_json())
    assert obj["probs"] == [1 / 3, 2 / 3]

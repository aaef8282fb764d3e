import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divgauge as dg
from divgauge import (
    binary_f_divergence,
    binary_renyi,
    binary_tightness_witness,
    f_divergence,
    harness_self_test,
    master_soundness,
    random_pair,
    renyi,
    sibson_mi,
    verify_com_bound,
    verify_egamma_variational,
)
from divgauge import dist, verify
from divgauge.errors import (DominationError, RangeError, ResourceError, UnknownBoundError,
                             ValidationError)
from divgauge.verify import (
    SLACK_TOL,
    VerificationReport,
    case_label,
    default_cases,
    random_pair_rows,
    registered_bounds,
)
from sibson_oracle import sibson_grid_min


def test_random_pair_is_reproducible_and_normalized():
    a = random_pair(42, 7, 8)
    b = random_pair(42, 7, 8)
    assert np.array_equal(a.p.probs, b.p.probs)
    assert np.array_equal(a.q.probs, b.q.probs)
    c = random_pair(42, 8, 8)
    assert not np.array_equal(a.p.probs, c.p.probs)
    assert np.all(a.q.probs > 0)


def test_random_pair_plants_zero_atoms_sometimes():
    frac = np.mean([
        np.any(random_pair(9, i, 8).p.probs == 0.0) for i in range(400)
    ])
    assert 0.1 < frac < 0.3


def _normalized_oracle(v):
    v = v / v.sum()
    v[int(np.argmax(v))] += 1.0 - v.sum()
    return v


def _random_pair_oracle(seed, index, support, zero_prob):
    """One pair at a time, as the generator draws it: the reference for
    random_pair_rows."""
    rng = np.random.default_rng((seed, index))
    q = -np.log(rng.random(support))
    p = -np.log(rng.random(support))
    if rng.random() < zero_prob and support > 1:
        n_zero = int(rng.integers(1, support))
        p[rng.choice(support, size=n_zero, replace=False)] = 0.0
    p, q = _normalized_oracle(p), _normalized_oracle(q)
    return p, q, np.divide(p, q, out=np.zeros(support), where=q > 0.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("seed", [42, 11, 7])
@pytest.mark.parametrize("zero_prob", [0.0, 0.2, 1.0])
def test_pair_rows_equal_the_pairs_drawn_one_at_a_time(seed, zero_prob):
    indices = range(3, 43)
    for support in range(1, 17):
        rows = random_pair_rows(seed, indices, support, zero_prob)
        pairs = [random_pair(seed, i, support, zero_prob) for i in indices]
        oracle = [_random_pair_oracle(seed, i, support, zero_prob) for i in indices]
        stacked = (
            np.stack([pr.p.probs for pr in pairs]),
            np.stack([pr.q.probs for pr in pairs]),
            np.stack([pr.ratios for pr in pairs]),
        )
        for k, name in enumerate("pqr"):
            want = np.stack([o[k] for o in oracle])
            assert _same_bits(rows[k], want), (support, name)
            assert _same_bits(stacked[k], want), (support, name)


def test_support_one_zeroes_no_atom():
    # one atom has no nonempty strict subset; the coin is still drawn
    p, q, r = random_pair_rows(0, range(50), 1, zero_prob=1.0)
    assert np.array_equal(p, np.ones((50, 1))) and np.array_equal(q, p) and np.array_equal(r, p)
    assert random_pair(0, 3, 1).p.probs.tolist() == [1.0]


@pytest.mark.parametrize("support", [0, -1])
def test_support_below_one_is_a_range_error(support):
    with pytest.raises(RangeError):
        random_pair(0, 0, support)
    with pytest.raises(RangeError):
        random_pair_rows(0, range(3), support)
    with pytest.raises(RangeError):
        master_soundness(n_pairs=5, support=support, jobs=1)


def test_exhaustive_checks_stop_beyond_the_exhaustive_limit():
    pair = random_pair(0, 0, dist.EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ResourceError, match="support must be <= 16"):
        master_soundness(n_pairs=1, support=dist.EXHAUSTIVE_LIMIT + 1, jobs=1)
    with pytest.raises(ResourceError, match=f"support <= {dist.EXHAUSTIVE_LIMIT}"):
        verify_egamma_variational(pair, 1.0)
    with pytest.raises(ResourceError, match=f"support <= {dist.EXHAUSTIVE_LIMIT}"):
        dg.approx_max_info(pair, 0.5)


@pytest.mark.parametrize("kwargs", [{"n_pairs": 0}, {"n_pairs": -5}, {"batch_size": 0}])
def test_a_sweep_of_no_pairs_is_a_range_error(kwargs):
    with pytest.raises(RangeError):
        master_soundness(**{"n_pairs": 10, "support": 4, **kwargs})
    with pytest.raises(RangeError):
        harness_self_test(n_pairs=0)


def _bad_rows(corrupt):
    p, q, _ = random_pair_rows(5, range(4), 6, zero_prob=0.0)
    p, q = p.copy(), q.copy()
    if corrupt == "sum":
        p[2, 0] += 1e-9
    elif corrupt == "nan":
        q[2, 3] = np.nan
    else:  # Q loses an atom where P has mass, and still sums to 1
        q[2, 1] = 0.0
        q[2] = _normalized_oracle(q[2])
    return p, q


@pytest.mark.parametrize("corrupt, error", [
    ("sum", ValidationError), ("nan", ValidationError), ("undominated", DominationError),
])
def test_row_checks_raise_what_the_pair_classes_raise(corrupt, error, monkeypatch):
    p, q = _bad_rows(corrupt)
    with pytest.raises(error) as by_class:
        dg.AbsContPair(dg.FiniteDistribution(p[2]), dg.FiniteDistribution(q[2]))
    monkeypatch.setattr(verify, "_pair_masses", lambda *args: (p, q))
    with pytest.raises(error) as by_rows:
        random_pair_rows(5, range(4), 6)
    assert type(by_rows.value) is type(by_class.value)
    assert "row 2" in str(by_rows.value)
    # the rows without the fault pass the same checks
    keep = [0, 1, 3]
    dist.check_masses(p[keep])
    dist.check_masses(q[keep])
    dist.dominated_ratios(p[keep], q[keep])


# FiniteDistribution and AbsContPair objects that sweep chunks may build: a
# ceiling, so that per-pair objects cannot return to the chunk unnoticed
CHUNK_CONSTRUCTIONS = {"FiniteDistribution": 0, "AbsContPair": 0}


def test_sweep_chunks_build_no_pair_objects(monkeypatch):
    built = dict.fromkeys(CHUNK_CONSTRUCTIONS, 0)

    def counting(cls):
        post_init = cls.__post_init__

        def counted(self):
            built[cls.__name__] += 1
            post_init(self)

        return counted

    for name in CHUNK_CONSTRUCTIONS:
        cls = getattr(dist, name)
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    random_pair(1, 0, 4)
    assert built == {"FiniteDistribution": 2, "AbsContPair": 1}  # the count sees them
    built.update(dict.fromkeys(built, 0))
    reports = master_soundness(n_pairs=30, support=5, seed=3, jobs=1, batch_size=10)
    assert sum(rep.trials for rep in reports.values()) > 0
    assert harness_self_test(n_pairs=5).violations > 0
    assert all(built[name] <= most for name, most in CHUNK_CONSTRUCTIONS.items()), built


def _absorb_oracle(rep, slack, valid, pair_indices):
    """VerificationReport.absorb as a sequence of whole-array passes: the
    reference for the one-pass absorb."""
    if valid is None:
        valid = np.ones(slack.shape, dtype=bool)
    valid = np.broadcast_to(valid, slack.shape)
    n_valid = int(valid.sum())
    rep.trials += n_valid
    if n_valid == 0:
        return
    slack_v = np.where(valid, slack, np.inf)
    slack_v = np.where(np.isnan(slack_v), -np.inf, slack_v)
    rep.violations += int((slack_v < -SLACK_TOL).sum())
    i, j = np.unravel_index(int(np.argmin(slack_v)), slack.shape)
    worst = float(slack_v[i, j])
    if worst < rep.worst_slack:
        rep.worst_slack = worst
        rep.witness = {
            "pair_index": int(pair_indices[i]),
            "event_code": int(j),
            "slack": float(slack[i, j]),
        }


_EDGE_SLACKS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, -SLACK_TOL,
    float(np.nextafter(-SLACK_TOL, 0.0)), float(np.nextafter(-SLACK_TOL, -1.0)), 0.25,
]


@st.composite
def _absorb_calls(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    element = st.one_of(st.sampled_from(_EDGE_SLACKS), st.floats(allow_nan=True, allow_infinity=True))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        slack = np.array(draw(st.lists(element, min_size=rows * cols, max_size=rows * cols)),
                         dtype=float).reshape(rows, cols)
        kind = draw(st.sampled_from(["none", "all_false", "partial", "broadcast"]))
        if kind == "none":
            valid = None
        elif kind == "all_false":
            valid = np.zeros((rows, cols), dtype=bool)
        else:
            shape = (rows, cols) if kind == "partial" else (1, cols)
            bits = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1]))
            valid = np.array(bits, dtype=bool).reshape(shape)
        calls.append((slack, valid, np.arange(rows) + 100 * len(calls)))
    return calls


@settings(max_examples=200, deadline=None)
@given(_absorb_calls())
def test_absorb_matches_the_whole_array_reference(calls):
    ours, reference = VerificationReport("case"), VerificationReport("case")
    for slack, valid, pair_indices in calls:
        ours.absorb(slack, valid, pair_indices)
        _absorb_oracle(reference, slack, valid, pair_indices)
        # repr tells NaN, -0.0 and 0.0 apart, and NaN equals itself there
        assert repr(ours.to_dict()) == repr(reference.to_dict())


def test_verify_com_bound_identity_pair():
    d = dg.make_distribution([1, 2, 3, 2])
    pair = dg.AbsContPair(d, d)
    rep = verify_com_bound(pair, "chi2")
    assert rep.violations == 0
    assert rep.worst_slack >= -1e-12
    assert rep.worst_slack == pytest.approx(0.0, abs=1e-9)


def _sharp_pairs():
    """Pairs where the bounds are tight: P = Q (every divergence 0, events
    with Q(E) next to 1 at support 16), two-point witnesses with P(E) just
    above Q(E), and two with P(E) orders of magnitude above a tiny Q(E)."""
    for n in (4, 8, 16):
        q = random_pair(7, n, n, zero_prob=0.0).q
        yield f"P=Q, support {n}", dg.AbsContPair(q, q)
    for eps in (1e-2, 1e-4, 1e-6):
        for q in (1e-6, 0.3, 0.9):
            yield f"witness q={q}, eps={eps}", binary_tightness_witness(q * (1 + eps), q, 2)
    for p_e, q_e in ((4.4e-23, 3.67e-109), (1e-6, 1e-30)):
        yield f"witness p={p_e}, q={q_e}", binary_tightness_witness(p_e, q_e, 2)


def test_sharp_instances_sound():
    bad = []
    for name, pair in _sharp_pairs():
        for bound_id, params in default_cases():
            rep = verify_com_bound(pair, bound_id, params)
            if rep.violations:
                bad.append((name, case_label(bound_id, params), rep.violations, rep.worst_slack))
    assert not bad, bad


@pytest.mark.parametrize("p_e, q_e", [(4.4e-23, 3.67e-109), (1e-6, 1e-30)])
@pytest.mark.parametrize("bound_id", ["hellinger", "competitor_squared_hellinger"])
def test_hellinger_sound_relative_to_tiny_masses(bound_id, p_e, q_e):
    # 1 - x^2 with x = 1 - H^2/2 rounded to 0 where H^2 is below 1e-16: the
    # bound returned about Q(E), short by nearly all of P(E), a deficit that
    # the absolute SLACK_TOL cannot see, so check it relative to P(E)
    rep = verify_com_bound(binary_tightness_witness(p_e, q_e, 2), bound_id)
    assert rep.violations == 0
    assert rep.worst_slack >= -4.0 * np.spacing(p_e)


def test_verify_com_bound_unknown_id():
    pair = random_pair(1, 0, 4)
    with pytest.raises(UnknownBoundError):
        verify_com_bound(pair, "no_such_bound")


def test_verify_com_bound_sampled_events_beyond_exhaustive_limit():
    pair = random_pair(2, 0, 18)
    rep = verify_com_bound(pair, "chi2", seed=5)
    assert rep.violations == 0
    assert rep.trials == 100_000
    assert rep.seed == 5


def test_nan_bound_value_is_a_violation(monkeypatch):
    from divgauge import verify

    def nan_at_odd_events(b):
        values = np.zeros(b.shape)
        values[:, 1::2] = np.nan
        return values + 2.0, None

    def nan_where_masked(b):
        values = np.where(np.arange(b.shape[1]) % 2 == 1, np.nan, 2.0)
        return np.broadcast_to(values, b.shape), np.arange(b.shape[1]) % 2 == 0

    monkeypatch.setitem(verify._REGISTRY, "nan_bound", nan_at_odd_events)
    monkeypatch.setitem(verify._REGISTRY, "masked_nan_bound", nan_where_masked)
    pair = random_pair(1, 0, 4)
    rep = verify_com_bound(pair, "nan_bound")
    assert rep.trials == 16 and rep.violations == 8
    assert rep.witness["event_code"] % 2 == 1 and np.isnan(rep.witness["slack"])
    assert rep.to_dict()["worst_slack"] == -np.inf
    masked = verify_com_bound(pair, "masked_nan_bound")
    assert masked.trials == 8 and masked.violations == 0


def test_harness_negative_control_catches_the_broken_bound():
    rep = harness_self_test()
    assert rep.violations > 0
    assert rep.worst_slack < -1e-9
    assert rep.witness is not None


def test_master_soundness_small_run_is_clean():
    reports = master_soundness(n_pairs=150, support=8, seed=42)
    labels = {case_label(b, p) for b, p in default_cases()}
    assert set(reports) == labels
    for rep in reports.values():
        assert rep.violations == 0, rep.to_dict()
        assert rep.worst_slack >= -1e-9


def test_registry_covers_negative_control_and_core_bounds():
    names = registered_bounds()
    for expected in (
        "egamma", "strong_converse", "chi2", "kl", "kl_closed", "hellinger",
        "power_implicit", "power_qmax", "power_small_q", "f_from_egamma",
        "orlicz", "reverse_chi2", "reverse_kl_exact", "reverse_kl_explicit",
        "vincze_lecam", "competitor_kl", "competitor_chi2", "competitor_power",
        "competitor_squared_hellinger", "competitor_reverse_chi2",
        "competitor_reverse_kl", "competitor_vincze_lecam", "chi2_missing_sqrt",
    ):
        assert expected in names


def test_bound_table_drives_registry_cases_and_dominance_rows():
    from divgauge import bounds, verify

    table = set(bounds.BOUNDS)
    assert set(registered_bounds()) == table | {verify.NEGATIVE_CONTROL}
    assert {b for b, _ in default_cases()} == table
    assert len(default_cases()) == 55
    rows = [r["row"] for r in dg.dominance_report(random_pair(3, 0, 5))]
    assert rows == list(bounds.DOMINANCE_ROWS) == [
        "kl", "chi2", "power", "squared_hellinger", "reverse_chi2", "reverse_kl", "vincze_lecam",
    ]
    for row, ours in bounds.DOMINANCE_ROWS.items():
        assert ours.competitor.id == f"competitor_{row}" and ours.competitor.id in table
        assert ours.claim in ("same", "ours", "incomparable")


def test_entries_with_one_formula_share_one_evaluation():
    from divgauge import verify
    from divgauge.dist import event_mask_matrix

    registry = verify._REGISTRY
    shared = {bid for bid, fn in registry.items()
              if sum(other is fn for other in registry.values()) > 1}
    assert shared == {"kl", "competitor_kl", "chi2", "competitor_chi2",
                      "power_implicit", "competitor_power", "reverse_chi2",
                      "competitor_reverse_chi2", "reverse_kl_exact", "competitor_reverse_kl",
                      "vincze_lecam", "competitor_vincze_lecam"}
    batch = verify.PairBatch.from_pairs([random_pair(3, 0, 5)], event_mask_matrix(5))
    for ours_id, competitor_id, params in (("power_implicit", "competitor_power", {"beta": 2.0}),
                                           ("reverse_kl_exact", "competitor_reverse_kl", {})):
        ours = registry[ours_id](batch, **params)
        assert len(batch._case_cache) == 1  # held for the competitor
        assert registry[competitor_id](batch, **params) is ours
        assert not batch._case_cache  # released after its last reader


def test_the_batch_event_view_gives_the_bits_of_a_plain_array():
    # every case through the batch's shared view, against the same core
    # given a fresh copy of Q(E) (which builds its own view), NaN included
    from divgauge import bounds
    from divgauge.dist import event_mask_matrix

    batch = verify.PairBatch(*random_pair_rows(11, range(200), 8), event_mask_matrix(8))
    assert (batch.q_events >= 1.0).any() and (batch.q_events == 0.0).any()
    for bound_id, params in default_cases():
        spec = bounds.BOUNDS[bound_id]
        d = (spec.stat(batch.r, batch.p, batch.q, **params) if spec.stat
             else batch.div(spec.divergence(params)))
        shared = spec.evaluate(batch.events, d, params)
        fresh = spec.evaluate(np.array(batch.q_events), d, params)
        for got, want in zip(shared, fresh):  # raw values, then the valid mask
            assert (got is None) == (want is None), case_label(bound_id, params)
            if want is not None:
                assert np.array_equal(got, want, equal_nan=True), case_label(bound_id, params)


def test_egamma_variational_identity_and_witness():
    for i in range(15):
        pair = random_pair(13, i, 8)
        for gamma in (0.5, 1.0, 2.0, 5.0):
            rep = verify_egamma_variational(pair, gamma)
            assert abs(rep["gap"]) <= 1e-12
        one = verify_egamma_variational(pair, 1.0)
        tv = f_divergence(pair, dg.TV)
        assert one["signed_sup"] == pytest.approx(tv, abs=1e-12)
        zero = verify_egamma_variational(pair, 0.0)
        assert zero["signed_sup"] == pytest.approx(
            float(pair.p.probs[pair.ratios > 0].sum()), abs=1e-12
        )


def test_egamma_absolute_supremum_exceeds_signed_for_large_gamma():
    # the absolute-value reading adds gamma - 1 for gamma > 1
    pair = random_pair(14, 0, 8)
    rep = verify_egamma_variational(pair, 3.0)
    assert rep["abs_sup"] == pytest.approx(rep["integral"] + 2.0, abs=1e-12)


WITNESS_KINDS = [
    dg.KL,
    dg.REVERSE_KL,
    dg.CHI2,
    dg.REVERSE_CHI2,
    dg.TV,
    dg.SQUARED_HELLINGER,
    dg.VINCZE_LECAM,
    dg.power_kind(2.5),
    dg.hockey_stick_kind(1.5),
]


@pytest.mark.parametrize("kind", WITNESS_KINDS)
def test_mixture_witness_equality_per_kind(kind):
    pair = binary_tightness_witness(0.3, 0.6, atoms_per_block=2, seed=3)
    assert f_divergence(pair, kind) == pytest.approx(
        binary_f_divergence(0.3, 0.6, kind), abs=1e-12
    )


def test_mixture_witness_renyi_and_structure():
    pair = binary_tightness_witness(0.3, 0.6, atoms_per_block=3, seed=1)
    assert renyi(pair, 2.5) == pytest.approx(binary_renyi(0.3, 0.6, 2.5), abs=1e-12)
    assert np.allclose(pair.ratios[:3], 0.3 / 0.6, atol=1e-12)
    eq = binary_tightness_witness(0.4, 0.4, atoms_per_block=2)
    assert f_divergence(eq, dg.KL) == pytest.approx(0.0, abs=1e-12)


def test_dominance_report_claims():
    pair = random_pair(21, 5, 6, zero_prob=0.0)
    rows = {r["row"]: r for r in dg.dominance_report(pair)}
    for name in ("kl", "chi2", "reverse_chi2", "reverse_kl", "vincze_lecam"):
        assert rows[name]["claim"] == "same"
        assert rows[name]["max_ours_minus_competitor"] == 0.0
    row = rows["squared_hellinger"]
    assert row["claim"] == "ours"
    if row["applicable"] and row["events"]:
        assert row["max_ours_minus_competitor"] <= 1e-10
        assert row["ours_tighter_or_equal"] == row["events"]
    assert rows["power"]["claim"] == "incomparable"


def test_dominance_report_marks_infinite_rows():
    pair = dg.AbsContPair(
        dg.make_distribution([0.7, 0.3, 0.0]), dg.make_distribution([0.4, 0.3, 0.3])
    )
    rows = {r["row"]: r for r in dg.dominance_report(pair)}
    assert not rows["reverse_kl"]["applicable"]
    assert not rows["reverse_chi2"]["applicable"]


def test_sibson_grid_oracle_agrees_with_closed_form():
    joint = dg.random_joint(33, 2, 3, 3)
    for alpha in (1.5, 2.0):
        closed = sibson_mi(joint, alpha)
        grid = sibson_grid_min(joint, alpha, resolution=2e-3)
        assert grid >= closed - 1e-12  # closed form is the true minimum
        assert grid - closed <= 1e-6


def test_sibson_grid_oracle_two_output_case():
    joint = dg.random_joint(34, 0, 4, 2)
    closed = sibson_mi(joint, 2.0)
    grid = sibson_grid_min(joint, 2.0, resolution=1e-3)
    assert abs(grid - closed) <= 1e-8


def test_report_serialization_schema():
    rep = verify_com_bound(random_pair(3, 1, 5), "kl", seed=11)
    d = rep.to_dict()
    assert set(d) == {"bound", "trials", "violations", "worst_slack", "seed", "witness"}
    assert d["seed"] == 11
    assert d["trials"] == 2**5


def test_process_pool_sweep_gives_the_serial_reports():
    # two chunks on two workers, the path `divgauge verify` takes by default
    kwargs = dict(n_pairs=40, support=4, seed=5, batch_size=20)
    serial = master_soundness(jobs=1, **kwargs)
    pooled = master_soundness(jobs=2, **kwargs)
    assert list(pooled) == list(serial)
    assert [r.to_dict() for r in pooled.values()] == [r.to_dict() for r in serial.values()]

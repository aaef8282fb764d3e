import numpy as np
import pytest

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
    sibson_grid_min,
    sibson_mi,
    verify_com_bound,
    verify_egamma_variational,
)
from divgauge.errors import UnknownBoundError
from divgauge.verify import case_label, default_cases, registered_bounds


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


def test_verify_com_bound_identity_pair():
    d = dg.make_distribution([1, 2, 3, 2])
    pair = dg.AbsContPair(d, d)
    rep = verify_com_bound(pair, "chi2")
    assert rep.violations == 0
    assert rep.worst_slack >= -1e-12
    assert rep.worst_slack == pytest.approx(0.0, abs=1e-9)


def _sharp_pairs():
    """Pairs where the bounds are tight: P = Q (every divergence 0, events
    with Q(E) next to 1 at support 16) and two-point witnesses with P(E)
    just above Q(E)."""
    for n in (4, 8, 16):
        q = random_pair(7, n, n, zero_prob=0.0).q
        yield f"P=Q, support {n}", dg.AbsContPair(q, q)
    for eps in (1e-2, 1e-4, 1e-6):
        for q in (1e-6, 0.3, 0.9):
            yield f"witness q={q}, eps={eps}", binary_tightness_witness(q * (1 + eps), q, 2)


def test_sharp_instances_sound():
    bad = []
    for name, pair in _sharp_pairs():
        for bound_id, params in default_cases():
            rep = verify_com_bound(pair, bound_id, params)
            if rep.violations:
                bad.append((name, case_label(bound_id, params), rep.violations, rep.worst_slack))
    assert not bad, bad


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
    ours = registry["power_implicit"](batch, beta=2.0)
    assert registry["competitor_power"](batch, beta=2.0) is ours
    assert len(batch._case_cache) == 1
    ours = registry["reverse_kl_exact"](batch)
    assert registry["competitor_reverse_kl"](batch) is ours
    assert len(batch._case_cache) == 2


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

import math

import numpy as np
import pytest

import divgauge as dg
from divgauge import (
    GibbsExperiment,
    SuperSampleExperiment,
    make_distribution,
    run_gibbs_experiment,
    run_supersample_experiment,
)
from divgauge.errors import RangeError, ResourceError, ValidationError
from divgauge.experiments import _digit_matrix, _posterior, _selected_strings, _type_index

LOSSES = np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]])


def small_gibbs(n=5, temperature=2.0, p=(0.5, 0.5)):
    return GibbsExperiment(
        p_z=make_distribution(list(p)), loss_table=LOSSES, n=n, temperature=temperature
    )


@pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (5, 3)])
def test_digit_matrix_matches_unravel_index(m, n):
    want = np.stack(np.unravel_index(np.arange(m**n), (m,) * n), axis=1)
    got = _digit_matrix(m, n)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def _type_index_by_advanced_indexing(m, n):
    """The type index with each letter's gather written as step[index]: the
    oracle for the np.take gather of :func:`_type_index`."""
    types = np.zeros((1, m), dtype=np.int64)
    index = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        grown = (types[:, None, :] + np.eye(m, dtype=np.int64)).reshape(-1, m)
        types, step = np.unique(grown, axis=0, return_inverse=True)
        step = step.reshape(-1, m).astype(np.min_scalar_type(len(types) - 1))
        index = step[index].ravel()
    return types, index


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3, 4) for n in range(1, 9)]
                         + [(2, 20), (2, 21)])
def test_type_index_matches_the_advanced_indexing_oracle(m, n):
    types, index = _type_index(m, n)
    want_types, want_index = _type_index_by_advanced_indexing(m, n)
    assert types.dtype == want_types.dtype and np.array_equal(types, want_types)
    assert index.dtype == want_index.dtype and np.array_equal(index, want_index)
    assert index.shape == (m**n,)


@pytest.mark.parametrize("m, n", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 5)])
def test_selected_strings_match_the_selector_matmul(m, n):
    digits = _digit_matrix(m, 2 * n).astype(np.intp)
    first, second = digits[:, :n], digits[:, n:]
    place = m ** np.arange(n - 1, -1, -1)
    # the selector bits times the second half's letter change, summed by a matmul
    want = first @ place + (_digit_matrix(2, n) * place) @ (second - first).T
    got = _selected_strings(first, second, place)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_joint_has_all_dataset_atoms_and_unit_mass():
    run = run_gibbs_experiment(small_gibbs(n=6))
    assert run.joint.shape == (2**6, 3)
    assert run.joint.matrix.sum() == pytest.approx(1.0, abs=1e-9)


def test_zero_temperature_decouples_hypothesis_from_data():
    run = run_gibbs_experiment(small_gibbs(temperature=0.0))
    panel = run.divergence_panel(alphas=(2.0,), betas=(2.0,), gammas=(1.0,))
    assert panel["mutual_information"] == pytest.approx(0.0, abs=1e-12)
    assert panel["maximal_leakage"] == pytest.approx(0.0, abs=1e-12)
    assert panel["chi2"] == pytest.approx(0.0, abs=1e-12)
    assert panel["hockey_stick"][1.0] == pytest.approx(0.0, abs=1e-12)
    # every tail bound trivially dominates the exact tail
    setting = run.experiment.sub_gaussian_setting()
    for eta in (0.1, 0.4, 0.8):
        assert dg.gen_tail_ml(setting, eta, 0.0).raw >= run.exact_tail(eta) - 1e-12


def test_empirical_minimizer_leaks_at_most_log_k():
    exp = GibbsExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
        n=6,
        temperature=math.inf,
    )
    run = run_gibbs_experiment(exp)
    assert dg.maximal_leakage(run.joint) <= math.log(2) + 1e-12


def test_argmin_tie_break_is_lowest_index():
    # two identical hypotheses: the first must get all the posterior mass
    exp = GibbsExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.2, 0.8], [0.2, 0.8]]),
        n=3,
        temperature=math.inf,
    )
    run = run_gibbs_experiment(exp)
    assert np.all(run.joint.matrix[:, 1] == 0.0)


def test_string_level_fields_are_built_on_first_read():
    # the per-string joint and per-atom pair are derived on first read and
    # then kept
    ss = SuperSampleExperiment(make_distribution([0.5, 0.5]), np.array([[0.0, 1.0], [0.8, 0.1]]),
                               2, 1.0)
    runs = {"joint": run_gibbs_experiment(small_gibbs(n=5)),
            "pair": run_supersample_experiment(ss)}
    for name, run in runs.items():
        assert name not in vars(run)
        value = getattr(run, name)
        assert vars(run)[name] is value and getattr(run, name) is value


def test_exact_tail_matches_direct_sum():
    exp = small_gibbs(n=5)
    run = run_gibbs_experiment(exp)
    joint, gen_table = _string_enumeration(exp)
    g = np.abs(gen_table).ravel()
    m = joint.matrix.ravel()
    for eta in (0.05, 0.2, 0.5, 2.0):
        assert run.exact_tail(eta) == pytest.approx(float(m[g >= eta].sum()), abs=1e-12)
    assert run.exact_tail(0.0) == pytest.approx(1.0, abs=1e-12)


def test_gibbs_experiment_validation():
    with pytest.raises(ValidationError):
        GibbsExperiment(make_distribution([1, 1, 1]), LOSSES, 3, 1.0)  # |Z| mismatch
    with pytest.raises(RangeError):
        GibbsExperiment(make_distribution([1, 1]), LOSSES, 0, 1.0)
    with pytest.raises(RangeError):
        GibbsExperiment(make_distribution([1, 1]), LOSSES, 3, -1.0)
    with pytest.raises(ValidationError):
        GibbsExperiment(make_distribution([1, 0]), LOSSES[:, :2] * 0 + LOSSES, 3, 1.0)


@pytest.mark.parametrize("cls", [GibbsExperiment, SuperSampleExperiment])
def test_experiments_reject_non_finite_losses_at_construction(cls):
    table = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValidationError, match="losses must be finite"):
        cls(make_distribution([1, 1]), table, 2, 1.0)


def test_gibbs_atom_cap():
    exp = GibbsExperiment(
        p_z=make_distribution([1, 1, 1]),
        loss_table=np.tile(np.array([[0.0, 0.5, 1.0]]), (60, 1)),
        n=12,
        temperature=1.0,
    )
    with pytest.raises(ResourceError):
        run_gibbs_experiment(exp)


def test_supersample_paired_gap_hand_check():
    # n = 1: the gap is loss(w, unselected) - loss(w, selected), +-1 where
    # the pair's letters differ (ztilde = (0, 1) or (1, 0), mass 1/2) and 0
    # on equal halves; so P(|gap| >= eta) is 1/2 for 0 < eta <= 1
    exp = SuperSampleExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.0, 1.0]]),
        n=1,
        temperature=0.0,
    )
    run = run_supersample_experiment(exp)
    assert run.exact_tail(0.0) == pytest.approx(1.0, abs=1e-15)
    for eta in (1e-9, 0.5, 1.0):
        assert run.exact_tail(eta) == pytest.approx(0.5, abs=1e-15)
    assert run.exact_tail(1.0 + 1e-9) == 0.0


def test_supersample_zero_temperature_has_zero_conditional_divergence():
    exp = SuperSampleExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.0, 1.0], [0.8, 0.1]]),
        n=3,
        temperature=0.0,
    )
    run = run_supersample_experiment(exp)
    assert run.conditional_hockey_stick(1.0) == pytest.approx(0.0, abs=1e-12)
    # Hoeffding alone bounds the paired tail
    setting = exp.bounded_loss_setting()
    for eta in (0.1, 0.3, 0.7):
        assert dg.cmi_tail_egamma(setting, eta, 1.0, 0.0) >= run.exact_tail(eta) - 1e-9


@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
def test_supersample_tail_bound_dominates_exact_tail(gamma):
    exp = SuperSampleExperiment(
        p_z=make_distribution([0.4, 0.6]),
        loss_table=np.array([[0.0, 1.0], [0.9, 0.2]]),
        n=4,
        temperature=3.0,
    )
    run = run_supersample_experiment(exp)
    setting = exp.bounded_loss_setting()
    e_val = run.conditional_hockey_stick(gamma)
    for eta in np.linspace(0.02, 1.0, 50):
        bound = dg.cmi_tail_egamma(setting, float(eta), gamma, e_val)
        assert bound >= run.exact_tail(float(eta)) - 1e-9


def test_supersample_atom_cap():
    exp = SuperSampleExperiment(
        p_z=make_distribution([1, 1]),
        loss_table=np.tile(np.array([[0.0, 1.0]]), (80, 1)),
        n=9,
        temperature=1.0,
    )
    with pytest.raises(ResourceError):
        run_supersample_experiment(exp)


def test_supersample_reference_law_is_a_valid_pair():
    exp = SuperSampleExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.0, 1.0], [0.8, 0.1]]),
        n=3,
        temperature=math.inf,
    )
    run = run_supersample_experiment(exp)
    assert run.pair.p.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert run.pair.q.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert run.conditional_hockey_stick(1.0) >= -1e-12


def test_exact_tail_rejects_nan_eta():
    # searchsorted puts NaN last, which read as an empty tail
    run = run_gibbs_experiment(small_gibbs(n=4))
    with pytest.raises(ValidationError, match="nan"):
        run.exact_tail(math.nan)


def _counts(digits, m):
    return np.stack([(digits == c).sum(axis=1) for c in range(m)], axis=1)


def _string_enumeration(exp):
    """The dataset joint and gap table summed string by string from the
    digit matrix: the oracle for the type-class enumeration."""
    counts = _counts(_digit_matrix(exp.m, exp.n), exp.m)
    ps = np.exp(counts @ np.log(exp.p_z.probs))
    ps = ps / ps.sum()
    emp_loss = counts @ exp.loss_table.T / exp.n
    joint = dg.JointFinite(ps[:, None] * _posterior(emp_loss, exp.temperature))
    gen_table = (exp.loss_table @ exp.p_z.probs)[None, :] - emp_loss
    return joint, gen_table


_ORACLE_LAWS = {
    2: ([0.3, 0.7], [[0.0, 1.0], [1.0, 0.0], [0.4, 0.6]], 12),  # rows 0 and 1 tie at (6, 6)
    3: ([0.2, 0.3, 0.5], [[0.0, 0.5, 1.0], [1.0, 0.4, 0.1]], 9),
    5: ([0.1, 0.3, 0.2, 0.25, 0.15], [[0.1, 0.9, 0.3, 0.6, 0.0], [0.8, 0.2, 0.5, 0.1, 0.7],
                                      [0.1, 0.9, 0.3, 0.6, 0.0]], 6),  # rows 0 and 2 tie
}


@pytest.mark.parametrize("temperature", [0.0, 2.0, math.inf])
@pytest.mark.parametrize("m", sorted(_ORACLE_LAWS))
def test_type_enumeration_matches_string_enumeration(m, temperature):
    p, table, n = _ORACLE_LAWS[m]
    exp = GibbsExperiment(make_distribution(p), np.array(table), n, temperature)
    run = run_gibbs_experiment(exp)
    joint, gen_table = _string_enumeration(exp)
    assert np.array_equal(run.joint.matrix, joint.matrix)

    pair = dg.product_pair(joint)
    want = {
        "mutual_information": dg.f_divergence(pair, dg.KL),
        "maximal_leakage": dg.maximal_leakage(joint),
        "chi2": dg.f_divergence(pair, dg.CHI2),
        "squared_hellinger": dg.f_divergence(pair, dg.SQUARED_HELLINGER),
        "sibson_mi": {a: dg.sibson_mi(joint, a) for a in (2.0, 4.0)},
        "power": {b: dg.f_divergence(pair, dg.power_kind(b)) for b in (1.5, 2.0)},
        "hockey_stick": {g: dg.f_divergence(pair, dg.hockey_stick_kind(g)) for g in (1.0, 2.0)},
    }
    got = run.divergence_panel((2.0, 4.0), (1.5, 2.0), (1.0, 2.0))
    sibson = want.pop("sibson_mi")
    for key, value in want.items():
        # abs covers the temperature-0 panel, which is 0 up to roundoff
        assert got[key] == pytest.approx(value, rel=1e-13, abs=1e-15), key
    # Sibson's sum over the strings is itself off by up to 3.5e-14 from a
    # 50-digit reference here (at m = 3, temperature 2), the type sum by 2.5e-16
    assert got["sibson_mi"] == pytest.approx(sibson, abs=1e-13)

    masses, gaps = joint.matrix.ravel(), np.abs(gen_table).ravel()
    for eta in [0.0, *np.unique(gaps)[::3], 0.37, 2.0]:
        want_tail = math.fsum(masses[gaps >= eta])
        assert run.exact_tail(float(eta)) == pytest.approx(want_tail, abs=1e-13)


def test_exact_tail_is_the_exact_sum_over_two_million_strings():
    # a cumulative sum over the 2 M sorted string masses was off by 1.5e-11 here
    exp = GibbsExperiment(make_distribution([0.4, 0.6]), np.array([[0.3, 0.7], [0.9, 0.2]]),
                          20, 0.5)
    run = run_gibbs_experiment(exp)
    joint, gen_table = _string_enumeration(exp)
    eta = 0.02 * (exp.loss_range[1] - exp.loss_range[0])
    masses = joint.matrix.ravel()
    want = math.fsum(masses[np.abs(gen_table).ravel() >= eta])
    assert run.exact_tail(eta) == pytest.approx(want, abs=1e-13)


def _supersample_strings(exp):
    """The law of (S, Ztilde, W) and the paired gap summed atom by atom over
    every selector and super-sample: the oracle for the class enumeration."""
    m, k, n = exp.m, exp.k, exp.n
    digits = _digit_matrix(m, 2 * n)
    pzt = np.exp(_counts(digits, m) @ np.log(exp.p_z.probs))
    pzt = pzt / pzt.sum()
    cols = np.arange(n)
    post_by_s, gen_hat = [], []
    for s in _digit_matrix(2, n).astype(np.intp):
        emp_sel = _counts(digits[:, cols + s * n], m) @ exp.loss_table.T / n
        emp_comp = _counts(digits[:, cols + (1 - s) * n], m) @ exp.loss_table.T / n
        post_by_s.append(_posterior(emp_sel, exp.temperature))
        gen_hat.append(emp_comp - emp_sel)
    post_by_s = np.array(post_by_s)
    scale = pzt[None, :, None] / 2**n
    p = dg.dist.normalized((scale * post_by_s).ravel())
    w_given_z = np.broadcast_to(post_by_s.mean(axis=0), post_by_s.shape)
    q = dg.dist.normalized((scale * w_given_z).ravel())
    pair = dg.AbsContPair(dg.FiniteDistribution(p), dg.FiniteDistribution(q))
    return pair, np.array(gen_hat).ravel()


# row 2 repeats row 0 (an argmin tie everywhere); at m = 2, rows 0 and 1 also
# tie on balanced halves; m = 4, n = 3 has 20 half types, 400 (t, t') pairs
_SS_LAWS = {
    2: ([0.35, 0.65], [[0.2, 0.9], [0.9, 0.2], [0.2, 0.9]], (1, 2, 3, 6)),
    3: ([0.2, 0.3, 0.5], [[0.0, 0.5, 1.0], [1.0, 0.4, 0.1], [0.0, 0.5, 1.0]], (1, 2, 4)),
    4: ([0.1, 0.2, 0.3, 0.4],
        [[0.0, 0.3, 0.6, 1.0], [0.9, 0.1, 0.5, 0.2], [0.0, 0.3, 0.6, 1.0]], (3,)),
}


@pytest.mark.parametrize("temperature", [0.0, 2.5, math.inf])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m, n", [(m, n) for m, law in _SS_LAWS.items() for n in law[2]])
def test_class_enumeration_matches_supersample_strings(m, n, k, temperature):
    p_z, table, _ = _SS_LAWS[m]
    exp = SuperSampleExperiment(make_distribution(p_z), np.array(table[:k]), n, temperature)
    run = run_supersample_experiment(exp)
    pair, gen_hat = _supersample_strings(exp)
    assert run.pair.size == m ** (2 * n) * 2**n * k
    assert np.array_equal(run.pair.p.probs, pair.p.probs)
    # the string side averages P(w | Ztilde) over the selectors one by one,
    # and each side's normalization puts its rounding remainder on its largest atom
    got_q, want_q = run.pair.q.probs, pair.q.probs
    rest = np.ones(got_q.size, dtype=bool)
    rest[[np.argmax(got_q), np.argmax(want_q)]] = False
    assert np.all(np.abs(got_q - want_q)[rest] <= 1e-14 * want_q[rest])
    assert np.all(np.abs(got_q - want_q)[~rest] <= 1e-15)

    for gamma in (0.5, 1.0, 2.0, 4.0):
        want = dg.f_divergence(pair, dg.hockey_stick_kind(gamma))
        assert run.conditional_hockey_stick(gamma) == pytest.approx(want, rel=0, abs=1e-13)
    setting = exp.bounded_loss_setting()
    spec = dg.power_orlicz(2.0)
    for eta in (0.1, 0.4):
        want = dg.cmi_tail_orlicz(setting, eta, 1.0, pair, spec)
        got = dg.cmi_tail_orlicz(setting, eta, 1.0, run.class_pair, spec)
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    masses, gaps = pair.p.probs, np.abs(gen_hat)
    for eta in [*np.unique(gaps), *(np.linspace(0.02, 1.0, 50) * setting.span)]:
        want_tail = math.fsum(masses[gaps >= eta])
        assert run.exact_tail(float(eta)) == pytest.approx(want_tail, rel=0, abs=1e-13)


def test_supersample_exact_tail_is_the_exact_sum_over_four_million_atoms():
    # a cumulative sum over the 4.2 M sorted atom masses was off by 1.3e-12 here
    exp = SuperSampleExperiment(make_distribution([0.35, 0.65]),
                                np.array([[0.2, 0.9], [0.7, 0.0]]), 7, 2.0)
    run = run_supersample_experiment(exp)
    assert run.pair.size == 4**7 * 2**7 * 2
    pair, gen_hat = _supersample_strings(exp)
    assert np.array_equal(run.pair.p.probs, pair.p.probs)
    gaps, masses = np.abs(gen_hat), pair.p.probs
    etas = np.linspace(0.02, 1.0, 50) * exp.bounded_loss_setting().span
    for i in (0, 24, 49):
        want = math.fsum(masses[gaps >= etas[i]])
        assert run.exact_tail(float(etas[i])) == pytest.approx(want, rel=0, abs=1e-14)

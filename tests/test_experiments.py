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
from divgauge.experiments import _digit_matrix

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


def test_gen_table_matches_direct_enumeration():
    exp = small_gibbs(n=2)
    run = run_gibbs_experiment(exp)
    # dataset index 1 decodes to (z_0, z_1) = (0, 1) in mixed radix
    emp = (LOSSES[:, 0] + LOSSES[:, 1]) / 2
    pop = LOSSES @ np.array([0.5, 0.5])
    assert np.allclose(run.gen_table[1], pop - emp, atol=1e-12)


def test_exact_tail_matches_direct_sum():
    run = run_gibbs_experiment(small_gibbs(n=5))
    g = np.abs(run.gen_table).ravel()
    m = run.joint.matrix.ravel()
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
    # n = 1: gen_hat = loss(w, unselected) - loss(w, selected)
    exp = SuperSampleExperiment(
        p_z=make_distribution([0.5, 0.5]),
        loss_table=np.array([[0.0, 1.0]]),
        n=1,
        temperature=0.0,
    )
    run = run_supersample_experiment(exp)
    # atoms ordered (selector, ztilde, w); ztilde index decodes mixed-radix
    gh = run.gen_hat.reshape(2, 4, 1)
    # ztilde = (0, 1): selector 0 picks z=0 -> gap = loss(1) - loss(0) = 1
    assert gh[0, 1, 0] == pytest.approx(1.0)
    # selector 1 picks z=1 -> gap = -1
    assert gh[1, 1, 0] == pytest.approx(-1.0)
    # equal halves give zero gap
    assert gh[0, 0, 0] == gh[1, 3, 0] == 0.0


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

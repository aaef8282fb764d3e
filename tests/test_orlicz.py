import math

import numpy as np
import pytest

from divgauge import (
    AbsContPair,
    amemiya_norm,
    custom_orlicz,
    luxemburg_indicator_norm,
    luxemburg_norm_values,
    make_distribution,
    power_orlicz,
    random_pair,
)
from divgauge.errors import OrliczSpecError, RangeError
from divgauge.orlicz import amemiya_norm_rows, amemiya_norm_values


def test_power_conjugate_is_exact():
    spec = power_orlicz(3.0)
    alpha = spec.conjugate_exponent
    assert alpha == pytest.approx(1.5)
    for u in (0.1, 1.0, 7.5):
        assert float(spec.conjugate(u)) == pytest.approx(u**alpha / alpha, abs=0)


def test_indicator_norm_power_closed_form():
    for kappa in (1.5, 2.0, 4.0):
        spec = power_orlicz(kappa)
        for q in (0.05, 0.3, 1.0):
            expected = q ** (1.0 / kappa) * kappa ** (-1.0 / kappa)
            assert luxemburg_indicator_norm(q, spec) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(RangeError):
        luxemburg_indicator_norm(0.0, power_orlicz(2.0))


def test_amemiya_power_closed_form():
    pair = AbsContPair(make_distribution([3, 1, 2, 2]), make_distribution([1, 1, 1, 1]))
    # gamma = 0 gives the alpha-norm of the ratio; just below the top ratio
    # the excess is ~1e-14 and the optimal t ~ 1e14 lies past a 1e12 bracket
    top = float(pair.ratios.max())
    for gamma in (0.0, top - 1e-14):
        excess = np.maximum(pair.ratios - gamma, 0.0)
        for kappa in (1.5, 2.0, 3.0):
            spec = power_orlicz(kappa)
            alpha = spec.conjugate_exponent
            closed = kappa ** (1.0 / kappa) * float(
                np.sum(excess**alpha * pair.q.probs) ** (1.0 / alpha)
            )
            assert amemiya_norm(pair, gamma, spec) == pytest.approx(closed, rel=1e-9)


def test_norms_of_extreme_values():
    # both norms are positively homogeneous and evaluated on |U| divided by
    # its maximum, so huge or tiny values neither overflow nor underflow
    for u in (1e80, 1e-100):
        want = u / 4.0**0.25
        assert luxemburg_norm_values([u], [1.0], power_orlicz(4.0)) == pytest.approx(want, rel=1e-12)
    half_square = custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 / 2.0)
    got = amemiya_norm_values([1e-14], [1.0], half_square)
    assert got == pytest.approx(math.sqrt(2.0) * 1e-14, rel=1e-8)
    rows = np.array([[1e200, 1e199], [1e-200, 0.0]])
    got = amemiya_norm_rows(rows, np.array([0.5, 0.5]), power_orlicz(2.0))
    assert got == pytest.approx([1e200 * math.sqrt(1.01), 1e-200], rel=1e-12)


def test_amemiya_vanishes_above_max_ratio():
    pair = random_pair(7, 0, 5)
    gamma = float(pair.ratios.max())
    assert amemiya_norm(pair, gamma, power_orlicz(2.0)) == 0.0


def test_custom_spec_matches_power_family():
    spec = custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 / 2.0, name="half-square")
    ref = power_orlicz(2.0)
    pair = random_pair(19, 1, 6, zero_prob=0.0)
    got = amemiya_norm(pair, 0.5, spec)
    want = amemiya_norm(pair, 0.5, ref)
    assert got == pytest.approx(want, rel=1e-8)
    # numeric generalized inverse agrees with the closed form
    for s in (0.25, 1.0, 9.0):
        assert float(spec.inverse(s)) == pytest.approx(float(ref.inverse(s)), rel=1e-9)


def test_custom_spec_validation_catches_nonconvex_gauge():
    with pytest.raises(OrliczSpecError):
        custom_orlicz(lambda t: np.sqrt(np.asarray(t, dtype=float)))  # concave
    with pytest.raises(OrliczSpecError):
        custom_orlicz(lambda t: np.asarray(t, dtype=float) ** 2 + 1.0)  # psi(0) != 0


def test_generic_luxemburg_matches_power_closed_form():
    rng = np.random.default_rng(4)
    values = rng.random(6) * 3.0
    weights = rng.random(6)
    weights /= weights.sum()
    kappa = 2.5
    closed = luxemburg_norm_values(values, weights, power_orlicz(kappa))
    generic = luxemburg_norm_values(
        values,
        weights,
        custom_orlicz(lambda t: np.asarray(t, dtype=float) ** kappa / kappa),
    )
    assert generic == pytest.approx(closed, rel=1e-9)
    assert luxemburg_norm_values(np.zeros(3), weights[:3], power_orlicz(2.0)) == 0.0


def test_linear_gauge_conjugate_is_conservative():
    spec = custom_orlicz(lambda t: np.asarray(t, dtype=float), name="linear")
    # sup_l l(u - 1) diverges for u > 1: reported as +inf, never a finite lie
    assert spec.conjugate(2.0) == math.inf
    assert spec.conjugate(0.5) == pytest.approx(0.0, abs=1e-6)
    # the induced Amemiya norm degenerates to the sup norm
    weights = np.array([0.5, 0.5])
    got = amemiya_norm_values(np.array([1.0, 2.0]), weights, spec)
    assert got == pytest.approx(2.0, rel=1e-6)


def test_identically_zero_gauge_is_rejected():
    with pytest.raises(OrliczSpecError):
        custom_orlicz(lambda t: np.zeros_like(np.asarray(t, dtype=float)))


def test_luxemburg_bracket_grows_upward_for_a_steep_gauge():
    # psi(t) = 2 t^2 exceeds 1 at the largest |U|, so the bracket's upper end
    # doubles before the search; the norm of a point mass v is v sqrt(2)
    steep = custom_orlicz(lambda t: 2.0 * np.asarray(t, dtype=float) ** 2)
    assert luxemburg_norm_values([3.0], [1.0], steep) == pytest.approx(3.0 * math.sqrt(2.0),
                                                                       rel=1e-12)

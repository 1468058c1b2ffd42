"""Parameter handling, standardization, densities, and closed moments."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import MASTER_SEED, philox
from esn2 import (
    Dataset,
    DpParams,
    NonFiniteParameter,
    NonPositiveDefiniteScale,
    PARAM_NAMES,
    cgf_esn2,
    density_esn1,
    density_esn2,
    expected_info,
    loglik,
    moments_esn2,
    observed_info,
    sample_esn2,
    score,
    standardize,
    validate,
)
from esn2.model import _alpha_star_sq, _lam, delta_vector

IDENTITY = DpParams(0, 0, 1, 0, 1, 0, 0, 0)
SLANTED = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)

# 50-digit oracle values at SLANTED
DENSITIES = {
    (0.7, -1.2): 0.023625563698633839723,
    (-0.4, 0.5): 0.14230362603173615682,
    (1.1, 0.9): 0.12344251016009036016,
    (0.0, 0.0): 0.23645867905555283189,
}


def test_param_names_order():
    assert PARAM_NAMES == ("xi1", "xi2", "omega11", "omega12", "omega22",
                           "alpha1", "alpha2", "tau")


def test_dp_round_trip():
    arr = SLANTED.as_array()
    assert arr.shape == (8,)
    again = DpParams.from_array(arr)
    assert again == SLANTED
    with pytest.raises(ValueError):
        DpParams.from_array(np.zeros(7))


def test_dp_coerces_to_float():
    dp = DpParams(0, 0, 1, 0, 1, 0, 0, 0)
    assert all(isinstance(getattr(dp, name), float) for name in PARAM_NAMES)


def test_validate_accepts_and_returns():
    assert validate(SLANTED) is SLANTED


@pytest.mark.parametrize("field,value,exc", [
    ("xi1", np.nan, NonFiniteParameter),
    ("tau", np.inf, NonFiniteParameter),
    ("omega11", 0.0, NonPositiveDefiniteScale),
    ("omega11", -1.0, NonPositiveDefiniteScale),
    ("omega22", -0.5, NonPositiveDefiniteScale),
    ("omega12", 1.0, NonPositiveDefiniteScale),     # |corr| = 1
    ("omega12", -1.5, NonPositiveDefiniteScale),
])
def test_validate_rejects(field, value, exc):
    bad = {name: getattr(IDENTITY, name) for name in PARAM_NAMES}
    bad[field] = value
    with pytest.raises(exc):
        validate(DpParams(**bad))


OVERFLOWING_SLANT = DpParams(0, 0, 1, 0.5, 1, 1e200, 0, 0)
ONE_ROW = Dataset(np.array([0.0]), np.array([0.0]))


@pytest.mark.parametrize("call", [
    lambda dp: loglik(dp, ONE_ROW),
    lambda dp: score(dp, ONE_ROW),
    lambda dp: observed_info(dp, ONE_ROW),
    lambda dp: expected_info(dp),
    lambda dp: density_esn2(0.0, 0.0, dp),
    lambda dp: moments_esn2(dp),
    lambda dp: sample_esn2(dp, 10, 1),
], ids=["loglik", "score", "observed_info", "expected_info", "density_esn2",
        "moments_esn2", "sample_esn2"])
def test_overflowing_slant_is_a_typed_error(call):
    # alpha_star^2 = 1e400 * 3 / 4 is past the float range; before validate
    # checked it, each entry point raised a bare OverflowError
    with pytest.raises(NonFiniteParameter, match="alpha_star"):
        call(OVERFLOWING_SLANT)


@pytest.mark.parametrize("dp,exc,match", [
    # omega11 omega22 = 1e320 overflows; omega12 ** 2 raised OverflowError
    (DpParams(0, 0, 1e160, 1e155, 1e160, 0, 0, 0), NonFiniteParameter,
     "omega11 omega22"),
    # the product is inf, and det = inf was reported as not positive
    (DpParams(0, 0, 1e200, 0, 1e200, 0, 0, 0), NonFiniteParameter,
     "omega11 omega22"),
    # a finite product, but omega12^2 = 1e310 > omega11 omega22
    (DpParams(0, 0, 1e150, 1e155, 1e150, 0, 0, 0), NonPositiveDefiniteScale,
     "det"),
])
def test_validate_huge_scales(dp, exc, match):
    with pytest.raises(exc, match=match):
        validate(dp)


def test_dataset_validation():
    d = Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert d.n == 2
    with pytest.raises(ValueError):
        Dataset(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros((2, 2)))


def test_standardize_at_origin():
    st = standardize(SLANTED, 0.0, 0.0)
    assert st.z1 == 0.0 and st.z2 == 0.0
    assert st.lam == 0.6
    assert_allclose(st.alpha_star_sq, 20.2, rtol=1e-15)
    assert_allclose(st.alpha0, math.sqrt(21.2), rtol=1e-15)
    assert_allclose(st.t, st.alpha0, rtol=0)


def test_standardize_scales_and_shifts():
    dp = DpParams(1.0, -2.0, 4.0, 0.0, 9.0, 0.5, -0.5, 0.3)
    st = standardize(dp, 3.0, 4.0)
    assert_allclose(st.z1, (3.0 - 1.0) / 2.0, rtol=1e-15)
    assert_allclose(st.z2, (4.0 + 2.0) / 3.0, rtol=1e-15)
    assert_allclose(st.t, st.alpha0 + 0.5 * st.z1 - 0.5 * st.z2, rtol=1e-15)


def test_delta_vector_values():
    d = delta_vector(0.0, 1.0, 0.0)
    assert_allclose(d.delta1, 1.0 / math.sqrt(2.0), rtol=1e-15)
    assert d.delta2 == 0.0
    den = math.sqrt(21.2)
    d = delta_vector(0.6, 2.0, 3.0)
    assert_allclose(d.delta1, (2.0 + 1.8) / den, rtol=1e-15)
    assert_allclose(d.delta2, (3.0 + 1.2) / den, rtol=1e-15)
    with pytest.raises(ValueError):
        delta_vector(1.0, 1.0, 1.0)


def test_alpha_star_sq_matches_high_precision():
    # alpha' Omegabar alpha where its plain sum cancels: lam -> +-1 with
    # alpha1 ~ -+alpha2.  The first case is the lam and alpha of
    # test_gram_rule_stops_at_panel_cap, where the plain sum is off by 5.8e-6
    mp = pytest.importorskip("mpmath").mp
    dp = DpParams(0, 0, 0.9194331757076565, 1.8388682056516397,
                  3.6777401198208306, -34303.18853977436, 34303.36682099898,
                  0)
    cases = [(_lam(dp), dp.alpha1, dp.alpha2)]
    rng = philox(MASTER_SEED, 60)
    for _ in range(200):
        lam = 1.0 - 10.0 ** rng.uniform(-15, 0)
        a1 = 10.0 ** rng.uniform(-3, 5)
        a2 = -a1 * (1.0 + 10.0 ** rng.uniform(-15, 0) * rng.choice([-1, 1]))
        sign = rng.choice([-1.0, 1.0])
        cases += [(lam, a1, a2), (-lam, a1, -a2), (sign * lam, a2, a1)]
    worst = 0.0
    with mp.workdps(50):
        for lam, a1, a2 in cases:
            want = (mp.mpf(a1) ** 2 + mp.mpf(a2) ** 2
                    + 2 * mp.mpf(lam) * mp.mpf(a1) * mp.mpf(a2))
            got = _alpha_star_sq(lam, a1, a2)
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-15


def test_density_identity_origin():
    assert_allclose(density_esn2(0.0, 0.0, IDENTITY), 1.0 / (2.0 * math.pi),
                    rtol=1e-15)


def test_density_oracle_values():
    for (y1, y2), want in DENSITIES.items():
        assert_allclose(density_esn2(y1, y2, SLANTED), want, rtol=1e-14)


def test_density_vectorized():
    y1 = np.array([0.7, -0.4, 1.1])
    y2 = np.array([-1.2, 0.5, 0.9])
    vals = density_esn2(y1, y2, SLANTED)
    assert vals.shape == (3,)
    for a, b, v in zip(y1, y2, vals):
        assert density_esn2(float(a), float(b), SLANTED) == v


def test_density_positive_and_decaying():
    ys = np.linspace(-30.0, 30.0, 61)
    vals = density_esn2(ys, ys, SLANTED)
    assert np.all(vals >= 0.0)
    assert vals[0] < 1e-60 and vals[-1] < 1e-60


def test_density_esn1_reduces_to_normal():
    ys = np.linspace(-3.0, 3.0, 13)
    want = np.exp(-0.5 * ys * ys) / math.sqrt(2.0 * math.pi)
    got = np.array([density_esn1(y, 0.0, 1.0, 0.0, 0.0) for y in ys])
    assert_allclose(got, want, rtol=1e-14)


def test_density_esn1_validation():
    with pytest.raises(ValueError):
        density_esn1(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        density_esn1(0.0, np.nan, 1.0, 1.0, 0.0)
    # an array is not converted by float(); the error says which argument
    with pytest.raises(ValueError, match="y must be a scalar"):
        density_esn1(np.array([0.0, 1.0]), 0.0, 1.0, 1.0, 0.0)


def test_joint_factorizes_when_uncorrelated_unslanted():
    # with omega12 = 0 and alpha2 = 0 the second coordinate is pure normal
    dp = DpParams(0.5, -1.0, 2.0, 0.0, 3.0, 1.5, 0.0, 0.8)
    for y1, y2 in ((0.0, 0.0), (1.2, -0.7), (-2.0, 2.5)):
        marg1 = density_esn1(y1, 0.5, 2.0, 1.5, 0.8)
        marg2 = (math.exp(-0.5 * (y2 + 1.0) ** 2 / 3.0)
                 / math.sqrt(2.0 * math.pi * 3.0))
        assert_allclose(density_esn2(y1, y2, dp), marg1 * marg2, rtol=1e-13)


def test_moments_closed_form():
    mean, cov = moments_esn2(DpParams(0, 0, 1, 0, 1, 1, 0, 0))
    assert_allclose(mean[0], math.sqrt(2.0 / math.pi) / math.sqrt(2.0),
                    rtol=1e-12)
    assert mean[1] == 0.0
    assert_allclose(cov[0, 0], 1.0 - (2.0 / math.pi) * 0.5, rtol=1e-12)
    assert_allclose(cov[1, 1], 1.0, rtol=1e-15)
    assert cov[0, 1] == cov[1, 0]


def test_moments_gaussian_case():
    dp = DpParams(0.3, -0.7, 2.0, 0.5, 1.5, 0.0, 0.0, 1.2)
    mean, cov = moments_esn2(dp)
    assert_allclose(mean, [0.3, -0.7], rtol=1e-15)
    assert_allclose(cov, [[2.0, 0.5], [0.5, 1.5]], rtol=1e-15)


def test_moments_mirror_symmetry():
    dp = DpParams(0, 0, 1.3, 0.4, 0.9, 1.1, -0.6, 0.7)
    flipped = DpParams(0, 0, 1.3, 0.4, 0.9, -1.1, 0.6, 0.7)
    mean, cov = moments_esn2(dp)
    mean_f, cov_f = moments_esn2(flipped)
    assert_allclose(mean_f, -mean, rtol=0)
    assert_allclose(cov_f, cov, rtol=0)


def test_cgf_zero_at_origin():
    assert cgf_esn2(0.0, 0.0, SLANTED) == 0.0
    with pytest.raises(ValueError):
        cgf_esn2(np.inf, 0.0, SLANTED)


def test_cgf_derivatives_match_moments():
    dp = DpParams(0.2, -0.4, 1.2, 0.3, 0.8, 1.0, -2.0, 0.5)
    mean, cov = moments_esn2(dp)
    h = 1e-5
    d1 = (cgf_esn2(h, 0.0, dp) - cgf_esn2(-h, 0.0, dp)) / (2.0 * h)
    d2 = (cgf_esn2(0.0, h, dp) - cgf_esn2(0.0, -h, dp)) / (2.0 * h)
    assert_allclose([d1, d2], mean, rtol=1e-7)
    c11 = (cgf_esn2(h, 0.0, dp) - 2.0 * cgf_esn2(0.0, 0.0, dp)
           + cgf_esn2(-h, 0.0, dp)) / (h * h)
    assert_allclose(c11, cov[0, 0], rtol=1e-5)
    c12 = (cgf_esn2(h, h, dp) - cgf_esn2(h, -h, dp)
           - cgf_esn2(-h, h, dp) + cgf_esn2(-h, -h, dp)) / (4.0 * h * h)
    assert_allclose(c12, cov[0, 1], rtol=1e-4)

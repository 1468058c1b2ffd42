"""The log-Phi derivative ladder against 40-digit tabulations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from esn2 import zeta
from esn2.special_fns import zeta_pair

# Reference values computed with 40-digit arithmetic from the closed forms.
ZETA0_TABLE = {
    -40.0: -804.60844201375378817,
    -15.0: -116.13138484571169524,
    -10.5: -58.404187061073243416,
    -5.0: -15.064998393988725736,
    -0.5: -1.1759117615936186089,
    0.0: -0.69314718055994530942,
    3.0: -0.0013508099647481937988,
    12.0: -1.7764821155218760004e-33,
}

ZETA1_TABLE = {
    -300.0: 300.00333325926337415,
    -40.0: 40.024968847207263723,
    -12.5: 12.579007304406976089,
    -10.5: 10.593583926132378255,
    -8.0: 8.1213681122361126807,
    -1.0: 1.5251352761609812091,
    0.0: 0.79788456080286535588,
    2.0: 0.055247862678989959102,
    9.0: 1.0279773571668914796e-18,
    25.0: 7.6539297364193926596e-137,
}

ZETA2_TABLE = {
    -200.0: -0.99997500374921895228,
    -30.0: -0.998896228488109909,
    -10.5: -0.99138917562032210198,
    -4.0: -0.95332716160257736883,
    -0.5: -0.73151959284412105382,
    0.0: -0.63661977236758134308,
    5.0: -7.4336019148607112465e-6,
    15.0: -8.2960643247666242387e-49,
}


@pytest.mark.parametrize("m,table,rtol", [
    (0, ZETA0_TABLE, 1e-14),
    (1, ZETA1_TABLE, 5e-14),
    (2, ZETA2_TABLE, 2e-13),
])
def test_zeta_tables(m, table, rtol):
    for x, want in table.items():
        assert_allclose(zeta(m, x), want, rtol=rtol, atol=1e-40)


def test_zeta_vectorized_matches_scalar():
    xs = np.array([-50.0, -10.0, -0.3, 0.0, 1.7, 20.0])
    for m in (0, 1, 2):
        vec = zeta(m, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert zeta(m, float(x)) == v


def test_zeta_order_validation():
    with pytest.raises(ValueError):
        zeta(3, 0.0)
    with pytest.raises(ValueError):
        zeta(-1, 0.0)
    with pytest.raises(ValueError):
        zeta(1, np.nan)


def test_zeta_ladder_identity():
    # zeta2 = -zeta1 (x + zeta1) wherever zeta1 is representable
    xs = np.linspace(-35.0, 8.0, 87)
    z1 = zeta(1, xs)
    assert_allclose(zeta(2, xs), -z1 * (xs + z1), rtol=1e-12, atol=1e-300)


def test_zeta0_derivative_is_zeta1():
    h = 1e-6
    for x in (-20.0, -3.0, 0.0, 1.5):
        fd = (zeta(0, x + h) - zeta(0, x - h)) / (2.0 * h)
        assert_allclose(fd, zeta(1, x), rtol=1e-8)


def test_zeta_branch_continuity():
    # the far-left evaluation strategy changes around -10; values must agree
    for m in (0, 1, 2):
        below = zeta(m, -10.0 - 1e-9)
        above = zeta(m, -10.0 + 1e-9)
        assert_allclose(below, above, rtol=1e-9)


def test_zeta_ranges():
    xs = np.linspace(-400.0, 30.0, 500)
    z1 = zeta(1, xs)
    z2 = zeta(2, xs)
    assert np.all(z1 >= 0.0)
    assert np.all(np.diff(z1) < 0.0)       # strictly decreasing
    assert np.all((z2 > -1.0) & (z2 < 0.0))


def test_zeta1_left_asymptote():
    # zeta1(x) ~ -x for x -> -inf
    for x in (-1e3, -1e5):
        assert_allclose(zeta(1, x), -x, rtol=1e-5)


def test_zeta0_vanishes_right():
    # log Phi(35) is about -1e-268: negative, and utterly negligible
    v = zeta(0, 35.0)
    assert -1e-250 < v <= 0.0


# zeta1(tau + h) - zeta1(tau) at 40 digits, for h in ZETA1_SHIFTS
ZETA1_SHIFTS = (1e-6, -0.01, 0.2, -0.24, 0.26, -1.5)
ZETA1_DIFF_TABLE = {
    -100.0: (-9.9990005994905288979e-7, 0.0099990006993706883287,
             -0.19997997195795032125, 0.2399760717813446777,
             -0.25997394789216631166, 1.499852304043114468),
    -10.0: (-9.9055462128114341498e-7, 0.0099056354588630682727,
            -0.1980745202840029419, 0.23778343519379180146,
            -0.25748232761998716411, 1.4875953758054604858),
    -2.0: (-8.8572086990798148716e-7, 0.0088601702306988875499,
           -0.17590250443695831676, 0.21419552490747943677,
           -0.22815997751762082819, 1.378175732034858864),
    0.0: (-6.3661966336075511333e-7, 0.0063770792742138676326,
          -0.12281138101257339862, 0.15880343638305986873,
          -0.15781854877564741388, 1.1407926058196778336),
    2.0: (-1.1354795949120023752e-7, 0.0011447315534278804719,
          -0.019273096560215760301, 0.0329876761602029027,
          -0.023841865394429399468, 0.45391257115804352672),
    10.0: (-7.694560538567612511e-28, 8.0882282009253765365e-24,
           -6.6738680672758134982e-23, 7.4716375208382510959e-22,
           -7.1420873272760206039e-23, 8.1662279370709234104e-17),
}


@pytest.mark.parametrize("tau", sorted(ZETA1_DIFF_TABLE))
def test_zeta1_pair_difference(tau):
    h = np.array(ZETA1_SHIFTS)
    at, diff = zeta_pair(tau, h, 1)
    assert np.array_equal(at[1], zeta(1, tau + h))
    # the plain difference is off by up to 1e-7 here
    assert_allclose(diff[1], ZETA1_DIFF_TABLE[tau], rtol=1e-11, atol=0.0)

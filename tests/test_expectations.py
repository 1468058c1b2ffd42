"""Tilt identity, the a-terms, and the assembled expectation set.

The six a-term reference values were frozen from a 30-digit nested
quadrature of the defining integrals, an implementation sharing nothing
with the Gram rule used by the package.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import TIGHT
from esn2 import (
    CubatureControls,
    CubatureNotConverged,
    DpParams,
    a_terms,
    expectation_set,
    lemma4_expectation,
    sample_esn2,
    u_distribution,
    zeta,
)
from esn2.model import _alpha_star_sq, _lam, delta_vector
from oracles import integrate_2d

SLANTED = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)

# 30-digit quadrature values at SLANTED of the a-terms a0, a_1_1, a_2_1,
# a_1_2, a_2_2 and a_12 (a_j_k = E[Z_j^k zeta1(T)^2]), by their entry of
# E[zeta1(T)^2 B B'], B = (1, Z1, Z2)
A_TERMS_ORACLE = {
    (0, 0): 0.048324048295836795617,
    (0, 1): -0.046062146567023688271,
    (0, 2): -0.050910793574078813352,
    (1, 1): 0.058951941609601802521,
    (2, 2): 0.061307153424286568594,
    (1, 2): 0.040741047903242348159,
}


def test_lemma4_simplest_case():
    assert_allclose(lemma4_expectation(0.0, 1.0, 0.0, 0.0),
                    1.0 / math.sqrt(math.pi), rtol=1e-14)


def test_lemma4_closed_form():
    assert_allclose(lemma4_expectation(0.6, 2.0, 3.0, 1.0),
                    zeta(1, 1.0) / math.sqrt(21.2), rtol=1e-14)
    with pytest.raises(ValueError):
        lemma4_expectation(1.0, 1.0, 0.0, 0.0)


def test_lemma4_matches_direct_cubature():
    lam, a1, a2, tau = 0.3, 1.2, -0.8, 0.6
    alpha0 = tau * math.sqrt(1.0 + a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * lam)
    dp = DpParams(0, 0, 1, lam, 1, a1, a2, tau)

    def integrand(z1, z2):
        from esn2 import density_esn2
        t = alpha0 + a1 * z1 + a2 * z2
        return zeta(1, t) * density_esn2(z1, z2, dp)

    res = integrate_2d(integrand, (-9.0, -9.0), (9.0, 9.0), TIGHT)
    assert res.converged
    assert_allclose(lemma4_expectation(lam, a1, a2, tau), res.value,
                    rtol=1e-8)


def test_u_distribution_values():
    mean, cov = u_distribution(0.0, 1.0, 0.0, 2.0)
    assert_allclose(mean, [-math.sqrt(2.0), 0.0], rtol=1e-15, atol=0)
    assert_allclose(cov[0, 0], 0.5, rtol=1e-15)
    assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0
    assert cov[1, 1] == 1.0


def test_u_distribution_structure():
    lam, a1, a2, tau = 0.4, 1.5, -2.0, 0.7
    mean, cov = u_distribution(lam, a1, a2, tau)
    d = delta_vector(lam, a1, a2)
    assert_allclose(mean, [-tau * d.delta1, -tau * d.delta2], rtol=1e-14)
    omegabar = np.array([[1.0, lam], [lam, 1.0]])
    dvec = np.array([d.delta1, d.delta2])
    assert_allclose(cov, omegabar - np.outer(dvec, dvec), rtol=1e-14)


def test_u_distribution_without_cancellation():
    # at a large slant, Omegabar - delta delta' has entries far below its
    # terms; the closed forms keep them to full relative accuracy
    _, cov = u_distribution(0.5, 1e4, 1e4, 0.0)
    assert_allclose(cov[0, 0], 75_000_001 / 300_000_001, rtol=1e-14)
    assert_allclose(cov[0, 1], (0.5 - 0.75e8) / 300_000_001, rtol=1e-14)
    assert_allclose(cov[1, 1], cov[0, 0], rtol=1e-15)
    _, cov = u_distribution(0.0, 1e8, 0.0, 0.0)
    assert_allclose(cov[0, 0], 1.0 / (1.0 + 1e16), rtol=1e-14)
    assert cov[0, 1] == 0.0 and cov[1, 1] == 1.0


def test_u_distribution_accepts_a_nearly_singular_covariance():
    # det C = (1 - lam^2) / (1 + alpha_star^2) = 5e-17 here, but
    # v11 v22 - v12^2 cancels to 0 in floating point
    _, cov = u_distribution(0.0, 1e8, 1e8, 0.0)
    assert_allclose(cov, [[0.5, -0.5], [-0.5, 0.5]], rtol=1e-15)


def test_a_terms_degenerate_closed_form():
    dp = DpParams(0, 0, 1, 0.3, 1, 0, 0, 0)
    at = a_terms(dp)
    two_over_pi = 2.0 / math.pi
    assert_allclose(at[0, 0], two_over_pi, rtol=1e-15)
    assert at[0, 1] == 0.0 and at[0, 2] == 0.0
    assert_allclose(at[1, 1], two_over_pi, rtol=1e-15)
    assert_allclose(at[2, 2], two_over_pi, rtol=1e-15)
    assert_allclose(at[1, 2], two_over_pi * 0.3, rtol=1e-15)
    assert np.array_equal(at, at.T)


def test_a_terms_oracle_default_controls():
    at = a_terms(SLANTED)
    for rc, want in A_TERMS_ORACLE.items():
        assert_allclose(at[rc], want, rtol=1e-6, err_msg=str(rc))
    assert np.array_equal(at, at.T)


def test_a_terms_oracle_tight_controls():
    at = a_terms(SLANTED, tol=TIGHT)
    for rc, want in A_TERMS_ORACLE.items():
        assert_allclose(at[rc], want, rtol=1e-11, err_msg=str(rc))


def test_a_terms_mirror_symmetry():
    mirrored = replace(SLANTED, alpha1=-SLANTED.alpha1,
                       alpha2=-SLANTED.alpha2)
    at = a_terms(SLANTED)
    mt = a_terms(mirrored)
    signs = np.array([1.0, -1.0, -1.0])
    assert np.array_equal(mt, at * np.outer(signs, signs))


def test_expectation_set_degenerate():
    dp = DpParams(0, 0, 1, 0.3, 1, 0, 0, 0)
    e_b, e_zeta2 = expectation_set(dp)
    assert_allclose(e_b[6], math.sqrt(2.0 / math.pi), rtol=1e-15)
    assert_allclose(e_zeta2[0, 0], -2.0 / math.pi, rtol=1e-15)
    assert e_b[0] == 1.0
    assert e_b[1] == 0.0 and e_b[2] == 0.0
    assert e_b[3] == 1.0 and e_b[4] == 1.0
    assert e_b[5] == 0.3


def test_expectation_set_closed_fields():
    e_b, _ = expectation_set(SLANTED)
    den = math.sqrt(21.2)
    d = delta_vector(0.6, 2.0, 3.0)
    z1_tau, z2_tau = zeta(1, 1.0), zeta(2, 1.0)
    assert_allclose(e_b[6], z1_tau / den, rtol=1e-14)
    assert_allclose(e_b[1], z1_tau * d.delta1, rtol=1e-14)
    assert_allclose(e_b[2], z1_tau * d.delta2, rtol=1e-14)
    # raw second moments: Var + mean^2, i.e. (zeta2 + zeta1^2) delta_j delta_k
    c2 = z2_tau + z1_tau ** 2
    assert_allclose(e_b[3], 1.0 + c2 * d.delta1 ** 2, rtol=1e-14)
    assert_allclose(e_b[4], 1.0 + c2 * d.delta2 ** 2, rtol=1e-14)
    assert_allclose(e_b[5], 0.6 + c2 * d.delta1 * d.delta2, rtol=1e-14)


def test_expectation_set_matches_sampler_moments():
    # standardized sample moments of the zeta1 weights vs the closed forms
    n = 200_000
    y = sample_esn2(SLANTED, n, 20260815)
    z1, z2 = y.y1, y.y2  # xi = 0 and unit diagonal scales
    alpha0 = SLANTED.tau * math.sqrt(
        1.0 + _alpha_star_sq(_lam(SLANTED), 2.0, 3.0))
    w = zeta(1, alpha0 + 2.0 * z1 + 3.0 * z2)
    e_b, _ = expectation_set(SLANTED)
    at = a_terms(SLANTED)
    for sample, want in (
            (w, e_b[6]),
            (z1 * w, e_b[7]),
            (w ** 2, at[0, 0]),
            (z1 * z2 * w ** 2, at[1, 2]),
            (z1, e_b[1]),
            (z1 * z2, e_b[5])):
        se = float(np.std(sample, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sample)) - want) < 3.5 * se


def test_a_terms_squared_integrands_nonnegative():
    from conftest import philox, random_dp
    rng = philox(20260815, 77)
    for _ in range(5):
        at = a_terms(random_dp(rng))
        assert at[0, 0] >= 0.0
        assert at[1, 1] >= 0.0
        assert at[2, 2] >= 0.0


def test_unconverged_budget_is_flagged_then_raises():
    # two rules fit in the budget, and they do not agree: the raise gives
    # their gap
    starved = CubatureControls(rel_tol=1e-6, abs_tol=1e-30, max_evals=1_000)
    with pytest.raises(CubatureNotConverged) as caught:
        a_terms(SLANTED, tol=starved)
    gap = float(str(caught.value).split("gap ")[1].split()[0])
    assert gap > 0.0
    with pytest.raises(CubatureNotConverged):
        expectation_set(SLANTED, tol=starved)


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

from esn2 import (
    CubatureControls,
    CubatureNotConverged,
    DpParams,
    a_terms,
    expectation_set,
    integrate_2d,
    lemma4_expectation,
    sample_esn2,
    standardize,
    u_distribution,
    zeta,
)
from esn2.model import delta_vector

SLANTED = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
TIGHT = CubatureControls(rel_tol=1e-10, abs_tol=1e-13, max_evals=4_000_000)

# 30-digit quadrature values at SLANTED
A_TERMS_ORACLE = {
    "a0": 0.048324048295836795617,
    "a_1_1": -0.046062146567023688271,
    "a_2_1": -0.050910793574078813352,
    "a_1_2": 0.058951941609601802521,
    "a_2_2": 0.061307153424286568594,
    "a_12": 0.040741047903242348159,
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
    u = u_distribution(0.0, 1.0, 0.0, 2.0)
    assert_allclose(u.mean, [-math.sqrt(2.0), 0.0], rtol=1e-15, atol=0)
    assert_allclose(u.v11, 0.5, rtol=1e-15)
    assert u.v12 == 0.0
    assert u.v22 == 1.0


def test_u_distribution_structure():
    lam, a1, a2, tau = 0.4, 1.5, -2.0, 0.7
    u = u_distribution(lam, a1, a2, tau)
    d = delta_vector(lam, a1, a2)
    assert_allclose(u.mean, [-tau * d.delta1, -tau * d.delta2], rtol=1e-14)
    omegabar = np.array([[1.0, lam], [lam, 1.0]])
    dvec = np.array([d.delta1, d.delta2])
    assert_allclose(u.cov, omegabar - np.outer(dvec, dvec), rtol=1e-14)


def test_a_terms_degenerate_closed_form():
    dp = DpParams(0, 0, 1, 0.3, 1, 0, 0, 0)
    at = a_terms(dp)
    assert at.converged and at.evals == 0
    two_over_pi = 2.0 / math.pi
    assert_allclose(at.a0, two_over_pi, rtol=1e-15)
    assert at.a_1_1 == 0.0 and at.a_2_1 == 0.0
    assert_allclose(at.a_1_2, two_over_pi, rtol=1e-15)
    assert_allclose(at.a_2_2, two_over_pi, rtol=1e-15)
    assert_allclose(at.a_12, two_over_pi * 0.3, rtol=1e-15)


def test_a_terms_oracle_default_controls():
    at = a_terms(SLANTED)
    assert at.converged
    for name, want in A_TERMS_ORACLE.items():
        assert_allclose(getattr(at, name), want, rtol=1e-6,
                        err_msg=name)


def test_a_terms_oracle_tight_controls():
    at = a_terms(SLANTED, tol=TIGHT)
    assert at.converged
    for name, want in A_TERMS_ORACLE.items():
        assert_allclose(getattr(at, name), want, rtol=1e-11,
                        err_msg=name)


def test_a_terms_mirror_symmetry():
    mirrored = replace(SLANTED, alpha1=-SLANTED.alpha1,
                       alpha2=-SLANTED.alpha2)
    at = a_terms(SLANTED)
    mt = a_terms(mirrored)
    assert mt.a0 == at.a0
    assert mt.a_1_1 == -at.a_1_1
    assert mt.a_2_1 == -at.a_2_1
    assert mt.a_1_2 == at.a_1_2
    assert mt.a_2_2 == at.a_2_2
    assert mt.a_12 == at.a_12


def test_a_terms_as_tuple_order():
    at = a_terms(SLANTED)
    assert at.as_tuple() == (at.a0, at.a_1_1, at.a_2_1,
                             at.a_1_2, at.a_2_2, at.a_12)


def test_expectation_set_degenerate():
    dp = DpParams(0, 0, 1, 0.3, 1, 0, 0, 0)
    es = expectation_set(dp)
    assert_allclose(es.e_zeta1, math.sqrt(2.0 / math.pi), rtol=1e-15)
    assert_allclose(es.e_zeta2, -2.0 / math.pi, rtol=1e-15)
    assert es.e_z1 == 0.0 and es.e_z2 == 0.0
    assert es.e_z1sq == 1.0 and es.e_z2sq == 1.0
    assert es.e_z1z2 == 0.3


def test_expectation_set_closed_fields():
    es = expectation_set(SLANTED)
    den = math.sqrt(21.2)
    d = delta_vector(0.6, 2.0, 3.0)
    z1_tau, z2_tau = zeta(1, 1.0), zeta(2, 1.0)
    assert_allclose(es.e_zeta1, z1_tau / den, rtol=1e-14)
    assert_allclose(es.e_z1, z1_tau * d.delta1, rtol=1e-14)
    assert_allclose(es.e_z2, z1_tau * d.delta2, rtol=1e-14)
    # raw second moments: Var + mean^2, i.e. (zeta2 + zeta1^2) delta_j delta_k
    c2 = z2_tau + z1_tau ** 2
    assert_allclose(es.e_z1sq, 1.0 + c2 * d.delta1 ** 2, rtol=1e-14)
    assert_allclose(es.e_z2sq, 1.0 + c2 * d.delta2 ** 2, rtol=1e-14)
    assert_allclose(es.e_z1z2, 0.6 + c2 * d.delta1 * d.delta2, rtol=1e-14)
    for name, want in A_TERMS_ORACLE.items():
        assert_allclose(getattr(es, name), want, rtol=1e-6, err_msg=name)


def test_expectation_set_matches_sampler_moments():
    # standardized sample moments of the zeta1 weights vs the closed forms
    n = 200_000
    y = sample_esn2(SLANTED, n, 20260815)
    z1, z2 = y.y1, y.y2  # xi = 0 and unit diagonal scales
    alpha0 = standardize(SLANTED, 0.0, 0.0).alpha0
    w = zeta(1, alpha0 + 2.0 * z1 + 3.0 * z2)
    es = expectation_set(SLANTED)
    for sample, want in (
            (w, es.e_zeta1),
            (z1 * w, es.e_z1_zeta1),
            (w ** 2, es.a0),
            (z1 * z2 * w ** 2, es.a_12),
            (z1, es.e_z1),
            (z1 * z2, es.e_z1z2)):
        se = float(np.std(sample, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sample)) - want) < 3.5 * se


def test_a_terms_squared_integrands_nonnegative():
    from conftest import philox, random_dp
    rng = philox(20260815, 77)
    for _ in range(5):
        at = a_terms(random_dp(rng))
        assert at.a0 >= 0.0
        assert at.a_1_2 >= 0.0
        assert at.a_2_2 >= 0.0


def test_unconverged_budget_is_flagged_then_raises():
    # two rules fit in the budget, and they do not agree
    starved = CubatureControls(rel_tol=1e-6, abs_tol=1e-30, max_evals=1_000)
    at = a_terms(SLANTED, tol=starved)
    assert not at.converged
    assert at.error_estimate > 0.0
    with pytest.raises(CubatureNotConverged):
        expectation_set(SLANTED, tol=starved)


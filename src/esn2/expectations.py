"""Expectations of zeta-weighted moments of the standardized model.

Z is the standardized bivariate extended skew-normal with parameters
(0, Omegabar, alpha, tau); T = alpha0 + alpha1 Z1 + alpha2 Z2.  Every
E[.  zeta1(T)] has a closed form: zeta1 tilts the law of Z into a
Gaussian U with mean -tau delta and covariance Omegabar - delta delta'
(`u_distribution`), so E[h(Z) zeta1(T)] = E[zeta1(T)] E[h(U)].  The
zeta2 analogues each need one extra ingredient with no closed form, the
a-terms E[Z1^p Z2^q zeta1(T)^2].  They are the entries of the Gram matrix
E[zeta1(T)^2 B B'], B = (1, Z1, Z2) (`a_terms`), integrated here by the
same positive-weight rule that gives the expected information.

These are the paper's route to the expected information, which they reach
through the likelihood's hessian coefficients as E[-H]: `expectation_set`
gives E[b] on the likelihood's basis b and E[zeta2(T) B B'], and
`_assemble` contracts them by likelihood._contract, as observed_info does
sample sums.  Production takes the information by a Gram rule over the
score rows (`expected_info`); this module and the assembly are kept as
the oracle that rule is checked by.  The a-terms share the rule's nodes
but not its integrand, so the check still sets the closed forms and the
assembly against the score rows.
"""

import math

import numpy as np

from .cubature import CubatureNotConverged, _gram_rule
from .likelihood import _COL, _UPPER, _coefficients, _contract
from .model import _alpha_star_sq, _lam, _v_entries, delta_vector
from .special_fns import zeta


def lemma4_expectation(lam, alpha1, alpha2, tau):
    """E[zeta1(T)] = zeta1(tau) / sqrt(1 + alpha_star^2); always positive."""
    if not -1.0 < lam < 1.0:
        raise ValueError(f"lam = {lam} must lie in (-1, 1)")
    return zeta(1, tau) / math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))


def u_distribution(lam, alpha1, alpha2, tau):
    """(mean, cov) of U: mean -tau delta (2,) and covariance Omegabar -
    delta delta' (2, 2), the covariance from its closed-form entries, with
    no subtraction."""
    d = delta_vector(lam, alpha1, alpha2)
    v11, v12, v22 = _v_entries(lam, alpha1, alpha2)
    return (np.array([-tau * d.delta1, -tau * d.delta2]),
            np.array([[v11, v12], [v12, v22]]))


def _zeta1_rows(dp, z1, z2, zeta1, diff1):
    """zeta1(T) (1, Z1, Z2), one row per node, from the rule's zeta1(T):
    the Gram rule's b for the a-terms."""
    return np.column_stack([zeta1, zeta1 * z1, zeta1 * z2])


def a_terms(dp, tol=None):
    """The a-terms E[Z1^p Z2^q zeta1(T)^2] for dp, as the 3x3 Gram matrix
    E[zeta1(T)^2 B B'], B = (1, Z1, Z2), which the Gram rule integrates as
    it does E[s s'].  The lower triangle is copied from the upper one.

    The mirror image alpha -> -alpha gets exactly mirrored nodes, and its
    rows change sign by (1, -1, -1), so mirrored points have a-terms that
    are bit-identical up to the sign of the odd ones.  At alpha = (0, 0)
    the tilt is constant and the normal-moment closed forms are returned
    exactly.

    Raises
    ------
    CubatureNotConverged
        When the rule does not converge within tol.max_evals nodes.
    """
    if dp.alpha1 == 0.0 and dp.alpha2 == 0.0:
        lam = _lam(dp)
        return zeta(1, dp.tau) ** 2 * np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, lam], [0.0, lam, 1.0]])

    rule = _gram_rule(dp, _zeta1_rows, tol)
    if not rule.converged:
        raise CubatureNotConverged(
            f"a-term rule not converged after {rule.nodes} nodes; gap "
            f"{rule.gap:g} between the last two rules")
    m = rule.factor.T @ rule.factor
    lower = np.tril_indices(3, -1)
    m[lower] = m.T[lower]
    return m


def expectation_set(dp, tol=None):
    """The closed-form expectations that _assemble contracts.

    Returns
    -------
    e_b : ndarray, (9,)
        E[b] on the likelihood's basis b = (1, z1, z2, z1^2, z2^2, z1 z2,
        zeta1, z1 zeta1, z2 zeta1), the order of s_coef's columns.
    e_zeta2 : ndarray, (3, 3)
        E[zeta2(T) B B'], B = (1, Z1, Z2), each entry its zeta1 identity
        less an a-term.

    Raises
    ------
    CubatureNotConverged
        As a_terms does.
    """
    a = a_terms(dp, tol)
    lam = _lam(dp)
    a1, a2, tau = dp.alpha1, dp.alpha2, dp.tau
    den = math.sqrt(1.0 + _alpha_star_sq(lam, a1, a2))
    alpha0 = tau * den
    d = delta_vector(lam, a1, a2)
    d1, d2 = d.delta1, d.delta2
    v11, v12, v22 = _v_entries(lam, a1, a2)
    z1_tau = zeta(1, tau)
    z2_tau = zeta(2, tau)

    e_zeta1 = z1_tau / den
    e_z1_zeta1 = -tau * d1 * e_zeta1
    e_z2_zeta1 = -tau * d2 * e_zeta1
    # first and second moments of T under the tilt, via alpha0 + alpha'U
    e_t_zeta1 = (alpha0 - tau * (a1 * d1 + a2 * d2)) * e_zeta1
    e_z1t_zeta1 = (-alpha0 * tau * d1
                   + a1 * (tau ** 2 * d1 ** 2 + v11)
                   + a2 * (tau ** 2 * d1 * d2 + v12)) * e_zeta1
    e_z2t_zeta1 = (-alpha0 * tau * d2
                   + a2 * (tau ** 2 * d2 ** 2 + v22)
                   + a1 * (tau ** 2 * d1 * d2 + v12)) * e_zeta1

    # d/dx [zeta1] = zeta2 turns each zeta1 identity into a zeta2 one,
    # at the price of one a-term
    e_zeta2 = -e_t_zeta1 - a[0, 0]
    e_z1_zeta2 = -e_z1t_zeta1 - a[0, 1]
    e_z2_zeta2 = -e_z2t_zeta1 - a[0, 2]
    e_z1sq_zeta2 = -(alpha0 * (v11 + tau ** 2 * d1 ** 2)
                     - a1 * tau * d1 * (tau ** 2 * d1 ** 2 + 3.0 * v11)
                     + a2 * tau * ((v12 / v11) * d1 - d2)
                     * (tau ** 2 * d1 ** 2 + v11)
                     - a2 * tau * d1 * (v12 / v11)
                     * (tau ** 2 * d1 ** 2 + 3.0 * v11)) * e_zeta1 \
        - a[1, 1]
    e_z2sq_zeta2 = -(alpha0 * (v22 + tau ** 2 * d2 ** 2)
                     - a2 * tau * d2 * (tau ** 2 * d2 ** 2 + 3.0 * v22)
                     + a1 * tau * ((v12 / v22) * d2 - d1)
                     * (tau ** 2 * d2 ** 2 + v22)
                     - a1 * tau * d2 * (v12 / v22)
                     * (tau ** 2 * d2 ** 2 + 3.0 * v22)) * e_zeta1 \
        - a[2, 2]
    e_z1z2_zeta2 = -(alpha0 * (v12 + tau ** 2 * d1 * d2)
                     + a1 * tau * ((v12 / v11) * d1 - d2)
                     * (tau ** 2 * d1 ** 2 + v11)
                     - a1 * tau * d1 * (v12 / v11)
                     * (tau ** 2 * d1 ** 2 + 3.0 * v11)
                     + a2 * tau * ((v12 / v22) * d2 - d1)
                     * (tau ** 2 * d2 ** 2 + v22)
                     - a2 * tau * d2 * (v12 / v22)
                     * (tau ** 2 * d2 ** 2 + 3.0 * v22)) * e_zeta1 \
        - a[1, 2]

    moment_shift = z2_tau + z1_tau ** 2
    e_b = np.array([1.0, z1_tau * d1, z1_tau * d2,
                    1.0 + d1 ** 2 * moment_shift,
                    1.0 + d2 ** 2 * moment_shift,
                    lam + d1 * d2 * moment_shift,
                    e_zeta1, e_z1_zeta1, e_z2_zeta1])
    return e_b, np.array([[e_zeta2, e_z1_zeta2, e_z2_zeta2],
                          [e_z1_zeta2, e_z1sq_zeta2, e_z1z2_zeta2],
                          [e_z2_zeta2, e_z1z2_zeta2, e_z2sq_zeta2]])


def _assemble(dp, e_b, e_zeta2):
    """The paper's expected information -E[h] from expectation_set's
    arrays: the likelihood's hessian coefficients contracted with E[b],
    and grad t = G (1, Z) with E[zeta2(T) (1, Z)(1, Z)'], by the
    `_contract` that observed_info applies to sample sums."""
    coef = _coefficients(dp)
    g = coef.s_coef[:, 6:]
    w = e_zeta2[0, 0]
    zeta2 = (w, (g @ e_zeta2 @ g.T)[_UPPER], w - zeta(2, dp.tau))
    h = _contract(coef, e_b, e_b[6] - zeta(1, dp.tau), zeta2)[1]
    return -h[_COL]

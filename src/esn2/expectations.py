"""Expectations of zeta-weighted moments of the standardized model.

Z is the standardized bivariate extended skew-normal with parameters
(0, Omegabar, alpha, tau); T = alpha0 + alpha1 Z1 + alpha2 Z2.  Every
E[.  zeta1(T)] has a closed form: zeta1 tilts the law of Z into a
Gaussian U with mean -tau delta and covariance Omegabar - delta delta',
so E[h(Z) zeta1(T)] = E[zeta1(T)] E[h(U)].  The zeta2 analogues each
need one extra ingredient with no closed form, the a-terms
E[Z1^p Z2^q zeta1(T)^2].  They are the entries of the Gram matrix
E[zeta1(T)^2 B B'], B = (1, Z1, Z2), integrated here by the same
positive-weight rule that gives the expected information.

These are the paper's route to the expected information, which they reach
through the kernel's hessian coefficients as E[-H] (expected_info._assemble).
Production takes it by a Gram rule over the score rows (`expected_info`);
this module and the assembly are kept as the oracle that rule is checked by.
The a-terms share the rule's nodes but not its integrand, so the check
still sets the closed forms and the assembly against the score rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cubature import _gram_rule
from .model import _alpha_star_sq, _lam, _v_entries, delta_vector, validate
from .special_fns import zeta


class CubatureNotConverged(RuntimeError):
    """A quadrature rule could not reach its error tolerance."""


@dataclass(frozen=True)
class UDistribution:
    """Gaussian law appearing in the zeta1 tilt identity."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mean must be a 2-vector and cov 2x2")
        assert cov[0, 1] == cov[1, 0]
        assert cov[0, 0] > 0.0 and cov[1, 1] > 0.0
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 > 0.0
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def v11(self):
        return float(self.cov[0, 0])

    @property
    def v12(self):
        return float(self.cov[0, 1])

    @property
    def v22(self):
        return float(self.cov[1, 1])


def lemma4_expectation(lam, alpha1, alpha2, tau):
    """E[zeta1(T)] = zeta1(tau) / sqrt(1 + alpha_star^2); always positive."""
    if not -1.0 < lam < 1.0:
        raise ValueError(f"lam = {lam} must lie in (-1, 1)")
    return zeta(1, tau) / math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))


def u_distribution(lam, alpha1, alpha2, tau):
    """Mean -tau delta and covariance Omegabar - delta delta' of U."""
    d = delta_vector(lam, alpha1, alpha2)
    dvec = np.array([d.delta1, d.delta2])
    omegabar = np.array([[1.0, lam], [lam, 1.0]])
    return UDistribution(mean=-tau * dvec, cov=omegabar - np.outer(dvec, dvec))


@dataclass(frozen=True)
class ATerms:
    """The six integrals E[Z1^p Z2^q zeta1(T)^2].

    converged is False when the rule ran out of budget before two rules
    agreed; values are then the finest rule's (NaN when the budget admits
    no rule), and consumers decide whether to raise.  error_estimate is
    the largest gap between the last two rules (inf before two have run),
    and evals the rule nodes summed over the rules tried.
    """
    a0: float
    a_1_1: float
    a_2_1: float
    a_1_2: float
    a_2_2: float
    a_12: float
    converged: bool
    error_estimate: float
    evals: int

    def as_tuple(self):
        return (self.a0, self.a_1_1, self.a_2_1,
                self.a_1_2, self.a_2_2, self.a_12)


def _zeta1_rows(dp, z1, z2):
    """zeta1(T) (1, Z1, Z2), one row per node: the Gram rule's b for the
    a-terms."""
    alpha0 = dp.tau * math.sqrt(
        1.0 + _alpha_star_sq(_lam(dp), dp.alpha1, dp.alpha2))
    z = zeta(1, alpha0 + dp.alpha1 * z1 + dp.alpha2 * z2)
    return np.column_stack([z, z * z1, z * z2])


def a_terms(dp, tol=None):
    """The six a-terms for dp, with a convergence flag.

    They are the entries of the Gram matrix E[zeta1(T)^2 B B'],
    B = (1, Z1, Z2), which the Gram rule integrates as it does E[s s'].
    The rule runs at the canonical alpha sign, where mirrored parameter
    points meet, so their a-terms are bit-identical up to the sign of the
    odd ones.  At alpha = (0, 0) the tilt is constant and the
    normal-moment closed forms are returned exactly.
    """
    validate(dp)
    if dp.alpha1 == 0.0 and dp.alpha2 == 0.0:
        z1_sq = zeta(1, dp.tau) ** 2
        return ATerms(a0=z1_sq, a_1_1=0.0, a_2_1=0.0, a_1_2=z1_sq,
                      a_2_2=z1_sq, a_12=z1_sq * _lam(dp),
                      converged=True, error_estimate=0.0, evals=0)

    rule = _gram_rule(dp, _zeta1_rows, tol)
    r = rule.factor if rule.factor is not None else np.full((3, 3), np.nan)
    m = (r.T @ r).tolist()
    odd = -1.0 if rule.flipped else 1.0
    return ATerms(a0=m[0][0], a_1_1=odd * m[0][1], a_2_1=odd * m[0][2],
                  a_1_2=m[1][1], a_2_2=m[2][2], a_12=m[1][2],
                  converged=rule.converged, error_estimate=rule.gap,
                  evals=rule.nodes)


@dataclass(frozen=True)
class ExpectationSet:
    """Every expectation the information matrix assembly consumes."""
    e_zeta1: float
    e_z1_zeta1: float
    e_z2_zeta1: float
    e_zeta2: float
    e_z1_zeta2: float
    e_z2_zeta2: float
    e_z1sq_zeta2: float
    e_z2sq_zeta2: float
    e_z1z2_zeta2: float
    a0: float
    a_1_1: float
    a_2_1: float
    a_1_2: float
    a_2_2: float
    a_12: float
    e_z1: float
    e_z2: float
    e_z1z2: float
    e_z1sq: float
    e_z2sq: float


def expectation_set(dp, tol=None):
    """All closed-form expectations plus the a-terms.

    Raises
    ------
    CubatureNotConverged
        If the a-term rule is flagged unconverged.
    """
    validate(dp)
    terms = a_terms(dp, tol)
    if not terms.converged:
        raise CubatureNotConverged(
            "a-term rule did not converge; gap "
            f"{terms.error_estimate:g} after {terms.evals} nodes")
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
    e_zeta2 = -e_t_zeta1 - terms.a0
    e_z1_zeta2 = -e_z1t_zeta1 - terms.a_1_1
    e_z2_zeta2 = -e_z2t_zeta1 - terms.a_2_1
    e_z1sq_zeta2 = -(alpha0 * (v11 + tau ** 2 * d1 ** 2)
                     - a1 * tau * d1 * (tau ** 2 * d1 ** 2 + 3.0 * v11)
                     + a2 * tau * ((v12 / v11) * d1 - d2)
                     * (tau ** 2 * d1 ** 2 + v11)
                     - a2 * tau * d1 * (v12 / v11)
                     * (tau ** 2 * d1 ** 2 + 3.0 * v11)) * e_zeta1 \
        - terms.a_1_2
    e_z2sq_zeta2 = -(alpha0 * (v22 + tau ** 2 * d2 ** 2)
                     - a2 * tau * d2 * (tau ** 2 * d2 ** 2 + 3.0 * v22)
                     + a1 * tau * ((v12 / v22) * d2 - d1)
                     * (tau ** 2 * d2 ** 2 + v22)
                     - a1 * tau * d2 * (v12 / v22)
                     * (tau ** 2 * d2 ** 2 + 3.0 * v22)) * e_zeta1 \
        - terms.a_2_2
    e_z1z2_zeta2 = -(alpha0 * (v12 + tau ** 2 * d1 * d2)
                     + a1 * tau * ((v12 / v11) * d1 - d2)
                     * (tau ** 2 * d1 ** 2 + v11)
                     - a1 * tau * d1 * (v12 / v11)
                     * (tau ** 2 * d1 ** 2 + 3.0 * v11)
                     + a2 * tau * ((v12 / v22) * d2 - d1)
                     * (tau ** 2 * d2 ** 2 + v22)
                     - a2 * tau * d2 * (v12 / v22)
                     * (tau ** 2 * d2 ** 2 + 3.0 * v22)) * e_zeta1 \
        - terms.a_12

    moment_shift = z2_tau + z1_tau ** 2
    return ExpectationSet(
        e_zeta1=e_zeta1, e_z1_zeta1=e_z1_zeta1, e_z2_zeta1=e_z2_zeta1,
        e_zeta2=e_zeta2,
        e_z1_zeta2=e_z1_zeta2, e_z2_zeta2=e_z2_zeta2,
        e_z1sq_zeta2=e_z1sq_zeta2, e_z2sq_zeta2=e_z2sq_zeta2,
        e_z1z2_zeta2=e_z1z2_zeta2,
        a0=terms.a0, a_1_1=terms.a_1_1, a_2_1=terms.a_2_1,
        a_1_2=terms.a_1_2, a_2_2=terms.a_2_2, a_12=terms.a_12,
        e_z1=z1_tau * d1, e_z2=z1_tau * d2,
        e_z1z2=lam + d1 * d2 * moment_shift,
        e_z1sq=1.0 + d1 ** 2 * moment_shift,
        e_z2sq=1.0 + d2 ** 2 * moment_shift)

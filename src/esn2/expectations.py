"""Expectations of zeta-weighted moments of the standardized model.

Z is the standardized bivariate extended skew-normal with parameters
(0, Omegabar, alpha, tau); T = alpha0 + alpha1 Z1 + alpha2 Z2.  Every
E[.  zeta1(T)] has a closed form: zeta1 tilts the law of Z into a
Gaussian U with mean -tau delta and covariance Omegabar - delta delta',
so E[h(Z) zeta1(T)] = E[zeta1(T)] E[h(U)].  The zeta2 analogues each
need one extra ingredient with no closed form, the a-terms
E[Z1^p Z2^q zeta1(T)^2], evaluated here by adaptive cubature.

These are the paper's route to the expected information, which they reach
through the kernel's hessian coefficients as E[-H] (expected_info._assemble).
Production takes it by a Gram rule over the score rows (`expected_info`);
this module and the assembly are kept as the oracle that rule is checked by.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cubature import CubatureControls, integrate_2d
from .model import _alpha_star_sq, _lam, _v_entries, delta_vector, validate
from .special_fns import zeta

LOG_2PI = math.log(2.0 * math.pi)

_WIDEN_STEP = 2.0
_WIDEN_ROUNDS = 8


class CubatureNotConverged(RuntimeError):
    """An a-term integral could not reach its error tolerance."""


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
    """The six cubature integrals E[Z1^p Z2^q zeta1(T)^2].

    converged is False when any integral hit its budget above tolerance
    or the integration box failed the mass check; values are then best
    estimates, and consumers decide whether to raise.
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


def _std_log_density(lam, alpha1, alpha2, tau):
    """Log density of Z as a vectorized callable of (z1, z2) arrays."""
    u = 1.0 / (1.0 - lam * lam)
    alpha0 = tau * math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))
    const = -LOG_2PI - 0.5 * math.log1p(-lam * lam) - zeta(0, tau)

    def log_f(z1, z2):
        q = z1 * z1 + z2 * z2 - 2.0 * lam * z1 * z2
        return const - 0.5 * u * q + zeta(0, alpha0 + alpha1 * z1
                                          + alpha2 * z2)
    return log_f


def _tail_halfwidth(rel_tol):
    """Half-width multiplier whose Gaussian tail is below the tolerance.

    Truncating a second-moment integrand at mean +- L sd discards about
    2 (L^2 + 1) phi(L) of its value, an error the interior refinement
    loop can never see, so L has to grow as the tolerance shrinks.
    """
    target = 0.01 * max(rel_tol, 1e-15)
    width = 6.0
    while width < 12.0:
        tail = 2.0 * (width * width + 1.0) * math.exp(
            -0.5 * width * width - 0.5 * LOG_2PI)
        if tail <= target:
            break
        width += 0.25
    return width


def _integration_box(lam, alpha1, alpha2, tau, controls):
    """Box holding essentially all the mass of Z.

    Each marginal of Z has mean zeta1(tau) delta_j and variance
    1 + zeta2(tau) delta_j^2, so the box covers mean +- L sd per
    coordinate with L set by the tolerance, then is verified to hold
    nearly all the mass, widening further if the check fails.
    """
    d = delta_vector(lam, alpha1, alpha2)
    width = _tail_halfwidth(controls.rel_tol)
    z1_tau, z2_tau = zeta(1, tau), zeta(2, tau)
    lower = np.empty(2)
    upper = np.empty(2)
    for j, dj in enumerate((d.delta1, d.delta2)):
        mean = z1_tau * dj
        sd = math.sqrt(1.0 + z2_tau * dj * dj)
        lower[j] = mean - width * sd
        upper[j] = mean + width * sd

    log_f = _std_log_density(lam, alpha1, alpha2, tau)

    def density(z1, z2):
        return np.exp(log_f(z1, z2))

    mass_floor = 1.0 - max(min(1e-6, controls.rel_tol), 1e-12)
    for _ in range(_WIDEN_ROUNDS):
        mass = integrate_2d(density, lower, upper, controls)
        if mass.converged and mass.value >= mass_floor:
            return lower, upper
        lower -= _WIDEN_STEP
        upper += _WIDEN_STEP
    raise CubatureNotConverged(
        f"integration box mass check failed; last box {lower} .. {upper}")


def a_terms(dp, tol=None):
    """The six a-term integrals for dp, with a convergence flag.

    The integrands are invariant (odd ones change sign) under jointly
    flipping alpha and z, so integrals are evaluated at a canonical
    alpha sign and mapped back, and mirrored parameter points yield
    bit-identical magnitudes.  At alpha = (0, 0) the tilt is constant
    and the normal-moment closed forms are returned exactly.
    """
    validate(dp)
    controls = tol or CubatureControls()
    lam = _lam(dp)
    a1, a2, tau = dp.alpha1, dp.alpha2, dp.tau

    if a1 == 0.0 and a2 == 0.0:
        z1_sq = zeta(1, tau) ** 2
        return ATerms(a0=z1_sq, a_1_1=0.0, a_2_1=0.0, a_1_2=z1_sq,
                      a_2_2=z1_sq, a_12=z1_sq * lam,
                      converged=True, error_estimate=0.0, evals=0)

    flip = a1 < 0.0 or (a1 == 0.0 and a2 < 0.0)
    if flip:
        a1, a2 = -a1, -a2

    lower, upper = _integration_box(lam, a1, a2, tau, controls)
    log_f = _std_log_density(lam, a1, a2, tau)
    alpha0 = tau * math.sqrt(1.0 + _alpha_star_sq(lam, a1, a2))

    def weight(z1, z2):
        return zeta(1, alpha0 + a1 * z1 + a2 * z2) ** 2 \
            * np.exp(log_f(z1, z2))

    # The odd and cross moments are recovered from shifted and rotated
    # squares so that every integrand is nonnegative; a sign-changing
    # integrand can cancel to a spurious zero plateau on coarse regions.
    integrands = (weight,
                  lambda x, y: x * x * weight(x, y),
                  lambda x, y: y * y * weight(x, y),
                  lambda x, y: (1.0 + x) ** 2 * weight(x, y),
                  lambda x, y: (1.0 + y) ** 2 * weight(x, y),
                  lambda x, y: (x + y) ** 2 * weight(x, y),
                  lambda x, y: (x - y) ** 2 * weight(x, y))
    vals = []
    errs = []
    evals = 0
    converged = True
    for g in integrands:
        res = integrate_2d(g, lower, upper, controls)
        vals.append(res.value)
        errs.append(res.error_estimate)
        evals += res.evals
        converged = converged and res.converged
    a0, a_1_2, a_2_2, shift1, shift2, rot_p, rot_m = vals
    a_1_1 = 0.5 * (shift1 - a0 - a_1_2)
    a_2_1 = 0.5 * (shift2 - a0 - a_2_2)
    a_12 = 0.25 * (rot_p - rot_m)
    if flip:
        a_1_1, a_2_1 = -a_1_1, -a_2_1
    worst = max(errs[0], errs[1], errs[2],
                0.5 * (errs[3] + errs[0] + errs[1]),
                0.5 * (errs[4] + errs[0] + errs[2]),
                0.25 * (errs[5] + errs[6]))
    return ATerms(a0=a0, a_1_1=a_1_1, a_2_1=a_2_1,
                  a_1_2=a_1_2, a_2_2=a_2_2, a_12=a_12,
                  converged=converged, error_estimate=worst, evals=evals)


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
    """All closed-form expectations plus the cubature a-terms.

    Raises
    ------
    CubatureNotConverged
        If any a-term integral is flagged unconverged.
    """
    validate(dp)
    terms = a_terms(dp, tol)
    if not terms.converged:
        raise CubatureNotConverged(
            "a-term cubature did not converge; error estimate "
            f"{terms.error_estimate:g} after {terms.evals} evaluations")
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

"""Bivariate extended skew-normal model: parameters, densities, moments.

The direct parameter vector is ordered (xi1, xi2, omega11, omega12, omega22,
alpha1, alpha2, tau): location xi, symmetric positive definite scale matrix
Omega, slant alpha, and hidden-truncation shift tau.  The density is

    f(y) = phi2(y - xi; Omega) Phi(alpha0 + alpha' z) / Phi(tau),

with z the componentwise standardized residual, alpha0 = tau sqrt(1 +
alpha' Omegabar alpha), and Omegabar the correlation matrix of Omega.
tau = 0 recovers the skew-normal; alpha = 0 and tau = 0 recover the normal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special_fns import RT2PI, zeta

# Omega must be comfortably positive definite relative to its scale
DET_EPS = 1e-12

PARAM_NAMES = ("xi1", "xi2", "omega11", "omega12", "omega22",
               "alpha1", "alpha2", "tau")


class NonFiniteParameter(ValueError):
    """A parameter component is NaN or infinite."""


class NonPositiveDefiniteScale(ValueError):
    """The scale matrix is not (numerically) positive definite."""


@dataclass(frozen=True)
class DpParams:
    """Direct parameters in the fixed (xi, Omega, alpha, tau) order.

    Every instance is a valid point, however it is built: after coercing
    its components to float, construction calls `_validate`, so an invalid
    point raises NonFiniteParameter or NonPositiveDefiniteScale and no
    function taking a DpParams checks it again.
    """
    xi1: float
    xi2: float
    omega11: float
    omega12: float
    omega22: float
    alpha1: float
    alpha2: float
    tau: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, float(getattr(self, name)))
        _validate(self)

    def as_array(self):
        return np.array([getattr(self, name) for name in PARAM_NAMES])

    @classmethod
    def from_array(cls, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (8,):
            raise ValueError(f"expected 8 parameters, got shape {values.shape}")
        return cls(*values)


@dataclass(frozen=True)
class DeltaVector:
    """Marginal slant coefficients delta_j = (alpha_j + lam alpha_k) / s."""
    delta1: float
    delta2: float

    def __post_init__(self):
        # inside (-1, 1), but rounded to +-1 where |alpha| passes about 1e8
        assert -1.0 <= self.delta1 <= 1.0
        assert -1.0 <= self.delta2 <= 1.0


@dataclass(frozen=True)
class Dataset:
    """Columnar bivariate sample; both columns finite and equal length."""
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        y1 = np.atleast_1d(np.asarray(self.y1, dtype=float))
        y2 = np.atleast_1d(np.asarray(self.y2, dtype=float))
        if y1.ndim != 1 or y2.ndim != 1:
            raise ValueError("dataset columns must be one dimensional")
        if len(y1) != len(y2):
            raise ValueError(
                f"column lengths differ: {len(y1)} vs {len(y2)}")
        if len(y1) == 0:
            raise ValueError("dataset is empty")
        if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    @property
    def n(self):
        return len(self.y1)


def _validate(dp):
    """Raise unless dp is a valid point.  DpParams.__post_init__ is its
    one caller, so every DpParams has passed it.

    Raises
    ------
    NonFiniteParameter
        If any component is NaN or infinite, omega11 omega22 is not
        finite, or the slant is so large that alpha_star^2 = alpha'
        Omegabar alpha is not finite.
    NonPositiveDefiniteScale
        If omega11 <= 0, omega22 <= 0, or det(Omega) is not safely positive.
    """
    for name in PARAM_NAMES:
        if not math.isfinite(getattr(dp, name)):
            raise NonFiniteParameter(f"{name} is not finite")
    if dp.omega11 <= 0.0:
        raise NonPositiveDefiniteScale(f"omega11 = {dp.omega11} must be > 0")
    if dp.omega22 <= 0.0:
        raise NonPositiveDefiniteScale(f"omega22 = {dp.omega22} must be > 0")
    if not math.isfinite(dp.omega11 * dp.omega22):
        raise NonFiniteParameter("omega11 omega22 is not finite")
    # omega12 ** 2 would raise OverflowError where the product gives inf
    det = dp.omega11 * dp.omega22 - dp.omega12 * dp.omega12
    if det <= DET_EPS * dp.omega11 * dp.omega22:
        raise NonPositiveDefiniteScale(
            f"det(Omega) = {det} is not positive relative to its scale")
    try:
        astar2 = _alpha_star_sq(_lam(dp), dp.alpha1, dp.alpha2)
    except OverflowError:
        astar2 = math.inf
    if not math.isfinite(astar2):
        raise NonFiniteParameter(
            "alpha_star^2 = alpha' Omegabar alpha is not finite")


def _lam(dp):
    return dp.omega12 / math.sqrt(dp.omega11 * dp.omega22)


def _alpha_star_sq(lam, alpha1, alpha2):
    # alpha' Omegabar alpha on the eigenvectors of Omegabar: two terms that
    # are never negative, so nothing cancels where lam -> +-1
    return 0.5 * ((alpha1 + alpha2) ** 2 * (1.0 + lam)
                  + (alpha1 - alpha2) ** 2 * (1.0 - lam))


def delta_vector(lam, alpha1, alpha2):
    """Marginal slants delta_j for correlation lam and slant (alpha1, alpha2)."""
    if not -1.0 < lam < 1.0:
        raise ValueError(f"lam = {lam} must lie in (-1, 1)")
    s = math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))
    return DeltaVector((alpha1 + lam * alpha2) / s, (alpha2 + lam * alpha1) / s)


def _v_entries(lam, alpha1, alpha2):
    # closed forms for the entries of C = Omegabar - delta delta', the
    # covariance of U in expectations.u_distribution
    one_m = 1.0 - lam * lam
    denom_sq = 1.0 + _alpha_star_sq(lam, alpha1, alpha2)
    v11 = (1.0 + alpha2 ** 2 * one_m) / denom_sq
    v22 = (1.0 + alpha1 ** 2 * one_m) / denom_sq
    v12 = (lam - alpha1 * alpha2 * one_m) / denom_sq
    return v11, v12, v22


def _conditional_factor(lam, alpha1, alpha2):
    """delta and the Cholesky entries (l11, l21, l22) of C = Omegabar -
    delta delta', so that Z = delta V + (l11 W1, l21 W1 + l22 W2) with V
    the hidden variable and W standard normal.  det C is
    (1 - lam^2) / (1 + alpha_star^2).
    """
    v11, v12, _ = _v_entries(lam, alpha1, alpha2)
    l11 = math.sqrt(v11)
    l22 = math.sqrt((1.0 - lam * lam)
                    / ((1.0 + _alpha_star_sq(lam, alpha1, alpha2)) * v11))
    return delta_vector(lam, alpha1, alpha2), l11, v12 / l11, l22


def _residuals(dp, y1, y2):
    """Standardized residuals (y1 - xi1) / omega1 and (y2 - xi2) / omega2,
    elementwise, with omega_j = sqrt(omega_jj)."""
    return ((np.asarray(y1, dtype=float) - dp.xi1) / math.sqrt(dp.omega11),
            (np.asarray(y2, dtype=float) - dp.xi2) / math.sqrt(dp.omega22))


def density_esn1(y, xi, omega_sq, alpha, tau):
    """Univariate extended skew-normal density.

    Parameters
    ----------
    y : float
    xi : float
        Location.
    omega_sq : float
        Squared scale, > 0.
    alpha : float
        Slant.
    tau : float
        Hidden-truncation shift.
    """
    for name, v in (("y", y), ("xi", xi), ("omega_sq", omega_sq),
                    ("alpha", alpha), ("tau", tau)):
        if np.ndim(v) != 0:
            raise ValueError(f"{name} must be a scalar, got shape "
                             f"{np.shape(v)}")
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} must be finite")
    if omega_sq <= 0.0:
        raise ValueError(f"omega_sq = {omega_sq} must be > 0")
    omega = math.sqrt(omega_sq)
    z = (y - xi) / omega
    alpha0 = tau * math.sqrt(1.0 + alpha * alpha)
    log_f = (-0.5 * z * z - math.log(omega) - math.log(RT2PI)
             + zeta(0, alpha0 + alpha * z) - zeta(0, tau))
    return math.exp(log_f)


def moments_esn2(dp):
    """Mean vector and covariance matrix.

    Returns
    -------
    (mean, cov) : ndarray (2,), ndarray (2, 2)
    """
    lam = _lam(dp)
    delta = delta_vector(lam, dp.alpha1, dp.alpha2)
    d = np.array([delta.delta1, delta.delta2])
    w = np.array([math.sqrt(dp.omega11), math.sqrt(dp.omega22)])
    z1_tau = zeta(1, dp.tau)
    z2_tau = zeta(2, dp.tau)
    mean = np.array([dp.xi1, dp.xi2]) + z1_tau * w * d
    omega = np.array([[dp.omega11, dp.omega12], [dp.omega12, dp.omega22]])
    cov = omega + z2_tau * np.outer(w * d, w * d)
    return mean, cov


def cgf_esn2(t1, t2, dp):
    """Cumulant generating function at (t1, t2)."""
    if not (math.isfinite(float(t1)) and math.isfinite(float(t2))):
        raise ValueError("t must be finite")
    lam = _lam(dp)
    delta = delta_vector(lam, dp.alpha1, dp.alpha2)
    wd1 = math.sqrt(dp.omega11) * delta.delta1
    wd2 = math.sqrt(dp.omega22) * delta.delta2
    quad = (dp.omega11 * t1 * t1 + 2.0 * dp.omega12 * t1 * t2
            + dp.omega22 * t2 * t2)
    return (dp.xi1 * t1 + dp.xi2 * t2 + 0.5 * quad
            + zeta(0, dp.tau + wd1 * t1 + wd2 * t2) - zeta(0, dp.tau))

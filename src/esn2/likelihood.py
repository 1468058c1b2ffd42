"""Log-likelihood, analytic score, and observed information.

All derivatives are taken with respect to the direct parameter vector
theta = (xi1, xi2, omega11, omega12, omega22, alpha1, alpha2, tau).  The
observed information is the hessian of the log-likelihood with the sign
reversed, so away from the maximum it need not be positive definite.

Shared shorthand, per observation: u = 1/(1 - lam^2), den = sqrt(1 +
alpha_star^2), t = alpha0 + alpha1 z1 + alpha2 z2, and quad = z1^2 +
z2^2 - 2 lam z1 z2.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .model import (DpParams, _alpha_star_sq, _lam, _log_density_arrays,
                    validate)
from .special_fns import zeta, zeta1_pair

_INFO_KINDS = ("observed", "expected")


@dataclass(frozen=True)
class InfoMatrix:
    """8x8 symmetric information matrix in the theta ordering."""
    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (8, 8):
            raise ValueError(f"expected an 8x8 matrix, got shape {m.shape}")
        if self.kind not in _INFO_KINDS:
            raise ValueError(f"kind must be one of {_INFO_KINDS}")
        # built symmetric entry by entry; anything else is a programming error
        assert np.array_equal(m, m.T)
        object.__setattr__(self, "matrix", m)


def loglik(dp, data):
    """Log-likelihood of the dataset; the constant is -log 2 pi per row."""
    validate(dp)
    return float(np.sum(_log_density_arrays(dp, data.y1, data.y2)))


def _score_rows(dp, y1, y2):
    """Per-observation score: row k is the gradient of the log density at
    (y1[k], y2[k]), ordered as theta; dp assumed validated.

    Returns
    -------
    ndarray (n, 8)
        Column-major, so each column is contiguous and sums pairwise.
    """
    a1, a2, tau = dp.alpha1, dp.alpha2, dp.tau
    o1 = math.sqrt(dp.omega11)
    o2 = math.sqrt(dp.omega22)
    lam = _lam(dp)
    u = 1.0 / (1.0 - lam * lam)
    astar2 = _alpha_star_sq(lam, a1, a2)
    den = math.sqrt(1.0 + astar2)
    den_m1 = astar2 / (1.0 + den)
    z1 = (np.asarray(y1, dtype=float) - dp.xi1) / o1
    z2 = (np.asarray(y2, dtype=float) - dp.xi2) / o2
    # the tau score den zeta1(t) - zeta1(tau) vanishes as alpha -> 0, so
    # both t - tau and the zeta1 difference are formed without cancellation
    zeta1, zeta1_diff = zeta1_pair(tau, tau * den_m1 + a1 * z1 + a2 * z2)

    w = (z1 ** 2 + z2 ** 2 - 2.0 * z1 * z2 * lam) * lam * u * u
    s = np.empty((8, len(z1)))
    s[0] = ((z1 - lam * z2) * u - a1 * zeta1) / o1
    s[1] = ((z2 - lam * z1) * u - a2 * zeta1) / o2
    s[2] = (w * lam + (z1 ** 2 - 2.0 * z1 * z2 * lam - 1.0) * u
            - (a1 * a2 * lam * tau / den + a1 * z1) * zeta1
            ) / (2.0 * dp.omega11)
    s[3] = ((lam + z1 * z2) * u - w
            + a1 * a2 * tau * zeta1 / den) / (o1 * o2)
    s[4] = (w * lam + (z2 ** 2 - 2.0 * z1 * z2 * lam - 1.0) * u
            - (a1 * a2 * lam * tau / den + a2 * z2) * zeta1
            ) / (2.0 * dp.omega22)
    s[5] = ((a1 + a2 * lam) * tau / den + z1) * zeta1
    s[6] = ((a2 + a1 * lam) * tau / den + z2) * zeta1
    s[7] = den_m1 * zeta1 + zeta1_diff
    return s.T


def score(dp, data):
    """Analytic score vector, summed over the dataset.

    Returns
    -------
    ndarray (8,)
        Partial derivatives of ``loglik`` ordered as theta.
    """
    validate(dp)
    return _score_rows(dp, data.y1, data.y2).sum(axis=0)


def _hessian_terms(dp, y1, y2):
    """Per-observation second derivatives of the log density.

    Returns a dict mapping the 36 upper-triangle index pairs (r, c),
    0-based, to length-n arrays.  Summing an array gives the (r, c)
    hessian entry for the whole dataset; negating gives the observed
    information.  Kept per-observation so Monte Carlo users can form
    entrywise standard errors.
    """
    a1, a2, tau = dp.alpha1, dp.alpha2, dp.tau
    O11, O22 = dp.omega11, dp.omega22
    o1 = math.sqrt(O11)
    o2 = math.sqrt(O22)
    o12 = o1 * o2
    rt11 = O11 * o1
    rt22 = O22 * o2
    lam = _lam(dp)
    u = 1.0 / (1.0 - lam * lam)
    astar2 = _alpha_star_sq(lam, a1, a2)
    den = math.sqrt(1.0 + astar2)

    z1 = (np.asarray(y1, dtype=float) - dp.xi1) / o1
    z2 = (np.asarray(y2, dtype=float) - dp.xi2) / o2
    t = tau * den + a1 * z1 + a2 * z2
    zeta1 = zeta(1, t)
    zeta2 = zeta(2, t)
    zeta2_tau = zeta(2, tau)

    quad = z1 ** 2 + z2 ** 2 - 2.0 * z1 * z2 * lam
    w1 = a1 * a2 * lam * tau / den + a1 * z1
    w2 = a1 * a2 * lam * tau / den + a2 * z2
    d1 = (a1 + lam * a2) * tau / den + z1
    d2 = (a2 + lam * a1) * tau / den + z2

    h = {}
    h[0, 0] = (-1.0 / O11) * (u - a1 ** 2 * zeta2)
    h[0, 1] = (1.0 / o12) * (lam * u + a1 * a2 * zeta2)
    h[0, 2] = ((lam * z2 - z1) * u * u / rt11
               + (a1 / (2.0 * rt11)) * w1 * zeta2
               + (a1 / (2.0 * rt11)) * zeta1)
    h[0, 3] = (-2.0 * lam * (lam * z2 - z1) * u * u / (O11 * o2)
               - z2 * u / (O11 * o2)
               - (a1 ** 2 * a2 * tau / (O11 * o2 * den)) * zeta2)
    h[0, 4] = (lam * (z2 - z1 * lam) * u * u / (O22 * o1)
               + (a1 / (2.0 * O22 * o1)) * w2 * zeta2)
    h[0, 5] = -(a1 / o1) * d1 * zeta2 - zeta1 / o1
    h[0, 6] = -(a1 / o1) * d2 * zeta2
    h[0, 7] = -(a1 * den / o1) * zeta2

    h[1, 1] = (-1.0 / O22) * (u - a2 ** 2 * zeta2)
    h[1, 2] = (lam * (z1 - z2 * lam) * u * u / (O11 * o2)
               + (a2 / (2.0 * O11 * o2)) * w1 * zeta2)
    h[1, 3] = (-2.0 * lam * (lam * z1 - z2) * u * u / (O22 * o1)
               - z1 * u / (O22 * o1)
               - (a2 ** 2 * a1 * tau / (O22 * o1 * den)) * zeta2)
    h[1, 4] = ((lam * z1 - z2) * u * u / rt22
               + (a2 / (2.0 * rt22)) * w2 * zeta2
               + (a2 / (2.0 * rt22)) * zeta1)
    h[1, 5] = -(a2 / o2) * d1 * zeta2
    h[1, 6] = -(a2 / o2) * d2 * zeta2 - zeta1 / o2
    h[1, 7] = -(a2 * den / o2) * zeta2

    h[2, 2] = ((lam ** 2 - z1 ** 2 + 2.0 * z1 * z2 * lam) * u / O11 ** 2
               + (4.0 * lam ** 3 * z1 * z2 - 2.0 * lam ** 2 * z1 ** 2
                  - lam ** 2 * z2 ** 2) * u * u / O11 ** 2
               - lam ** 4 * quad * u ** 3 / O11 ** 2
               + 1.0 / (2.0 * O11 ** 2)
               + lam ** 4 * u * u / (2.0 * O11 ** 2)
               + (1.0 / (4.0 * O11 ** 2))
               * (3.0 * a1 * a2 * tau * lam / den
                  - a1 ** 2 * a2 ** 2 * tau * lam ** 2 / den ** 3
                  + 3.0 * a1 * z1) * zeta1
               + (1.0 / (4.0 * O11 ** 2)) * w1 ** 2 * zeta2)
    h[2, 3] = (-(lam + z1 * z2) * u / (rt11 * o2)
               + (2.0 * lam * z1 ** 2 + lam * z2 ** 2
                  - 5.0 * lam ** 2 * z1 * z2 - lam ** 3) * u * u / (rt11 * o2)
               + 2.0 * lam ** 3 * quad * u ** 3 / (rt11 * o2)
               + (a1 ** 2 * a2 ** 2 * tau * lam / (2.0 * rt11 * o2 * den ** 3)
                  - a1 * a2 * tau / (2.0 * rt11 * o2 * den)) * zeta1
               - (a1 * a2 * tau / (2.0 * rt11 * o2 * den)) * w1 * zeta2)
    h[2, 4] = (lam ** 2 * (6.0 * lam * z1 * z2 - 2.0 * z1 ** 2
                           - 2.0 * z2 ** 2 + lam ** 2) * u * u
               / (2.0 * O11 * O22)
               + (2.0 * z1 * z2 * lam + lam ** 2) * u / (2.0 * O11 * O22)
               - lam ** 4 * quad * u ** 3 / (O11 * O22)
               + (a1 * a2 * lam * tau / (4.0 * O11 * O22 * den))
               * (1.0 - a1 * a2 * lam / (1.0 + astar2)) * zeta1
               + (1.0 / (4.0 * O11 * O22)) * w1 * w2 * zeta2)
    h[2, 5] = ((1.0 / (2.0 * O11))
               * (a1 * a2 * lam * (a2 * lam + a1) * tau / den ** 3
                  - a2 * lam * tau / den - z1) * zeta1
               - (1.0 / (2.0 * O11)) * w1 * d1 * zeta2)
    h[2, 6] = ((1.0 / (2.0 * O11))
               * (a1 * a2 * lam * (a1 * lam + a2) * tau / den ** 3
                  - a1 * lam * tau / den) * zeta1
               - (1.0 / (2.0 * O11)) * w1 * d2 * zeta2)
    h[2, 7] = (-(a1 * a2 * lam / (2.0 * O11 * den)) * zeta1
               - (den / (2.0 * O11)) * w1 * zeta2)

    h[3, 3] = (u / (O11 * O22)
               + (6.0 * lam * z1 * z2 - z1 ** 2 - z2 ** 2
                  + 2.0 * lam ** 2) * u * u / (O11 * O22)
               - 4.0 * lam ** 2 * quad * u ** 3 / (O11 * O22)
               + (a1 ** 2 * a2 ** 2 * tau / (O11 * O22 * den ** 2))
               * (tau * zeta2 - zeta1 / den))
    h[3, 4] = (-(lam + z1 * z2) * u / (rt22 * o1)
               + (2.0 * lam * z2 ** 2 + lam * z1 ** 2
                  - 5.0 * lam ** 2 * z1 * z2 - lam ** 3) * u * u / (rt22 * o1)
               + 2.0 * lam ** 3 * quad * u ** 3 / (rt22 * o1)
               + (a1 ** 2 * a2 ** 2 * tau * lam / (2.0 * rt22 * o1 * den ** 3)
                  - a1 * a2 * tau / (2.0 * rt22 * o1 * den)) * zeta1
               - (a1 * a2 * tau / (2.0 * rt22 * o1 * den)) * w2 * zeta2)
    h[3, 5] = ((a2 * tau / (o12 * den))
               * (1.0 - a1 * (a2 * lam + a1) / den ** 2) * zeta1
               + (a1 * a2 * tau / (o12 * den)) * d1 * zeta2)
    h[3, 6] = ((a1 * tau / (o12 * den))
               * (1.0 - a2 * (a1 * lam + a2) / den ** 2) * zeta1
               + (a1 * a2 * tau / (o12 * den)) * d2 * zeta2)
    h[3, 7] = (a1 * a2 / o12) * (zeta1 / den + tau * zeta2)

    h[4, 4] = ((lam ** 2 - z2 ** 2 + 2.0 * z1 * z2 * lam) * u / O22 ** 2
               + (4.0 * lam ** 3 * z1 * z2 - 2.0 * lam ** 2 * z2 ** 2
                  - lam ** 2 * z1 ** 2) * u * u / O22 ** 2
               - lam ** 4 * quad * u ** 3 / O22 ** 2
               + 1.0 / (2.0 * O22 ** 2)
               + lam ** 4 * u * u / (2.0 * O22 ** 2)
               + (1.0 / (4.0 * O22 ** 2))
               * (3.0 * a1 * a2 * tau * lam / den
                  - a1 ** 2 * a2 ** 2 * tau * lam ** 2 / den ** 3
                  + 3.0 * a2 * z2) * zeta1
               + (1.0 / (4.0 * O22 ** 2)) * w2 ** 2 * zeta2)
    h[4, 5] = ((1.0 / (2.0 * O22))
               * (a1 * a2 * lam * (a2 * lam + a1) * tau / den ** 3
                  - a2 * lam * tau / den) * zeta1
               - (1.0 / (2.0 * O22)) * w2 * d1 * zeta2)
    h[4, 6] = ((1.0 / (2.0 * O22))
               * (a1 * a2 * lam * (a1 * lam + a2) * tau / den ** 3
                  - a1 * lam * tau / den - z2) * zeta1
               - (1.0 / (2.0 * O22)) * w2 * d2 * zeta2)
    h[4, 7] = (-(a1 * a2 * lam / (2.0 * O22 * den)) * zeta1
               - (den / (2.0 * O22)) * w2 * zeta2)

    h[5, 5] = ((tau / den - (a2 * lam + a1) ** 2 * tau / den ** 3) * zeta1
               + d1 ** 2 * zeta2)
    h[5, 6] = ((lam * tau / den
                - (a2 + lam * a1) * (a1 + lam * a2) * tau / den ** 3) * zeta1
               + d1 * d2 * zeta2)
    h[5, 7] = ((a1 + lam * a2) / den) * zeta1 + d1 * den * zeta2
    h[6, 6] = ((tau / den - (a1 * lam + a2) ** 2 * tau / den ** 3) * zeta1
               + d2 ** 2 * zeta2)
    h[6, 7] = ((a2 + lam * a1) / den) * zeta1 + d2 * den * zeta2
    h[7, 7] = den ** 2 * zeta2 - zeta2_tau
    return h


def observed_info(dp, data):
    """Observed information (negated hessian) summed over the dataset."""
    validate(dp)
    terms = _hessian_terms(dp, data.y1, data.y2)
    info = np.empty((8, 8))
    for (r, c), values in terms.items():
        entry = -float(np.sum(values))
        info[r, c] = entry
        info[c, r] = entry
    return InfoMatrix(matrix=info, kind="observed")


@dataclass(frozen=True)
class FitControls:
    grad_tol: float = 1e-6
    max_iter: int = 500


@dataclass(frozen=True)
class FitResult:
    dp_hat: DpParams
    converged: bool
    final_score_norm: float
    loglik: float


def _to_internal(dp):
    # (xi1, xi2, log O11, atanh lam, log O22, alpha1, alpha2, tau):
    # unconstrained, and every point maps back to a valid dp
    return np.array([dp.xi1, dp.xi2, math.log(dp.omega11),
                     math.atanh(_lam(dp)), math.log(dp.omega22),
                     dp.alpha1, dp.alpha2, dp.tau])


def _from_internal(psi):
    o11 = math.exp(psi[2])
    o22 = math.exp(psi[4])
    lam = math.tanh(psi[3])
    return DpParams(psi[0], psi[1], o11, lam * math.sqrt(o11 * o22), o22,
                    psi[5], psi[6], psi[7])


def _internal_grad(dp, grad_theta):
    """Chain rule from theta-gradient to internal-coordinate gradient."""
    lam = _lam(dp)
    g = np.array(grad_theta, dtype=float, copy=True)
    # omega12 = tanh(psi3) sqrt(omega11 omega22) moves with all three of
    # psi2, psi3, psi4
    g2 = grad_theta[2] * dp.omega11 + grad_theta[3] * 0.5 * dp.omega12
    g3 = grad_theta[3] * (1.0 - lam * lam) * math.sqrt(dp.omega11 * dp.omega22)
    g4 = grad_theta[4] * dp.omega22 + grad_theta[3] * 0.5 * dp.omega12
    g[2], g[3], g[4] = g2, g3, g4
    return g


def fit_mle(data, init, controls=FitControls()):
    """Maximum likelihood fit by quasi-Newton ascent with analytic score.

    BFGS runs in unconstrained internal coordinates so every iterate has
    a positive definite scale matrix; a Newton polish in theta
    coordinates then drives the score norm below ``controls.grad_tol``.

    Returns
    -------
    FitResult
        ``converged`` is False when the score norm target was not met;
        no exception is raised for that.
    """
    validate(init)
    if data.n < 5:
        raise ValueError(f"need at least 5 observations to fit, got {data.n}")

    best = {"value": -loglik(init, data), "psi": _to_internal(init)}

    def objective(psi):
        try:
            dp = validate(_from_internal(psi))
        except (ValueError, OverflowError):
            return np.inf, np.zeros(8)
        value = -loglik(dp, data)
        if value < best["value"]:
            best["value"] = value
            best["psi"] = psi.copy()
        return value, -_internal_grad(dp, score(dp, data))

    scipy.optimize.minimize(
        objective, _to_internal(init), jac=True, method="BFGS",
        options={"maxiter": controls.max_iter,
                 "gtol": 0.01 * controls.grad_tol})

    dp = validate(_from_internal(best["psi"]))
    norm = float(np.max(np.abs(score(dp, data))))
    for _ in range(50):
        if norm < controls.grad_tol:
            break
        try:
            step = np.linalg.solve(observed_info(dp, data).matrix,
                                   score(dp, data))
        except np.linalg.LinAlgError:
            break
        accepted = False
        scale = 1.0
        for _ in range(30):
            try:
                cand = validate(DpParams.from_array(dp.as_array()
                                                    + scale * step))
            except ValueError:
                scale *= 0.5
                continue
            cand_norm = float(np.max(np.abs(score(cand, data))))
            if cand_norm < norm:
                dp, norm = cand, cand_norm
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break

    # the polish tracks the score norm, not the objective; never return a
    # point below the best one the line searches saw
    if -loglik(dp, data) > best["value"] + 1e-9 * (1.0 + abs(best["value"])):
        dp = validate(_from_internal(best["psi"]))
        norm = float(np.max(np.abs(score(dp, data))))

    return FitResult(dp_hat=dp, converged=norm < controls.grad_tol,
                     final_score_norm=norm, loglik=loglik(dp, data))

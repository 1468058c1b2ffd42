"""Density, log-likelihood, analytic score, and observed information.

Every per-observation quantity comes from one kernel, `_kernel`.  It takes
the standardized residuals, runs the zeta ladder once, and returns the log
density, score rows and hessian rows, as far as the order asked for.
density_esn2, loglik, score, observed_info and fit_mle sum or exponentiate
its output; the Gram rule of expected_info and the Monte Carlo oracle in
validation read its rows.

All derivatives are taken with respect to the direct parameter vector
theta = (xi1, xi2, omega11, omega12, omega22, alpha1, alpha2, tau).  The
observed information is the hessian of the log-likelihood with the sign
reversed, so away from the maximum it need not be positive definite.

Shared shorthand, per observation: u = 1/(1 - lam^2), den = sqrt(1 +
alpha_star^2), t = alpha0 + alpha1 z1 + alpha2 z2 = tau + h, and quad =
z1^2 + z2^2 - 2 lam z1 z2.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .model import DpParams, _alpha_star_sq, _lam, _residuals, validate
# zeta is not called here; bench/ reads it as esn2.likelihood.zeta
from .special_fns import zeta, zeta_pair  # noqa: F401

LOG_2PI = math.log(2.0 * math.pi)

_INFO_KINDS = ("observed", "expected")

# rows per kernel call when only row sums are wanted.  Bounded blocks keep
# the kernel's temporaries small: on a 2-core Xeon, one call over 2e5 rows
# took about twice as long per row as blocks of this size, mostly in page
# faults on them, and blocks of 8192 paid more in per-call overhead
_ROWS = 32768

# the 36 hessian entries (r, c), r <= c, as kernel columns: _COL[r, c] and
# _COL[c, r] both index entry (r, c), so h[_COL] is the symmetric matrix
_UPPER = np.triu_indices(8)
_COL = np.empty((8, 8), dtype=int)
_COL[_UPPER] = _COL[_UPPER[::-1]] = np.arange(36)


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


def _kernel(dp, z1, z2, order):
    """Per-observation log density and, by order, its derivatives.

    z1 and z2 are 1-d arrays of standardized residuals (see
    ``model._residuals``); dp is assumed validated.  t and h = t - tau are
    formed once, and the zeta ladder runs once over them.

    Returns
    -------
    list of ndarray
        The log density (n,); with order >= 1 the score rows (n, 8),
        ordered as theta; with order 2 the hessian rows (n, 36), column
        _COL[r, c] holding entry (r, c).  Columns are contiguous, so each
        sums pairwise.
    """
    a1, a2, tau = dp.alpha1, dp.alpha2, dp.tau
    O11, O22 = dp.omega11, dp.omega22
    o1 = math.sqrt(O11)
    o2 = math.sqrt(O22)
    lam = _lam(dp)
    u = 1.0 / (1.0 - lam * lam)
    astar2 = _alpha_star_sq(lam, a1, a2)
    den = math.sqrt(1.0 + astar2)
    den_m1 = astar2 / (1.0 + den)
    # the tau derivatives vanish as alpha -> 0, so t - tau and the zeta
    # differences across it are formed without cancellation
    at, diff = zeta_pair(tau, tau * den_m1 + a1 * z1 + a2 * z2, order)
    z1sq, z2sq, z12 = z1 * z1, z2 * z2, z1 * z2
    quad = z1sq + z2sq - 2.0 * lam * z12
    out = [-LOG_2PI
           - 0.5 * (math.log(O11) + math.log(O22) + math.log1p(-lam * lam))
           - 0.5 * u * quad + diff[0]]
    if order == 0:
        return out

    zeta1 = at[1]
    w = quad * lam * u * u
    w1 = a1 * a2 * lam * tau / den + a1 * z1
    w2 = a1 * a2 * lam * tau / den + a2 * z2
    d1 = (a1 + lam * a2) * tau / den + z1
    d2 = (a2 + lam * a1) * tau / den + z2
    s = np.empty((8, len(z1)))
    s[0] = ((z1 - lam * z2) * u - a1 * zeta1) / o1
    s[1] = ((z2 - lam * z1) * u - a2 * zeta1) / o2
    s[2] = (w * lam + (z1sq - 2.0 * z12 * lam - 1.0) * u
            - w1 * zeta1) / (2.0 * O11)
    s[3] = ((lam + z12) * u - w
            + a1 * a2 * tau * zeta1 / den) / (o1 * o2)
    s[4] = (w * lam + (z2sq - 2.0 * z12 * lam - 1.0) * u
            - w2 * zeta1) / (2.0 * O22)
    s[5] = d1 * zeta1
    s[6] = d2 * zeta1
    s[7] = den_m1 * zeta1 + diff[1]
    out.append(s.T)
    if order == 1:
        return out

    zeta2 = at[2]
    # products with zeta2 that several entries share
    w1z, w2z, d1z, d2z = w1 * zeta2, w2 * zeta2, d1 * zeta2, d2 * zeta2
    o12 = o1 * o2
    rt11 = O11 * o1
    rt22 = O22 * o2
    h = np.empty((36, len(z1)))
    k = _COL
    h[k[0, 0]] = (-1.0 / O11) * (u - a1 ** 2 * zeta2)
    h[k[0, 1]] = (1.0 / o12) * (lam * u + a1 * a2 * zeta2)
    h[k[0, 2]] = ((lam * z2 - z1) * u * u / rt11
                  + (a1 / (2.0 * rt11)) * w1z
                  + (a1 / (2.0 * rt11)) * zeta1)
    h[k[0, 3]] = (-2.0 * lam * (lam * z2 - z1) * u * u / (O11 * o2)
                  - z2 * u / (O11 * o2)
                  - (a1 ** 2 * a2 * tau / (O11 * o2 * den)) * zeta2)
    h[k[0, 4]] = (lam * (z2 - z1 * lam) * u * u / (O22 * o1)
                  + (a1 / (2.0 * O22 * o1)) * w2z)
    h[k[0, 5]] = -(a1 / o1) * d1z - zeta1 / o1
    h[k[0, 6]] = -(a1 / o1) * d2z
    h[k[0, 7]] = -(a1 * den / o1) * zeta2

    h[k[1, 1]] = (-1.0 / O22) * (u - a2 ** 2 * zeta2)
    h[k[1, 2]] = (lam * (z1 - z2 * lam) * u * u / (O11 * o2)
                  + (a2 / (2.0 * O11 * o2)) * w1z)
    h[k[1, 3]] = (-2.0 * lam * (lam * z1 - z2) * u * u / (O22 * o1)
                  - z1 * u / (O22 * o1)
                  - (a2 ** 2 * a1 * tau / (O22 * o1 * den)) * zeta2)
    h[k[1, 4]] = ((lam * z1 - z2) * u * u / rt22
                  + (a2 / (2.0 * rt22)) * w2z
                  + (a2 / (2.0 * rt22)) * zeta1)
    h[k[1, 5]] = -(a2 / o2) * d1z
    h[k[1, 6]] = -(a2 / o2) * d2z - zeta1 / o2
    h[k[1, 7]] = -(a2 * den / o2) * zeta2

    h[k[2, 2]] = ((lam ** 2 - z1sq + 2.0 * z12 * lam) * u / O11 ** 2
                  + (4.0 * lam ** 3 * z12 - 2.0 * lam ** 2 * z1sq
                     - lam ** 2 * z2sq) * u * u / O11 ** 2
                  - lam ** 4 * quad * u ** 3 / O11 ** 2
                  + 1.0 / (2.0 * O11 ** 2)
                  + lam ** 4 * u * u / (2.0 * O11 ** 2)
                  + (1.0 / (4.0 * O11 ** 2))
                  * (3.0 * a1 * a2 * tau * lam / den
                     - a1 ** 2 * a2 ** 2 * tau * lam ** 2 / den ** 3
                     + 3.0 * a1 * z1) * zeta1
                  + (1.0 / (4.0 * O11 ** 2)) * w1 * w1z)
    h[k[2, 3]] = (-(lam + z12) * u / (rt11 * o2)
                  + (2.0 * lam * z1sq + lam * z2sq
                     - 5.0 * lam ** 2 * z12 - lam ** 3)
                  * u * u / (rt11 * o2)
                  + 2.0 * lam ** 3 * quad * u ** 3 / (rt11 * o2)
                  + (a1 ** 2 * a2 ** 2 * tau * lam
                     / (2.0 * rt11 * o2 * den ** 3)
                     - a1 * a2 * tau / (2.0 * rt11 * o2 * den)) * zeta1
                  - (a1 * a2 * tau / (2.0 * rt11 * o2 * den)) * w1z)
    h[k[2, 4]] = (lam ** 2 * (6.0 * lam * z12 - 2.0 * z1sq
                              - 2.0 * z2sq + lam ** 2) * u * u
                  / (2.0 * O11 * O22)
                  + (2.0 * z12 * lam + lam ** 2) * u / (2.0 * O11 * O22)
                  - lam ** 4 * quad * u ** 3 / (O11 * O22)
                  + (a1 * a2 * lam * tau / (4.0 * O11 * O22 * den))
                  * (1.0 - a1 * a2 * lam / (1.0 + astar2)) * zeta1
                  + (1.0 / (4.0 * O11 * O22)) * w1 * w2z)
    h[k[2, 5]] = ((1.0 / (2.0 * O11))
                  * (a1 * a2 * lam * (a2 * lam + a1) * tau / den ** 3
                     - a2 * lam * tau / den - z1) * zeta1
                  - (1.0 / (2.0 * O11)) * w1 * d1z)
    h[k[2, 6]] = ((1.0 / (2.0 * O11))
                  * (a1 * a2 * lam * (a1 * lam + a2) * tau / den ** 3
                     - a1 * lam * tau / den) * zeta1
                  - (1.0 / (2.0 * O11)) * w1 * d2z)
    h[k[2, 7]] = (-(a1 * a2 * lam / (2.0 * O11 * den)) * zeta1
                  - (den / (2.0 * O11)) * w1z)

    h[k[3, 3]] = (u / (O11 * O22)
                  + (6.0 * lam * z12 - z1sq - z2sq
                     + 2.0 * lam ** 2) * u * u / (O11 * O22)
                  - 4.0 * lam ** 2 * quad * u ** 3 / (O11 * O22)
                  + (a1 ** 2 * a2 ** 2 * tau / (O11 * O22 * den ** 2))
                  * (tau * zeta2 - zeta1 / den))
    h[k[3, 4]] = (-(lam + z12) * u / (rt22 * o1)
                  + (2.0 * lam * z2sq + lam * z1sq
                     - 5.0 * lam ** 2 * z12 - lam ** 3)
                  * u * u / (rt22 * o1)
                  + 2.0 * lam ** 3 * quad * u ** 3 / (rt22 * o1)
                  + (a1 ** 2 * a2 ** 2 * tau * lam
                     / (2.0 * rt22 * o1 * den ** 3)
                     - a1 * a2 * tau / (2.0 * rt22 * o1 * den)) * zeta1
                  - (a1 * a2 * tau / (2.0 * rt22 * o1 * den)) * w2z)
    h[k[3, 5]] = ((a2 * tau / (o12 * den))
                  * (1.0 - a1 * (a2 * lam + a1) / den ** 2) * zeta1
                  + (a1 * a2 * tau / (o12 * den)) * d1z)
    h[k[3, 6]] = ((a1 * tau / (o12 * den))
                  * (1.0 - a2 * (a1 * lam + a2) / den ** 2) * zeta1
                  + (a1 * a2 * tau / (o12 * den)) * d2z)
    h[k[3, 7]] = (a1 * a2 / o12) * (zeta1 / den + tau * zeta2)

    h[k[4, 4]] = ((lam ** 2 - z2sq + 2.0 * z12 * lam) * u / O22 ** 2
                  + (4.0 * lam ** 3 * z12 - 2.0 * lam ** 2 * z2sq
                     - lam ** 2 * z1sq) * u * u / O22 ** 2
                  - lam ** 4 * quad * u ** 3 / O22 ** 2
                  + 1.0 / (2.0 * O22 ** 2)
                  + lam ** 4 * u * u / (2.0 * O22 ** 2)
                  + (1.0 / (4.0 * O22 ** 2))
                  * (3.0 * a1 * a2 * tau * lam / den
                     - a1 ** 2 * a2 ** 2 * tau * lam ** 2 / den ** 3
                     + 3.0 * a2 * z2) * zeta1
                  + (1.0 / (4.0 * O22 ** 2)) * w2 * w2z)
    h[k[4, 5]] = ((1.0 / (2.0 * O22))
                  * (a1 * a2 * lam * (a2 * lam + a1) * tau / den ** 3
                     - a2 * lam * tau / den) * zeta1
                  - (1.0 / (2.0 * O22)) * w2 * d1z)
    h[k[4, 6]] = ((1.0 / (2.0 * O22))
                  * (a1 * a2 * lam * (a1 * lam + a2) * tau / den ** 3
                     - a1 * lam * tau / den - z2) * zeta1
                  - (1.0 / (2.0 * O22)) * w2 * d2z)
    h[k[4, 7]] = (-(a1 * a2 * lam / (2.0 * O22 * den)) * zeta1
                  - (den / (2.0 * O22)) * w2z)

    h[k[5, 5]] = ((tau / den - (a2 * lam + a1) ** 2 * tau / den ** 3) * zeta1
                  + d1 * d1z)
    h[k[5, 6]] = ((lam * tau / den
                   - (a2 + lam * a1) * (a1 + lam * a2) * tau / den ** 3)
                  * zeta1 + d1 * d2z)
    h[k[5, 7]] = ((a1 + lam * a2) / den) * zeta1 + den * d1z
    h[k[6, 6]] = ((tau / den - (a1 * lam + a2) ** 2 * tau / den ** 3) * zeta1
                  + d2 * d2z)
    h[k[6, 7]] = ((a2 + lam * a1) / den) * zeta1 + den * d2z
    # den^2 zeta2(t) - zeta2(tau), which also vanishes as alpha -> 0
    h[k[7, 7]] = astar2 * zeta2 + diff[2]
    out.append(h.T)
    return out


def _sums(dp, data, order):
    """The kernel's outputs at dp, summed over data, _ROWS rows a call."""
    z1, z2 = _residuals(dp, data.y1, data.y2)
    blocks = [[r.sum(axis=0) for r in _kernel(dp, z1[lo:lo + _ROWS],
                                              z2[lo:lo + _ROWS], order)]
              for lo in range(0, data.n, _ROWS)]
    return [sum(parts) for parts in zip(*blocks)]


def density_esn2(y1, y2, dp):
    """Bivariate density at (y1, y2); accepts scalars or ndarrays."""
    validate(dp)
    z1, z2 = np.broadcast_arrays(*_residuals(dp, y1, y2))
    out = np.exp(_kernel(dp, z1.ravel(), z2.ravel(), 0)[0]).reshape(z1.shape)
    return float(out) if out.ndim == 0 else out


def loglik(dp, data):
    """Log-likelihood of the dataset; the constant is -log 2 pi per row."""
    validate(dp)
    return float(_sums(dp, data, 0)[0])


def score(dp, data):
    """Analytic score vector, summed over the dataset.

    Returns
    -------
    ndarray (8,)
        Partial derivatives of ``loglik`` ordered as theta.
    """
    validate(dp)
    return _sums(dp, data, 1)[1]


def observed_info(dp, data):
    """Observed information (negated hessian) summed over the dataset."""
    validate(dp)
    return InfoMatrix(matrix=-_sums(dp, data, 2)[2][_COL], kind="observed")


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
        value, grad = _sums(dp, data, 1)
        value = -float(value)
        if value < best["value"]:
            best["value"] = value
            best["psi"] = psi.copy()
        return value, -_internal_grad(dp, grad)

    scipy.optimize.minimize(
        objective, _to_internal(init), jac=True, method="BFGS",
        options={"maxiter": controls.max_iter,
                 "gtol": 0.01 * controls.grad_tol})

    # an iterate's value, score and hessian come from the one kernel call
    # that tried its point in the line search
    dp = validate(_from_internal(best["psi"]))
    value, grad, hess = _sums(dp, data, 2)
    norm = float(np.max(np.abs(grad)))
    for _ in range(50):
        if norm < controls.grad_tol:
            break
        try:
            step = np.linalg.solve(-hess[_COL], grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(30):
            try:
                cand = validate(DpParams.from_array(dp.as_array()
                                                    + scale * step))
            except ValueError:
                scale *= 0.5
                continue
            sums = _sums(cand, data, 2)
            cand_norm = float(np.max(np.abs(sums[1])))
            if cand_norm < norm:
                dp, norm = cand, cand_norm
                value, grad, hess = sums
                break
            scale *= 0.5
        else:
            break

    # the polish tracks the score norm, not the objective; never return a
    # point below the best one the line searches saw
    if -value > best["value"] + 1e-9 * (1.0 + abs(best["value"])):
        dp = validate(_from_internal(best["psi"]))
        value, grad = _sums(dp, data, 1)
        norm = float(np.max(np.abs(grad)))

    return FitResult(dp_hat=dp, converged=norm < controls.grad_tol,
                     final_score_norm=norm, loglik=float(value))

"""Density, log-likelihood, analytic score, and observed information.

What one dp determines is built once into a cached record,
`_coefficients(dp)`, with the coefficient set on the basis b = (1, z1, z2,
z1^2, z2^2, z1 z2, zeta1(t), z1 zeta1(t), z2 zeta1(t)): the score is
s_coef @ b, and the hessian H_N + zeta1(t) grad^2 t + zeta2(t) grad t
grad t', H_N the bivariate normal part, is lin @ b plus the zeta2 term.
The record holds what the log density reads and builds s_coef and lin on
first use, so order-0 callers pay for neither and only order-2 callers
pay for lin.

`_kernel` runs the zeta ladder once over the standardized residuals and
returns the log density, the score rows and at order 2 the hessian rows,
for the callers that need each observation: the Gram rule of
expected_info and the Monte Carlo oracle in validation.  density_esn2
reads the log density alone, from `_log_density`.

loglik, score, observed_info and fit_mle go through `_sums` instead.  It
sums the log density per row as the kernel forms it, and per block the
sums of b and the zeta2 term summed over the block's rows, without
forming a derivative row.  One contraction, `_contract`, applies s_coef
and lin, and writes the tau entries, for the kernel's rows, for these
sums and for the paper's expectations in expected_info._assemble; a test
holds that E[-H] to the Gram rule's E[s s'], read from the score rows.

All derivatives are taken with respect to the direct parameter vector
theta = (xi1, xi2, omega11, omega12, omega22, alpha1, alpha2, tau).  The
observed information is the hessian of the log-likelihood with the sign
reversed, so away from the maximum it need not be positive definite.

Shared shorthand, per observation: u = 1/(1 - lam^2), den = sqrt(1 +
alpha_star^2), t = alpha0 + alpha1 z1 + alpha2 z2 = tau + h, and quad =
z1^2 + z2^2 - 2 lam z1 z2.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import DpParams, _alpha_star_sq, _lam, _residuals, validate
# zeta is not called here; bench/ reads it as esn2.likelihood.zeta
from .special_fns import zeta, zeta_pair  # noqa: F401

LOG_2PI = math.log(2.0 * math.pi)

_INFO_KINDS = ("observed", "expected")

# rows per block of _sums.  Bounded blocks keep the ladder's temporaries
# small: on a 2-core Xeon, one call over 2e5 rows took about twice as long
# per row as blocks of this size, mostly in page faults on them, and blocks
# of 8192 paid more in per-call overhead
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


def _sym(a, b):
    return np.outer(a, b) + np.outer(b, a)


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """What the likelihood needs of one dp; built by `_coefficients`.

    The fields are what the log density reads.  The derivative
    coefficients, s_coef and lin, are built on first use, so only the
    callers that read them pay for them.
    """
    dp: DpParams
    lam: float
    # 1 / (1 - lam^2)
    u: float
    astar2: float
    # den - 1, without cancellation as alpha_star -> 0
    den_m1: float
    # the log density's constant, -log 2 pi - log det Omega / 2
    log_norm: float

    @functools.cached_property
    def _chain(self):
        """What s_coef and lin differentiate: var, o, a, the 8x8 identity,
        den, P = Omega^-1, P E_k, P E_k P, dw, d lam, d alpha_star^2 and
        d den, with dOmega / d omega_k = E_k."""
        dp, lam = self.dp, self.lam
        var = np.array([dp.omega11, dp.omega22])
        o = np.sqrt(var)
        a = np.array([dp.alpha1, dp.alpha2])
        den = math.sqrt(1.0 + self.astar2)
        e = np.eye(8)
        c = -lam / (o[0] * o[1])
        p = (np.array([[1.0 / var[0], c], [c, 1.0 / var[1]]])
             / (1.0 - lam * lam))
        pe = p @ np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                           [[0.0, 0.0], [0.0, 1.0]]])
        pep = pe @ p
        # lam = omega12 exp(w), with w = -log(omega11 omega22) / 2
        dw = np.zeros(8)
        dw[[2, 4]] = -0.5 / var
        d_lam = e[3] / (o[0] * o[1]) + lam * dw
        # alpha_star^2 = alpha1^2 + alpha2^2 + 2 lam alpha1 alpha2
        d_as = 2.0 * a[0] * a[1] * d_lam
        d_as[5:7] += 2.0 * (a + lam * a[::-1])
        d_den = d_as / (2.0 * den)
        return var, o, a, e, den, p, pe, pep, dw, d_lam, d_as, d_den

    @functools.cached_property
    def s_coef(self):
        """The score on the basis b = (1, z1, z2, z1^2, z2^2, z1 z2, zeta1,
        z1 zeta1, z2 zeta1), (8, 9), read-only: the gradient of H_N's log
        density in the first six columns and grad t, the coefficient of
        zeta1, in the last three, so grad t = s_coef[:, 6:] @ (1, z1, z2).
        The tau entry is den zeta1(t), which the caller forms less
        zeta1(tau).  Built on first use: loglik and density_esn2 never read
        it."""
        var, o, a, e, den, p, pe, pep, _, _, _, d_den = self._chain
        # the gradient of H_N's log density: P r at xi and, with [k, i, j]
        # the coefficient of z_i z_j, r' P E_k P r / 2 - tr(P E_k) / 2 at
        # omega_k
        s_coef = np.zeros((8, 9))
        s_coef[:2, 1:3] = p * o
        s_coef[2:5, 0] = -0.5 * np.trace(pe, axis1=1, axis2=2)
        s_coef[2:5, 3] = 0.5 * pep[:, 0, 0] * var[0]
        s_coef[2:5, 4] = 0.5 * pep[:, 1, 1] * var[1]
        s_coef[2:5, 5] = pep[:, 0, 1] * (o[0] * o[1])

        # grad z_j = -e_xi_j / omega_j - z_j e_omega_jj / (2 omega_jj), and
        # alpha_j z_j adds alpha_j grad z_j + z_j e_alpha_j to grad t
        grad_t = s_coef[:, 6:]
        grad_t[:, 0] = self.dp.tau * d_den + den * e[7]
        for j in (0, 1):
            xi, om, al = e[j], e[2 + 2 * j], e[5 + j]
            dz0, dz1 = -xi / o[j], -om / (2.0 * var[j])
            grad_t[:, 0] += a[j] * dz0
            grad_t[:, 1 + j] = al + a[j] * dz1
        s_coef.flags.writeable = False
        return s_coef

    @functools.cached_property
    def lin(self):
        """H_N + zeta1(t) grad^2 t on b, (36, 9) in the kernel's columns,
        read-only.  Built on first use: only order-2 callers read it, and
        it costs about twice as much as s_coef."""
        dp, lam = self.dp, self.lam
        var, o, a, e, den, p, pe, pep, dw, d_lam, d_as, d_den = self._chain
        # h_b[k]: the hessian's coefficient of b_k
        h_b = np.zeros((9, 8, 8))

        # H_N: -P at xi-xi, -P E_k P r at xi-omega_k, and tr(P E_k P E_l) / 2
        # - r' P E_k P E_l P r at omega_k-omega_l
        h_b[0, :2, :2] = -p
        h_b[0, 2:5, 2:5] = 0.5 * np.einsum("kij,lji->kl", pe, pe)
        # [k, i, j]: coefficient of z_j at (xi_i, omega_k)
        xi_om = -pep * o
        h_b[1:3, :2, 2:5] = xi_om.transpose(2, 1, 0)
        h_b[1:3, 2:5, :2] = xi_om.transpose(2, 0, 1)
        # [k, l, i, j]: coefficient of z_i z_j at (omega_k, omega_l)
        om_om = -(pe[:, None] @ pe[None] @ p) * np.outer(o, o)
        h_b[3, 2:5, 2:5] = om_om[..., 0, 0]
        h_b[4, 2:5, 2:5] = om_om[..., 1, 1]
        h_b[5, 2:5, 2:5] = om_om[..., 0, 1] + om_om[..., 1, 0]

        h_lam = (_sym(e[3], dw) / (o[0] * o[1])
                 + lam * (np.outer(dw, dw) + np.diag(2.0 * dw * dw)))
        h_as = 2.0 * (a[0] * a[1] * h_lam + a[1] * _sym(e[5], d_lam)
                      + a[0] * _sym(e[6], d_lam))
        h_as[5:7, 5:7] += 2.0 * np.array([[1.0, lam], [lam, 1.0]])
        h_den = h_as / (2.0 * den) - np.outer(d_as, d_as) / (4.0 * den ** 3)

        h_b[6] = dp.tau * h_den + _sym(e[7], d_den)
        for j in (0, 1):
            xi, om, al = e[j], e[2 + 2 * j], e[5 + j]
            dz0, dz1 = -xi / o[j], -om / (2.0 * var[j])
            h_b[6] += (_sym(al, dz0)
                       + a[j] * _sym(xi, om) / (2.0 * var[j] * o[j]))
            h_b[7 + j] = (_sym(al, dz1)
                          + a[j] * np.outer(om, om) * (0.75 / var[j] ** 2))
        lin = np.ascontiguousarray(h_b[:, _UPPER[0], _UPPER[1]].T)
        lin.flags.writeable = False
        return lin


@functools.lru_cache(maxsize=4)
def _coefficients(dp):
    """The `_Coefficients` record of dp, cached: chunked callers ask for
    one dp once per block.

    The log density is l_N(z; Omega) + zeta0(t) - zeta0(tau), with t =
    tau den + alpha1 z1 + alpha2 z2 differentiated by the chain rule
    through lam, alpha_star^2 and z.
    """
    lam = _lam(dp)
    astar2 = _alpha_star_sq(lam, dp.alpha1, dp.alpha2)
    den = math.sqrt(1.0 + astar2)
    log_norm = -LOG_2PI - 0.5 * (math.log(dp.omega11) + math.log(dp.omega22)
                                 + math.log1p(-lam * lam))
    return _Coefficients(dp, lam, 1.0 / (1.0 - lam * lam), astar2,
                         astar2 / (1.0 + den), log_norm)


def _log_density(coef, z1, z2, order):
    """What _kernel and _sums both form per row, from the record coef.

    Returns the log density (n,); the zeta ladder at t and its differences
    from tau to the given order (see zeta_pair); and z1^2, z2^2 and
    z1 z2.  The tau derivatives vanish as alpha -> 0, so t - tau and the
    zeta differences across it are formed without cancellation.
    """
    dp = coef.dp
    at, diff = zeta_pair(dp.tau, dp.tau * coef.den_m1 + dp.alpha1 * z1
                         + dp.alpha2 * z2, order)
    z1sq, z2sq, z12 = z1 * z1, z2 * z2, z1 * z2
    quad = z1sq + z2sq - 2.0 * coef.lam * z12
    log_f = coef.log_norm - 0.5 * coef.u * quad + diff[0]
    return log_f, at, diff, (z1sq, z2sq, z12)


def _kernel(dp, z1, z2, order):
    """Per-observation log density and its derivatives, order 1 or 2.

    z1 and z2 are 1-d arrays of standardized residuals (see
    ``model._residuals``); dp is assumed validated.  The rows serve the
    callers that need each observation: the Gram rule of expected_info
    (order 1) and the Monte Carlo oracle in validation (order 2), which
    needs the spread of each entry.  The rows are `_contract` applied to
    each row's basis 1, z1, z2, z1^2, z2^2, z1 z2, zeta1, z1 zeta1, z2
    zeta1, as _sums applies it to the basis summed.  The basis spans all
    the rows given, so callers pass bounded blocks (at most 3,600 rows
    from one Gram rule, validation._PASS from the oracle).

    Returns
    -------
    list of ndarray
        The log density (n,) and the score rows (n, 8), ordered as theta;
        with order 2 also the hessian rows (n, 36), column _COL[r, c]
        holding entry (r, c).
    """
    coef = _coefficients(dp)
    log_f, at, diff, (z1sq, z2sq, z12) = _log_density(coef, z1, z2, order)
    zeta1 = at[1]
    basis = np.stack([np.ones_like(z1), z1, z2, z1sq, z2sq, z12, zeta1,
                      z1 * zeta1, z2 * zeta1])
    zeta2 = None
    if order == 2:
        # zeta2 g_i g_j from the rows of g = grad t, not expanded in z,
        # where (c + a z)^2 can cancel
        g = coef.s_coef[:, 6:] @ basis[:3]
        gz = g * at[2]
        zeta2 = (at[2], gz[_UPPER[0]] * g[_UPPER[1]], diff[2])
    return [log_f, *(a.T for a in _contract(coef, basis, diff[1], zeta2))]


def _contract(coef, m, diff1, zeta2=None):
    """The score and, given zeta2, the hessian from the basis b.

    m is b per row (9, n), its sums (9,) or its expectations, and diff1
    the matching zeta1(t) - zeta1(tau).  zeta2 is (w, gg, diff2): zeta2(t),
    the zeta2 term zeta2(t) grad t grad t' in kernel columns, and zeta2(t)
    - zeta2(tau), each matching m.

    Returns
    -------
    list of ndarray
        The score s_coef @ m, (8, ...); with zeta2 also the hessian lin @ m
        + gg, (36, ...) in kernel columns, so that h[_COL] is symmetric.
        The tau entries are den zeta1(t) - zeta1(tau) and den^2 zeta2(t) -
        zeta2(tau), which vanish as alpha -> 0 without cancellation.
    """
    s = coef.s_coef @ m
    s[7] = coef.den_m1 * m[6] + diff1
    if zeta2 is None:
        return [s]
    w, gg, diff2 = zeta2
    h = coef.lin @ m + gg
    h[_COL[7, 7]] = coef.astar2 * w + diff2
    return [s, h]


def _sums(dp, data, order):
    """Log-likelihood and, by order, score (8,) and hessian (8, 8) at dp.

    The log density is formed per row as the kernel forms it and summed,
    _ROWS rows at a time.  The derivatives are never formed per row: each
    block adds its sums of B = (1, z1, z2) as B B' and B zeta1(t), and of
    the zeta differences from tau; for order 2 also its zeta2 term, the sum
    of zeta2(t) grad t grad t', grad t = G B.  With w the block's zeta2 sum,
    c its zeta2-weighted mean of z and C its sum of zeta2 (z - c)(z - c)',
    that is w g_c g_c' + G_z C G_z', g_c = G (1, c), so (c + a z)^2 does not
    cancel where z sits near -c / a.
    """
    coef = _coefficients(dp)
    z1, z2 = _residuals(dp, data.y1, data.y2)
    value = 0.0
    m_lin = np.zeros(9)
    diff1 = diff2 = 0.0
    if order == 2:
        g = coef.s_coef[:, 6:]
        zeta2_w = 0.0
        zeta2_gg = np.zeros((8, 8))
    for lo in range(0, data.n, _ROWS):
        b1, b2 = z1[lo:lo + _ROWS], z2[lo:lo + _ROWS]
        log_f, at, diff, sq = _log_density(coef, b1, b2, order)
        value += log_f.sum()
        if order == 0:
            continue
        zeta1 = at[1]
        m_lin += [len(b1), b1.sum(), b2.sum(), sq[0].sum(), sq[1].sum(),
                  sq[2].sum(), zeta1.sum(), (b1 * zeta1).sum(),
                  (b2 * zeta1).sum()]
        diff1 += diff[1].sum()
        if order == 2:
            diff2 += diff[2].sum()
            zeta2 = at[2]
            w = zeta2.sum()
            zeta2_w += w
            # zeta2 underflows to 0 where t > 38 or so
            if w != 0.0:
                mean = np.array([(zeta2 * b1).sum(), (zeta2 * b2).sum()]) / w
                c1, c2 = b1 - mean[0], b2 - mean[1]
                e1, e2 = zeta2 * c1, zeta2 * c2
                s12 = (e1 * c2).sum()
                cov = np.array([[(e1 * c1).sum(), s12],
                                [s12, (e2 * c2).sum()]])
                gc = g[:, 0] + g[:, 1:] @ mean
                zeta2_gg += w * np.outer(gc, gc) + g[:, 1:] @ cov @ g[:, 1:].T
    if order == 0:
        return [value]
    if order == 1:
        return [value, *_contract(coef, m_lin, diff1)]
    grad, hess = _contract(coef, m_lin, diff1,
                           (zeta2_w, zeta2_gg[_UPPER], diff2))
    return [value, grad, hess[_COL]]


def density_esn2(y1, y2, dp):
    """Bivariate density at (y1, y2); accepts scalars or ndarrays."""
    validate(dp)
    z1, z2 = np.broadcast_arrays(*_residuals(dp, y1, y2))
    log_f = _log_density(_coefficients(dp), z1.ravel(), z2.ravel(), 0)[0]
    out = np.exp(log_f).reshape(z1.shape)
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
    return InfoMatrix(matrix=-_sums(dp, data, 2)[2], kind="observed")


@dataclass(frozen=True)
class FitControls:
    grad_tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        # a fit under these could never report convergence
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol {self.grad_tol} is not finite and > 0")
        if self.max_iter < 0:
            raise ValueError(f"max_iter {self.max_iter} is negative")


@dataclass(frozen=True)
class FitResult:
    dp_hat: DpParams
    converged: bool
    final_score_norm: float
    loglik: float
    # calls of _sums the fit made: objective evaluations and polish steps
    evaluations: int


def _to_internal(dp, unit):
    # (xi1/u1, xi2/u2, log O11, atanh lam, log O22, alpha1, alpha2, tau):
    # unconstrained, and every point maps back to a valid dp.  With the
    # locations in units u of the data's scale, rescaling the data leaves
    # every coordinate's gradient unchanged
    return np.array([dp.xi1 / unit[0], dp.xi2 / unit[1],
                     math.log(dp.omega11), math.atanh(_lam(dp)),
                     math.log(dp.omega22), dp.alpha1, dp.alpha2, dp.tau])


def _from_internal(psi, unit):
    o11 = math.exp(psi[2])
    o22 = math.exp(psi[4])
    lam = math.tanh(psi[3])
    return DpParams(psi[0] * unit[0], psi[1] * unit[1], o11,
                    lam * math.sqrt(o11 * o22), o22, psi[5], psi[6], psi[7])


def _internal_grad(dp, grad_theta, unit):
    """Chain rule from theta-gradient to internal-coordinate gradient."""
    lam = _lam(dp)
    g = np.array(grad_theta, dtype=float, copy=True)
    g[0] *= unit[0]
    g[1] *= unit[1]
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
    BFGS stops once its gradient is below n sqrt(eps): near the maximum
    the rise it can still make, about |g|^2 / n, is then below the
    rounding of -loglik, about eps n, and its line search could only end
    in precision loss; the polish works from the score alone.  The
    locations enter BFGS in units of the start's scale, so that the
    information per observation is of order one, and the stop holds, at
    any scale of the data.

    Returns
    -------
    FitResult
        ``converged`` is False when the score norm target was not met;
        no exception is raised for that.
    """
    validate(init)
    if data.n < 5:
        raise ValueError(f"need at least 5 observations to fit, got {data.n}")

    # only the fit needs scipy.optimize, which costs every command's start-up
    import scipy.optimize

    calls = 0

    def sums(dp, order):
        nonlocal calls
        calls += 1
        return _sums(dp, data, order)

    # the start's scale stands in for the data's; a power of two divides
    # exactly, so at a start of unit scale the locations are theta's own
    unit = tuple(2.0 ** round(0.5 * math.log2(o))
                 for o in (init.omega11, init.omega22))

    def objective(psi):
        try:
            dp = validate(_from_internal(psi, unit))
        except (ValueError, OverflowError):
            return np.inf, np.zeros(8)
        value, grad = sums(dp, 1)
        return -float(value), -_internal_grad(dp, grad, unit)

    gtol = max(0.01 * controls.grad_tol,
               data.n * math.sqrt(np.finfo(float).eps))
    res = scipy.optimize.minimize(
        objective, _to_internal(init, unit), jac=True, method="BFGS",
        options={"maxiter": controls.max_iter, "gtol": gtol})

    dp = validate(_from_internal(res.x, unit))
    value, grad, hess = sums(dp, 2)
    norm = float(np.max(np.abs(grad)))
    bfgs_end = dp, value, norm
    for _ in range(50):
        if norm < controls.grad_tol:
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(30):
            # a step that overflows the evaluation, as |alpha| -> inf
            # does, is rejected like one that leaves the parameter space
            try:
                cand = validate(DpParams.from_array(dp.as_array()
                                                    + scale * step))
                with np.errstate(over="raise", invalid="raise"):
                    result = sums(cand, 2)
            except (ValueError, ArithmeticError):
                scale *= 0.5
                continue
            cand_norm = float(np.max(np.abs(result[1])))
            if cand_norm < norm:
                dp, norm = cand, cand_norm
                value, grad, hess = result
                break
            scale *= 0.5
        else:
            break

    # the polish tracks the score norm, not the objective; never return a
    # point below the one BFGS ended at
    if -value > res.fun + 1e-9 * (1.0 + abs(res.fun)):
        dp, value, norm = bfgs_end

    return FitResult(dp_hat=dp, converged=norm < controls.grad_tol,
                     final_score_norm=norm, loglik=float(value),
                     evaluations=calls)

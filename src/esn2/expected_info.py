"""Per-observation expected Fisher information and the singularity scans.

The expected information is the Gram matrix I = E[s s'] of the score s,
so it is computed with a quadrature rule whose weights are all positive:
I = A'A, where row k of A is sqrt(w_k) s(z_k).  The nodes sit in the
hidden-truncation coordinates of the standardized model,
Z = delta V + C^{1/2} W with C = Omegabar - delta delta', where V is
N(0, 1) truncated to V > -tau (Gauss-Legendre, in panels) and W is
N_2(0, I) (Gauss-Hermite).  A is folded block by block into its 8x8
triangular factor R, so I = R'R, and determinants and eigenvalues come
from the singular values of R: the condition number of I is never
squared, and a determinant is never negative.

The paper's route, closed-form and cubature expectations
(`expectation_set`) applied to the kernel's hessian coefficients as
E[-H] (`_assemble`), is kept as the oracle the rule's E[s s'] is tested
against; it does not run in production.  It is the contraction that
observed_info applies to sample sums, through the one helper
likelihood._hessian_from_moments.  Also here:
the scalar reparameterization rule, the conditional-independence and
block-structure predicates, and grid sweeps of the determinant used to
map where the matrix degenerates.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .cubature import CubatureControls
from .expectations import CubatureNotConverged
from .likelihood import InfoMatrix, _hessian_from_moments, _kernel
from .model import (DpParams, _alpha_star_sq, _conditional_factor, _lam,
                    validate)
from .special_fns import LOG_RT2PI, zeta

_SWEEPABLE = ("alpha1", "alpha2", "tau")

# sign pattern of each coordinate under the mirror alpha -> -alpha:
# xi and alpha rows change sign, scale and tau rows do not
_FLIP_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _assemble(dp, es):
    """The paper's expected information -E[h] from an expectation set: the
    kernel's hessian coefficients contracted with E[1, Z, Z Z'], E[(1, Z)
    zeta1(T)] and E[(1, Z)(1, Z)' zeta2(T)], as observed_info contracts
    them with sample sums."""
    e_lin = [1.0, es.e_z1, es.e_z2, es.e_z1sq, es.e_z2sq, es.e_z1z2,
             es.e_zeta1, es.e_z1_zeta1, es.e_z2_zeta1]
    e_zeta2 = np.array([[es.e_zeta2, es.e_z1_zeta2, es.e_z2_zeta2],
                        [es.e_z1_zeta2, es.e_z1sq_zeta2, es.e_z1z2_zeta2],
                        [es.e_z2_zeta2, es.e_z1z2_zeta2, es.e_z2sq_zeta2]])
    m = -_hessian_from_moments(dp, e_lin, e_zeta2)
    m[7, 7] += zeta(2, dp.tau)
    return m


# the V interval runs from -tau to v_top, v_top^2 = max(-tau, 0)^2 + 80,
# where phi(v_top) is at most e^-40 times phi at the interval's start;
# phi itself has its bulk on [-sqrt(80), sqrt(80)]
_V_SPAN_SQ = 80.0
# zeta1(T) turns from linear to phi-like within about _KNEE / alpha_star
# of the truncation point, so the first V panel ends there
_KNEE = 8.0
# the first rule has 8 nodes per V panel and per W axis; each later rule
# has 1.5 times as many
_FIRST_NODES = 8
_GROWTH = 1.5
# nodes folded into the triangular factor at a time
_BLOCK = 8192


def _v_rule(tau, alpha_star, n):
    """Nodes and log weights for V ~ N(0, 1) truncated to V > -tau.

    Gauss-Legendre with n nodes on each panel.  The first panel ends at
    the Mills-ratio knee of zeta1(T), and at most at the interval's
    midpoint.  When the knee lies below -sqrt(80), far from the bulk of
    phi (tau >> 0), that bulk gets a panel of its own.  The weights
    phi(v) / Phi(tau) are formed in log space, so a deep truncation
    (tau << 0) neither underflows nor overflows.
    """
    lo = -tau
    hi = math.sqrt(max(lo, 0.0) ** 2 + _V_SPAN_SQ)
    mid = 0.5 * (lo + hi)
    knee = lo + _KNEE / alpha_star if alpha_star * (mid - lo) > _KNEE \
        else mid
    edges = sorted({lo, knee, max(knee, -math.sqrt(_V_SPAN_SQ)), hi})
    x, w = np.polynomial.legendre.leggauss(n)
    v, log_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        v.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        log_w.append(np.log(0.5 * (b - a) * w))
    v = np.concatenate(v)
    return v, np.concatenate(log_w) - 0.5 * v * v - LOG_RT2PI - zeta(0, tau)


def _gram_factor(dp, v, log_wv, n):
    """Triangular R with R'R the rule's E[s s'] at dp.

    dp must have alpha at its canonical sign.  The rule is the V nodes v
    with log weights log_wv times n Gauss-Hermite nodes on each W axis:
    node (i, j, l) is V node i and W nodes j and l.  Nodes are folded
    into R _BLOCK at a time by QR of [R; block], so memory does not grow
    with the node count.
    """
    d, l11, l21, l22 = _conditional_factor(_lam(dp), dp.alpha1, dp.alpha2)
    x, wx = np.polynomial.hermite_e.hermegauss(n)
    log_wx = np.log(wx) - LOG_RT2PI

    per_v = n * n
    total = len(v) * per_v
    r = np.empty((0, 8))
    for start in range(0, total, _BLOCK):
        i, jl = np.divmod(np.arange(start, min(start + _BLOCK, total)), per_v)
        j, l = np.divmod(jl, n)
        z1 = d.delta1 * v[i] + l11 * x[j]
        z2 = d.delta2 * v[i] + l21 * x[j] + l22 * x[l]
        root_w = np.exp(0.5 * (log_wv[i] + log_wx[j] + log_wx[l]))
        rows = _kernel(dp, z1, z2, 1)[1]
        stacked = np.vstack([r, rows * root_w[:, None]])
        r = scipy.linalg.qr(stacked, mode="r", check_finite=False)[0][:8]
    return r


def _info_factor(dp, tol):
    """Converged triangular factor R of the expected information at dp.

    The rule runs at the canonical alpha sign (alpha1 > 0, or alpha1 = 0
    and alpha2 >= 0); the mirror image alpha -> -alpha has information
    S I S with S = diag(_FLIP_SIGNS), which the caller applies.  Rules
    grow by _GROWTH until two in a row agree in every entry to within
    max(abs_tol, rel_tol sqrt(I_ii I_jj)); the finer one is returned.

    Returns
    -------
    (ndarray (8, 8), bool)
        R, and whether dp was mirrored to reach the canonical sign.

    Raises
    ------
    CubatureNotConverged
        When the next rule would take the node count past max_evals.
    """
    controls = tol or CubatureControls()
    flip = dp.alpha1 < 0.0 or (dp.alpha1 == 0.0 and dp.alpha2 < 0.0)
    if flip:
        dp = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    alpha_star = math.sqrt(_alpha_star_sq(_lam(dp), dp.alpha1, dp.alpha2))
    used = 0
    prev = None
    n = _FIRST_NODES
    while True:
        v, log_wv = _v_rule(dp.tau, alpha_star, n)
        nodes = len(v) * n * n
        if used + nodes > controls.max_evals:
            raise CubatureNotConverged(
                f"expected-information rule not converged after {used} "
                f"nodes; the next rule needs {nodes} more")
        used += nodes
        r = _gram_factor(dp, v, log_wv, n)
        info = r.T @ r
        if prev is not None:
            scale = np.sqrt(np.diag(info))
            bound = np.maximum(controls.abs_tol,
                               controls.rel_tol * np.outer(scale, scale))
            if np.all(np.abs(info - prev) <= bound):
                return r, flip
        prev = info
        n = round(n * _GROWTH)


def expected_info(dp, tol=None):
    """Expected information for one observation at dp.

    tol drives the quadrature rule: rel_tol and abs_tol bound the gap
    between consecutive rules, max_evals the total node count.  The
    matrix is the rule's R'R, except that I[3, 5] and I[3, 6], which
    vanish identically at tau = 0, are returned there as exact zeros
    rather than as the rule's rounding noise.

    Raises
    ------
    CubatureNotConverged
        When the rule does not converge within tol.max_evals nodes.
    """
    validate(dp)
    r, flip = _info_factor(dp, tol)
    m = r.T @ r
    # InfoMatrix requires exact symmetry, which a matrix product lacks
    m = np.triu(m) + np.triu(m, 1).T
    if dp.tau == 0.0:
        m[3, 5:7] = m[5:7, 3] = 0.0
    if flip:
        m = m * np.outer(_FLIP_SIGNS, _FLIP_SIGNS)
    return InfoMatrix(matrix=m, kind="expected")


def reparam_scalar_info(info_value, dpsi_dnu):
    """Map a scalar information value through psi(nu): divide by psi'^2."""
    if dpsi_dnu == 0.0:
        raise ValueError("reparameterization derivative must be nonzero")
    return info_value / dpsi_dnu ** 2


def conditional_independence(dp):
    """Whether the two components are conditionally independent.

    Holds exactly when the off-diagonal scale entry and the product
    alpha1 * alpha2 are both zero; zero is tested against a 1e-14
    relative scale so round-tripped parameters still qualify.
    """
    validate(dp)
    scale_tol = 1e-14 * math.sqrt(dp.omega11 * dp.omega22)
    alpha_tol = 1e-14 * max(1.0, dp.alpha1 ** 2, dp.alpha2 ** 2)
    return (abs(dp.omega12) <= scale_tol
            and abs(dp.alpha1 * dp.alpha2) <= alpha_tol)


def block_structure_check(dp, tol=None):
    """Verify the information factorizes when component 1 is pure Gaussian.

    Requires omega12 = 0 and alpha1 = 0, where the distribution splits
    into a univariate normal times a univariate extended skew-normal.
    Rows and columns are reordered into (xi1, omega11 | xi2, omega22,
    alpha2, tau) and the largest off-block entry is reported.
    """
    validate(dp)
    scale_tol = 1e-14 * math.sqrt(dp.omega11 * dp.omega22)
    if abs(dp.omega12) > scale_tol:
        raise ValueError("block structure requires omega12 = 0")
    if abs(dp.alpha1) > 1e-14 * max(1.0, abs(dp.alpha2)):
        raise ValueError("block structure requires alpha1 = 0")
    m = expected_info(dp, tol).matrix
    order = [0, 2, 1, 4, 6, 7]
    sub = m[np.ix_(order, order)]
    max_offblock = float(np.max(np.abs(sub[:2, 2:])))
    return max_offblock < 1e-6, max_offblock


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter grid sweep around a base parameter point."""
    sweep_param: str
    grid: tuple
    base: DpParams

    def __post_init__(self):
        if self.sweep_param not in _SWEEPABLE:
            raise ValueError(
                f"sweep_param must be one of {_SWEEPABLE}, "
                f"got {self.sweep_param!r}")
        grid = tuple(float(g) for g in np.atleast_1d(self.grid))
        if not grid:
            raise ValueError("grid must be nonempty")
        diffs = np.diff(grid)
        if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)
        for g in grid:
            validate(self.dp_at(g))

    def dp_at(self, value):
        return replace(self.base, **{self.sweep_param: float(value)})


@dataclass(frozen=True)
class SweepRow:
    """Determinant diagnostics at one grid point."""
    param_value: float
    det: float
    min_eigenvalue: float
    converged: bool


def _det_and_mineig(r):
    """Determinant and smallest eigenvalue of I = R'R, from R alone.

    The sweeps walk straight into near-singular territory where the
    determinant ranges over hundreds of orders of magnitude, mostly
    through column scale.  So det(I) = det(R D^-1)^2 prod d_j^2, with d_j
    the column norms of R, accumulated in log space from the singular
    values of R D^-1; the smallest eigenvalue is sigma_min(R)^2.  Neither
    can be negative.
    """
    norms = np.linalg.norm(r, axis=0)
    if np.any(norms == 0.0):
        return 0.0, 0.0
    sv = np.linalg.svd(r / norms, compute_uv=False)
    logdet = 2.0 * float(np.sum(np.log(sv)) + np.sum(np.log(norms)))
    min_eig = float(np.linalg.svd(r, compute_uv=False)[-1]) ** 2
    return math.exp(logdet), min_eig


def _scan_row(spec, value, tol):
    try:
        r, _ = _info_factor(spec.dp_at(value), tol)
    except CubatureNotConverged:
        return SweepRow(param_value=float(value), det=float("nan"),
                        min_eigenvalue=float("nan"), converged=False)
    det, min_eig = _det_and_mineig(r)
    return SweepRow(param_value=float(value), det=det,
                    min_eigenvalue=min_eig, converged=True)


def det_scan(spec, tol=None):
    """Determinant and smallest eigenvalue at every grid point.

    Rows come back in grid order, and a quadrature failure marks its row
    converged=False without stopping the scan.  Mirrored points
    (alpha -> -alpha) share one rule, so their rows are bit-identical.
    """
    return [_scan_row(spec, g, tol) for g in spec.grid]

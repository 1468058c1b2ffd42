"""Per-observation expected Fisher information and the singularity scans.

The expected information is the Gram matrix I = E[s s'] of the score s,
so it is computed by the package's Gram rule (cubature._gram_rule) with
b = s: a positive-weight quadrature in the canonical form of the
standardized model, Gauss-Legendre panels on the one skewed axis X times
three Gauss-Hermite nodes on the Gaussian axis Y, taken by one QR to
an 8x8 triangular factor R with I = R'R.  Determinants and eigenvalues come
from the singular values of R: the condition number of I is never
squared, and a determinant is never negative.

The paper's route, closed-form expectations plus the a-terms applied to
the likelihood's hessian coefficients as E[-H], lives in expectations
(`expectation_set`, `_assemble`) as the oracle the rule's E[s s'] is
tested against; it does not run in production.  Also here: the
conditional-independence and block-structure predicates, and grid sweeps
of the determinant used to map where the matrix degenerates.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .cubature import CubatureNotConverged, _gram_rule
from .likelihood import InfoMatrix, _score_rows
from .model import DpParams

_SWEEPABLE = ("alpha1", "alpha2", "tau")

# sign pattern of each coordinate under the mirror alpha -> -alpha:
# xi and alpha rows change sign, scale and tau rows do not
_FLIP_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _info_factor(dp, tol):
    """Converged triangular factor R of the expected information at dp,
    I = R'R.  The mirror image alpha -> -alpha gets R S, bit for bit, with
    S = diag(_FLIP_SIGNS).

    Returns
    -------
    ndarray (8, 8)

    Raises
    ------
    CubatureNotConverged
        When the next rule would take the node count past max_evals.
    """
    rule = _gram_rule(dp, _score_rows, tol)
    if not rule.converged:
        raise CubatureNotConverged(
            f"expected-information rule not converged after {rule.nodes} "
            f"nodes; gap {rule.gap:g} between the last two rules")
    return rule.factor


def expected_info(dp, tol=None):
    """Expected information for one observation at dp.

    tol drives the quadrature rule: rel_tol and abs_tol bound the gap
    between consecutive rules, max_evals the total node count.  The
    matrix is the rule's R'R, except that entries that vanish
    identically are returned as exact zeros rather than as the rule's
    rounding noise: I[3, 5] and I[3, 6] at tau = 0, and at alpha = 0,
    where the law is symmetric under z -> -z, every entry that S flips.
    The mirror image alpha -> -alpha has information S I S, S =
    diag(_FLIP_SIGNS): the rule's nodes are mirrored exactly and its
    score rows change sign by S, so this holds bit for bit by
    construction.

    Raises
    ------
    CubatureNotConverged
        When the rule does not converge within tol.max_evals nodes.
    """
    r = _info_factor(dp, tol)
    m = r.T @ r
    # InfoMatrix requires exact symmetry, which a matrix product lacks
    m = np.triu(m) + np.triu(m, 1).T
    if dp.tau == 0.0:
        m[3, 5:7] = m[5:7, 3] = 0.0
    if dp.alpha1 == 0.0 and dp.alpha2 == 0.0:
        m[np.outer(_FLIP_SIGNS, _FLIP_SIGNS) < 0.0] = 0.0
    return InfoMatrix(matrix=m, kind="expected")


def conditional_independence(dp):
    """Whether the two components are conditionally independent.

    Holds exactly when the off-diagonal scale entry and the product
    alpha1 * alpha2 are both zero; zero is tested against a 1e-14
    relative scale so round-tripped parameters still qualify.
    """
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
        # each grid point is a DpParams, which checks itself
        for g in grid:
            self.dp_at(g)

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
    determinant ranges over hundreds of orders of magnitude.  R is
    triangular, so det(I) = prod r_jj^2, accumulated in log space; the
    smallest eigenvalue is sigma_min(R)^2.  Neither can be negative.  A
    determinant past the largest double, as at omega_ii = 1e-60, is inf,
    as one below the smallest, at omega_ii = 1e60, is 0.0.
    """
    diag = np.abs(np.diag(r))
    if np.any(diag == 0.0):
        return 0.0, 0.0
    min_eig = float(np.linalg.svd(r, compute_uv=False)[-1]) ** 2
    try:
        return math.exp(2.0 * float(np.sum(np.log(diag)))), min_eig
    except OverflowError:
        return math.inf, min_eig


def _scan_row(spec, value, tol):
    try:
        r = _info_factor(spec.dp_at(value), tol)
    except CubatureNotConverged:
        return SweepRow(param_value=float(value), det=float("nan"),
                        min_eigenvalue=float("nan"), converged=False)
    det, min_eig = _det_and_mineig(r)
    return SweepRow(param_value=float(value), det=det,
                    min_eigenvalue=min_eig, converged=True)


def det_scan(spec, tol=None):
    """Determinant and smallest eigenvalue at every grid point.

    Rows come back in grid order, and a quadrature failure marks its row
    converged=False without stopping the scan.  A mirrored point
    (alpha -> -alpha) has factor R S, which has the same determinant
    and singular values as R.
    """
    return [_scan_row(spec, g, tol) for g in spec.grid]

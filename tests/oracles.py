"""References the tests hold the package to, kept out of the package.

integrate_2d is SciPy's adaptive cubature, which shares nothing with the
package's fixed rules; kernel_rows forms per row what `_sums` only sums.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cubature

from esn2.likelihood import _UPPER, _coefficients, _contract, _log_density

# a gk21 subdivision splits one square into 4 and evaluates on each the
# 21 x 21 Kronrod product twice (estimate and error) and the 10 x 10 Gauss
# product once
_EVALS_PER_SUBDIVISION = 4 * (2 * 21 ** 2 + 10 ** 2)


@dataclass(frozen=True)
class Integral:
    value: float
    converged: bool


def integrate_2d(f, lower, upper, controls):
    """f(x, y) over the rectangle lower..upper to controls' tolerances,
    with at most controls.max_evals evaluations of f."""
    res = cubature(lambda x: f(x[:, 0], x[:, 1]), lower, upper, rule="gk21",
                   rtol=controls.rel_tol, atol=controls.abs_tol,
                   max_subdivisions=controls.max_evals
                   // _EVALS_PER_SUBDIVISION)
    return Integral(float(res.estimate), res.status == "converged")


def kernel_rows(dp, z1, z2):
    """Per-row log density (n,), score (n, 8) and hessian (n, 36), the
    hessian in packed columns, by the `_contract` that `_sums` applies to
    the basis summed."""
    coef = _coefficients(dp)
    log_f, at, diff, (z1sq, z2sq, z12) = _log_density(coef, z1, z2, 2)
    zeta1 = at[1]
    basis = np.stack([np.ones_like(z1), z1, z2, z1sq, z2sq, z12, zeta1,
                      z1 * zeta1, z2 * zeta1])
    # zeta2 g_i g_j from the rows of g = grad t, not expanded in z, where
    # (c + a z)^2 can cancel
    g = coef.s_coef[:, 6:] @ basis[:3]
    gz = g * at[2]
    zeta2 = (at[2], gz[_UPPER[0]] * g[_UPPER[1]], diff[2])
    s, h = _contract(coef, basis, diff[1], zeta2)
    return log_f, s.T, h.T

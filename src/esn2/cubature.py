"""Every quadrature of the package: a positive-weight Gram rule for
expectations of outer products under the standardized model, and the
Gauss-Legendre panels it and the validation grids are built from.

The Gram rule integrates E[b(Z) b(Z)'] for a row function b of the
standardized bivariate extended skew-normal Z, as A'A, where row k of A is
sqrt(w_k) b(z_k) and every weight w_k is positive.  expected_info takes
b = s, the score (8 columns); the paper's a-terms take
b = zeta1(T) (1, Z1, Z2) (3 columns).  The nodes sit in the canonical
form of Z (Azzalini & Capitanio 1999): Z = p X + q Y, where X =
alpha'Z / alpha_star (Z1 when alpha = 0) is a univariate extended
skew-normal with density phi(x) Phi(tau den + alpha_star x) / Phi(tau),
den = sqrt(1 + alpha_star^2), and Y is N(0, 1), independent of X.  Both
row functions depend on Z nonlinearly only through t = tau den +
alpha_star X, which does not vary along Y.  So X carries all of
zeta1(t) and gets Gauss-Legendre panels that grow from rule to rule, and
the zeta ladder runs once per X node and is handed to the row function,
while along Y, b is a polynomial of degree <= 2: three Gauss-Hermite
nodes integrate b b' there exactly.  One QR takes A to its triangular
factor R, so E[b b'] = R'R, with no subtraction anywhere: diagonal
entries are nonnegative and a Gram matrix is positive semidefinite by
construction.

`_panels` places n Gauss-Legendre nodes on each panel between given
edges.  Three rules take their nodes from it: the Gram rule's X axis, and
in validation the chi-square test's cell masses and the Lemma 4 check's
product grid, 4 panels of 32 nodes on each axis of a box of +-9 marginal
sd.  The tests check these fixed rules against SciPy's adaptive cubature
(tests/oracles.py), which shares nothing with them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import _alpha_star_sq, _lam
from .special_fns import LOG_RT2PI, zeta_pair


class CubatureNotConverged(RuntimeError):
    """A quadrature rule could not reach its error tolerance."""


@dataclass(frozen=True)
class CubatureControls:
    """Stopping rules for the Gram rule (expected_info, det_scan and
    a_terms).

    max_evals counts rule nodes, 3 per X node, summed over the rules
    tried, and rel_tol and abs_tol bound the gap between the last two
    rules.
    """
    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_evals: int = 1_000_000


# X = delta* V + W / den, V ~ N(0, 1) truncated to V > -tau, W ~ N(0, 1) and
# delta* = alpha_star / den, so X spans V's span, -tau to v_top with
# v_top^2 = max(-tau, 0)^2 + 80 (phi(v_top) <= e^-40 phi(-tau)), times
# delta*, widened by the bulk of phi, sqrt(80), over den
_SPAN_SQ = 80.0
# zeta1(t) turns from linear to phi-like for t within _KNEE of 0, so the X
# panels split where t = -_KNEE and t = _KNEE
_KNEE = 8.0
# the first rule has 36 nodes per X panel and each later rule 1.5 times as
# many.  Over 75 points (the benchmark's fit, Monte Carlo and scan points,
# the tests' mirror and extreme points and 60 random ones) at each of the
# four tolerances in use, no score rule stopped on a rule of 24 nodes
# against one of 36: each stopped at 54, 81 or 183 nodes, or at the cap,
# so a first rule of 24 only cost its nodes.  leggauss takes memory
# quadratic in its node count, so no rule has more than _MAX_NODES per
# panel.  With at most 3 X panels and 3 Y nodes, a rule has at most
# 3 x 400 x 3 = 3,600 rows, which _gram_factor takes in one QR
_FIRST_NODES = 36
_GROWTH = 1.5
_MAX_NODES = 400
# Y ~ N(0, 1) gets the 3-node Gauss-Hermite rule: at fixed X, b b' is a
# polynomial of degree <= 4 in Y, which it integrates exactly
_Y_RULE = (np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)]),
           np.log([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]))


@functools.lru_cache(maxsize=32)
def _legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panels(edges, n):
    """Gauss-Legendre nodes and weights, n on each panel between
    consecutive edges, panel by panel."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    node, w = _legendre(n)
    return (mid + half * node).ravel(), (half * w).ravel()


def _axes(dp):
    """alpha_star and the columns p, q of the canonical form Z = p X + q Y.

    With u = alpha / alpha_star (e1 when alpha = 0) and c the vector with
    c'Omegabar u = 0 and c'Omegabar c = 1, p = Omegabar u and q = Omegabar
    c = sqrt(1 - lam^2) (-u2, u1).  Then z'Omegabar^-1 z = x^2 + y^2 and
    alpha'Z = alpha_star X: Y ~ N(0, 1) is independent of X, whose density
    is phi(x) Phi(tau den + alpha_star x) / Phi(tau), and t does not vary
    along Y (Azzalini & Capitanio 1999).  u is formed from alpha over its
    largest entry, whose alpha_star^2 cannot underflow, so -alpha gets
    exactly -u, -p and -q at every alpha != 0.
    """
    lam = _lam(dp)
    alpha_star = math.sqrt(_alpha_star_sq(lam, dp.alpha1, dp.alpha2))
    big = max(abs(dp.alpha1), abs(dp.alpha2))
    if big > 0.0:
        a1, a2 = dp.alpha1 / big, dp.alpha2 / big
        norm = math.sqrt(_alpha_star_sq(lam, a1, a2))
        u1, u2 = a1 / norm, a2 / norm
    else:
        u1, u2 = 1.0, 0.0
    s = math.sqrt(1.0 - lam * lam)
    return alpha_star, (u1 + lam * u2, lam * u1 + u2), (-s * u2, s * u1)


def _x_rule(tau, alpha_star, n):
    """Nodes, log weights, zeta1(t) and zeta1(t) - zeta1(tau) for X,
    whose density is phi(x) Phi(t) / Phi(tau) with t = tau den +
    alpha_star x.

    Gauss-Legendre with n nodes on each panel.  The interval is split
    where t = -_KNEE and t = _KNEE, wherever those points fall inside it,
    so that the knee of zeta1(t) gets panels of its own.  The weights are
    formed in log space, so a deep truncation (tau << 0) neither
    underflows nor overflows.  t does not vary along Y, so this one pass
    of the ladder (see zeta_pair) gives the log weights and the zeta1 of
    every node on the X node's line.
    """
    den = math.sqrt(1.0 + alpha_star * alpha_star)
    delta, reach = alpha_star / den, math.sqrt(_SPAN_SQ) / den
    lo = -tau * delta - reach
    hi = delta * math.sqrt(max(-tau, 0.0) ** 2 + _SPAN_SQ) + reach
    knees = ([(k - tau * den) / alpha_star for k in (-_KNEE, _KNEE)]
             if alpha_star > 0.0 else [])
    edges = np.array([lo, *(k for k in knees if lo < k < hi), hi])
    x, w = _panels(edges, n)
    # t - tau = tau (den - 1) + alpha_star x, den - 1 formed without
    # cancellation
    h = tau * alpha_star * alpha_star / (1.0 + den) + alpha_star * x
    at, diff = zeta_pair(tau, h, 1)
    return x, np.log(w) - 0.5 * x * x - LOG_RT2PI + diff[0], at[1], diff[1]


def _gram_factor(dp, rows, x_rule, y_rule=_Y_RULE):
    """Triangular R with R'R the rule's E[b b'] at dp, b = rows(dp, z1,
    z2, zeta1, diff1).

    The rule is the X nodes, log weights and zeta values x_rule (see
    _x_rule) times the Y nodes and log weights y_rule: node j k + l,
    k = len(y_rule[0]), is X node j and Y node l, at Z = p x_j + q y_l
    (see _axes), and its zeta1(t) and zeta1(t) - zeta1(tau) are X node
    j's.  rows returns one row of b per node, and one QR of the weighted
    rows gives R.  At the mirror image alpha -> -alpha, p and q change
    sign exactly, so every node is mirrored exactly and the weights and
    zeta values are unchanged.
    """
    _, (p1, p2), (q1, q2) = _axes(dp)
    (x, log_wx, zeta1, diff1), (y, log_wy) = x_rule, y_rule
    z1 = (p1 * x[:, None] + q1 * y).ravel()
    z2 = (p2 * x[:, None] + q2 * y).ravel()
    root_w = np.exp(0.5 * (log_wx[:, None] + log_wy)).ravel()
    k = len(y)
    a = rows(dp, z1, z2, np.repeat(zeta1, k), np.repeat(diff1, k))
    return np.linalg.qr(a * root_w[:, None], mode="r")


@dataclass(frozen=True)
class _GramRule:
    """What _gram_rule found.

    factor is the finest rule's R (None when the budget admits no rule);
    gap is the largest entrywise difference between the last two rules'
    R'R (inf before two have run); nodes is summed over the rules tried.
    """
    factor: object
    converged: bool
    gap: float
    nodes: int


def _agree(gram, prev, controls):
    """The largest entrywise gap between two rules' E[b b'], and whether
    every entry is within max(abs_tol, rel_tol sqrt(M_ii M_jj)) of it, M
    = gram, the finer rule's."""
    diff = np.abs(gram - prev)
    scale = np.sqrt(np.diag(gram))
    bound = np.maximum(controls.abs_tol,
                       controls.rel_tol * np.outer(scale, scale))
    return float(diff.max()), bool(np.all(diff <= bound))


def _gram_rule(dp, rows, controls=None):
    """E[b b'] = R'R at dp, for b = rows(dp, z1, z2, zeta1, diff1), to the
    controls (see _gram_factor).

    The rule integrates at dp as given.  Mirror images alpha -> -alpha
    get exactly mirrored nodes, the same weights and the same zeta
    values, so where rows changes only by column signs S under the
    mirror, the mirror's R is R S, bit for bit.  Rules grow by _GROWTH
    from _FIRST_NODES until two in a row agree (see _agree).  A rule that
    would take the node count past max_evals, or its X panels past
    _MAX_NODES nodes, is not run, and the result is then flagged
    unconverged with the last gap.
    """
    controls = controls or CubatureControls()
    alpha_star = _axes(dp)[0]
    r = prev = None
    gap = math.inf
    used = 0
    n = _FIRST_NODES
    while n <= _MAX_NODES:
        x_rule = _x_rule(dp.tau, alpha_star, n)
        nodes = len(x_rule[0]) * len(_Y_RULE[0])
        if used + nodes > controls.max_evals:
            break
        used += nodes
        r = _gram_factor(dp, rows, x_rule)
        gram = r.T @ r
        if prev is not None:
            gap, converged = _agree(gram, prev, controls)
            if converged:
                return _GramRule(r, True, gap, used)
        prev = gram
        n = round(n * _GROWTH)
    return _GramRule(r, False, gap, used)

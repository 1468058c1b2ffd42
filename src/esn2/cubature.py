"""Every quadrature of the package: a positive-weight Gram rule for
expectations of outer products under the standardized model, the
Gauss-Legendre panels it and the validation grids are built from, and
adaptive cubature over rectangles.

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
zeta1(t) and gets Gauss-Legendre panels that grow from rule to rule,
while along Y, b is a polynomial of degree <= 2: three Gauss-Hermite
nodes integrate b b' there exactly.  One QR takes A to its triangular
factor R, so E[b b'] = R'R, with no subtraction anywhere: diagonal
entries are nonnegative and a Gram matrix is positive semidefinite by
construction.

`_panels` places n Gauss-Legendre nodes on each panel between given
edges.  Three rules take their nodes from it: the Gram rule's X axis, and
in validation the chi-square test's cell masses and the Lemma 4 check's
product grid, 4 panels of 32 nodes on each axis of a box of +-9 marginal
sd.

The adaptive cubature applies a degree-7 rule with an embedded degree-5
companion on [-1, 1]^2, scaled to subrectangles.  The rule difference
drives a priority queue: the region with the largest error estimate is
split at the midpoint of its longer axis (ties broken toward the x axis,
queue ties by insertion order), so a given integrand always refines the
same way and results are bitwise reproducible.  Integrands receive
ndarray arguments and must evaluate elementwise; worst regions are popped
in small batches so one integrand call covers all their rule points.  No
production path calls it: the tests keep it as the oracle, independent of
the fixed rules, that those rules are checked against.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import _alpha_star_sq, _lam
from .special_fns import LOG_RT2PI, zeta_pair

_L2 = math.sqrt(9.0 / 70.0)
_L3 = math.sqrt(9.0 / 10.0)
_L5 = math.sqrt(9.0 / 19.0)

# Point layout: center; +-l2 on each axis; +-l3 on each axis; the four
# (+-l3, +-l3) combinations; the four (+-l5, +-l5) corners.
_PTS_X = np.array([0.0, _L2, -_L2, 0.0, 0.0, _L3, -_L3, 0.0, 0.0,
                   _L3, _L3, -_L3, -_L3, _L5, _L5, -_L5, -_L5])
_PTS_Y = np.array([0.0, 0.0, 0.0, _L2, -_L2, 0.0, 0.0, _L3, -_L3,
                   _L3, -_L3, _L3, -_L3, _L5, -_L5, _L5, -_L5])

_W7 = np.array([-15264.0 / 19683]
               + [3920.0 / 6561] * 4
               + [4080.0 / 19683] * 4
               + [800.0 / 19683] * 4
               + [6859.0 / 19683] * 4)
# The degree-5 companion reuses the first 13 points; corners get zero weight.
_W5 = np.array([-3884.0 / 729]
               + [980.0 / 486] * 4
               + [130.0 / 729] * 4
               + [100.0 / 729] * 4
               + [0.0] * 4)

_RULE_SIZE = 17
_MAX_BATCH = 16


class NonFiniteIntegrand(ValueError):
    """Integrand returned NaN or infinity at an evaluation point."""


class CubatureNotConverged(RuntimeError):
    """A quadrature rule could not reach its error tolerance."""


@dataclass(frozen=True)
class CubatureControls:
    """Stopping rules for integrate_2d and the Gram rule.

    For integrate_2d, max_evals counts integrand evaluations.  For the
    Gram rule (expected_info, det_scan and a_terms) it counts rule nodes,
    3 per X node, summed over the rules tried, and rel_tol and abs_tol
    bound the gap between the last two rules.
    """
    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_evals: int = 1_000_000


@dataclass(frozen=True)
class CubatureResult:
    """Integral estimate with its accumulated error bound.

    converged is True only when error_estimate <= max(abs_tol,
    rel_tol * |value|) within the evaluation budget.
    """
    value: float
    error_estimate: float
    evals: int
    converged: bool


def _eval_regions(f, regions):
    """Apply the rule pair to each (ax, bx, ay, by); one integrand call."""
    k = len(regions)
    xs = np.empty(k * _RULE_SIZE)
    ys = np.empty(k * _RULE_SIZE)
    for i, (ax, bx, ay, by) in enumerate(regions):
        cx, hx = 0.5 * (ax + bx), 0.5 * (bx - ax)
        cy, hy = 0.5 * (ay + by), 0.5 * (by - ay)
        sl = slice(i * _RULE_SIZE, (i + 1) * _RULE_SIZE)
        xs[sl] = cx + hx * _PTS_X
        ys[sl] = cy + hy * _PTS_Y
    vals = np.asarray(f(xs, ys), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {xs.shape}")
    if not np.all(np.isfinite(vals)):
        j = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NonFiniteIntegrand(
            f"integrand is not finite at ({xs[j]!r}, {ys[j]!r})")
    vals = vals.reshape(k, _RULE_SIZE)
    out = []
    for i, (ax, bx, ay, by) in enumerate(regions):
        scale = 0.25 * (bx - ax) * (by - ay)
        i7 = scale * float(vals[i] @ _W7)
        i5 = scale * float(vals[i] @ _W5)
        out.append((i7, abs(i7 - i5)))
    return out


def integrate_2d(f, lower, upper, controls=None):
    """Integrate f over the rectangle [lower[0], upper[0]] x [lower[1], upper[1]].

    Parameters
    ----------
    f : callable
        f(x, y) with ndarray arguments, returning elementwise values of the
        same shape.  Must be finite at every evaluation point.
    lower, upper : sequence of 2 floats
        Rectangle corners, finite with upper > lower componentwise.
    controls : CubatureControls, optional

    Returns
    -------
    CubatureResult
        Budget exhaustion is reported through converged=False with the best
        available estimate, never an exception.
    """
    controls = controls or CubatureControls()
    ax, ay = float(lower[0]), float(lower[1])
    bx, by = float(upper[0]), float(upper[1])
    if not all(map(math.isfinite, (ax, ay, bx, by))):
        raise ValueError("integration bounds must be finite")
    if not (bx > ax and by > ay):
        raise ValueError("upper bounds must exceed lower bounds")

    # A single coarse pass can mistake a localized integrand for zero (all
    # 17 points miss the mass, so value and error both come back ~0), so
    # adaptation starts from a fixed 4x4 partition of the rectangle.
    gx = np.linspace(ax, bx, 5)
    gy = np.linspace(ay, by, 5)
    initial = [(gx[i], gx[i + 1], gy[j], gy[j + 1])
               for i in range(4) for j in range(4)]
    results = _eval_regions(f, initial)
    evals = len(initial) * _RULE_SIZE
    value = 0.0
    total_err = 0.0
    heap = []
    counter = 0
    for region, (rval, rerr) in zip(initial, results):
        value += rval
        total_err += rerr
        heap.append((-rerr, counter, region, rval, rerr))
        counter += 1
    heapq.heapify(heap)

    def done():
        return total_err <= max(controls.abs_tol,
                                controls.rel_tol * abs(value))

    while not done() and heap:
        budget = (controls.max_evals - evals) // (2 * _RULE_SIZE)
        if budget <= 0:
            break
        take = min(_MAX_BATCH, budget, len(heap))
        parents = [heapq.heappop(heap) for _ in range(take)]
        children = []
        for _, _, (pax, pbx, pay, pby), _, _ in parents:
            if pbx - pax >= pby - pay:
                mid = 0.5 * (pax + pbx)
                children.append((pax, mid, pay, pby))
                children.append((mid, pbx, pay, pby))
            else:
                mid = 0.5 * (pay + pby)
                children.append((pax, pbx, pay, mid))
                children.append((pax, pbx, mid, pby))
        results = _eval_regions(f, children)
        evals += len(children) * _RULE_SIZE
        for (_, _, _, pval, perr) in parents:
            value -= pval
            total_err -= perr
        for region, (cval, cerr) in zip(children, results):
            value += cval
            total_err += cerr
            heapq.heappush(heap, (-cerr, counter, region, cval, cerr))
            counter += 1

    return CubatureResult(value=value, error_estimate=total_err,
                          evals=evals, converged=done())


# X = delta* V + W / den, V ~ N(0, 1) truncated to V > -tau, W ~ N(0, 1) and
# delta* = alpha_star / den, so X spans V's span, -tau to v_top with
# v_top^2 = max(-tau, 0)^2 + 80 (phi(v_top) <= e^-40 phi(-tau)), times
# delta*, widened by the bulk of phi, sqrt(80), over den
_SPAN_SQ = 80.0
# zeta1(t) turns from linear to phi-like for t within _KNEE of 0, so the X
# panels split where t = -_KNEE and t = _KNEE
_KNEE = 8.0
# the first rule has 24 nodes per X panel and each later rule 1.5 times as
# many.  At the default tolerance the fit truths of bench/points.py kept
# 10.3 digits from a first rule of 8 or 12 and 13.3 from 16 or 24; 24
# converges with fewer nodes in all.  leggauss takes memory quadratic in
# its node count, so no rule has more than _MAX_NODES per panel.  With at
# most 3 X panels and 3 Y nodes, a rule has at most 3 x 400 x 3 = 3,600
# rows, which _gram_factor takes in one QR
_FIRST_NODES = 24
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
    """Nodes and log weights for X, whose density is phi(x) Phi(t) /
    Phi(tau) with t = tau den + alpha_star x.

    Gauss-Legendre with n nodes on each panel.  The interval is split
    where t = -_KNEE and t = _KNEE, wherever those points fall inside it,
    so that the knee of zeta1(t) gets panels of its own.  The weights are
    formed in log space, so a deep truncation (tau << 0) neither
    underflows nor overflows.
    """
    den = math.sqrt(1.0 + alpha_star * alpha_star)
    delta, reach = alpha_star / den, math.sqrt(_SPAN_SQ) / den
    lo = -tau * delta - reach
    hi = delta * math.sqrt(max(-tau, 0.0) ** 2 + _SPAN_SQ) + reach
    knees = ([(k - tau * den) / alpha_star for k in (-_KNEE, _KNEE)]
             if alpha_star > 0.0 else [])
    edges = np.array([lo, *(k for k in knees if lo < k < hi), hi])
    x, w = _panels(edges, n)
    # zeta0(t) - zeta0(tau), with t - tau formed as the kernel forms it
    h = tau * alpha_star * alpha_star / (1.0 + den) + alpha_star * x
    return x, (np.log(w) - 0.5 * x * x - LOG_RT2PI
               + zeta_pair(tau, h, 0)[1][0])


def _gram_factor(dp, rows, x_rule, y_rule=_Y_RULE):
    """Triangular R with R'R the rule's E[b b'] at dp, b = rows(dp, z1, z2).

    The rule is the X nodes and log weights x_rule times the Y nodes and
    log weights y_rule: node j k + l, k = len(y_rule[0]), is X node j and
    Y node l, at Z = p x_j + q y_l (see _axes).  rows returns one row of b
    per node, and one QR of the weighted rows gives R.  At the mirror
    image alpha -> -alpha, p and q change sign exactly, so every node is
    mirrored exactly and the weights are unchanged.
    """
    _, (p1, p2), (q1, q2) = _axes(dp)
    (x, log_wx), (y, log_wy) = x_rule, y_rule
    z1 = (p1 * x[:, None] + q1 * y).ravel()
    z2 = (p2 * x[:, None] + q2 * y).ravel()
    root_w = np.exp(0.5 * (log_wx[:, None] + log_wy)).ravel()
    a = rows(dp, z1, z2) * root_w[:, None]
    return np.linalg.qr(a, mode="r")


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


def _gram_rule(dp, rows, controls=None):
    """E[b b'] = R'R at dp, for b = rows(dp, z1, z2), to the controls.

    The rule integrates at dp as given.  Mirror images alpha -> -alpha
    get exactly mirrored nodes and the same weights, so where rows(dp, z)
    changes only by column signs S under the mirror, the mirror's R is
    R S, bit for bit.  Rules grow by _GROWTH until two in a row agree in
    every entry to within max(abs_tol, rel_tol sqrt(M_ii M_jj)), M the
    finer one's R'R.  A rule that would take the node count past
    max_evals, or its X panels past _MAX_NODES nodes, is not run, and the
    result is then flagged unconverged with the last gap.
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
            diff = np.abs(gram - prev)
            gap = float(diff.max())
            scale = np.sqrt(np.diag(gram))
            bound = np.maximum(controls.abs_tol,
                               controls.rel_tol * np.outer(scale, scale))
            if np.all(diff <= bound):
                return _GramRule(r, True, gap, used)
        prev = gram
        n = round(n * _GROWTH)
    return _GramRule(r, False, gap, used)

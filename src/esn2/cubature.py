"""Every quadrature of the package: a positive-weight Gram rule for
expectations of outer products under the standardized model, and adaptive
cubature over rectangles.

The Gram rule integrates E[b(Z) b(Z)'] for a row function b of the
standardized bivariate extended skew-normal Z, as A'A, where row k of A is
sqrt(w_k) b(z_k) and every weight w_k is positive.  expected_info takes
b = s, the score (8 columns); the paper's a-terms take
b = zeta1(T) (1, Z1, Z2) (3 columns).  The nodes sit in the
hidden-truncation coordinates Z = delta V + L W with L L' = C =
Omegabar - delta delta', where V is N(0, 1) truncated to V > -tau
(Gauss-Legendre, in panels) and W is N_2(0, I).  Both row functions
depend on Z nonlinearly only through t = tau den + alpha'Z, and t sees W
only along q = L'alpha / |L'alpha|.  So W is rotated into W1' = q'W,
which carries all of zeta1(t) and gets a Gauss-Hermite rule that grows
with the V rule, and the orthogonal W2', along which b is a polynomial
of degree <= 2: three Gauss-Hermite nodes integrate b b' there exactly.
A is folded block by block into its triangular factor R, so
E[b b'] = R'R, with no subtraction anywhere: diagonal entries are
nonnegative and a Gram matrix is positive semidefinite by construction.

The adaptive cubature applies a degree-7 rule with an embedded degree-5
companion on [-1, 1]^2, scaled to subrectangles.  The rule difference
drives a priority queue: the region with the largest error estimate is
split at the midpoint of its longer axis (ties broken toward the x axis,
queue ties by insertion order), so a given integrand always refines the
same way and results are bitwise reproducible.  Integrands receive
ndarray arguments and must evaluate elementwise; worst regions are popped
in small batches so one integrand call covers all their rule points.
"""

import functools
import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .model import _alpha_star_sq, _conditional_factor, _lam, delta_vector
from .special_fns import LOG_RT2PI, zeta

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


@dataclass(frozen=True)
class CubatureControls:
    """Stopping rules for integrate_2d and the Gram rule.

    For integrate_2d, max_evals counts integrand evaluations; for the
    Gram rule (expected_info, det_scan and a_terms) it counts rule nodes,
    summed over the rules tried, and rel_tol and abs_tol bound the gap
    between the last two rules.
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


# the V interval runs from -tau to v_top, v_top^2 = max(-tau, 0)^2 + 80,
# where phi(v_top) is at most e^-40 times phi at the interval's start;
# phi itself has its bulk on [-sqrt(80), sqrt(80)]
_V_SPAN_SQ = 80.0
# zeta1(T) turns from linear to phi-like within about _KNEE / alpha_star
# of the truncation point, so the first V panel ends there
_KNEE = 8.0
# the first rule has 8 nodes per V panel and 16 on W1'; each later rule
# has 1.5 times as many.  W1' carries all of zeta1(t)'s variation: with
# as many nodes as a V panel, the second fit truth of bench/points.py
# kept 8.5 digits by the default tolerance, against 11.2 with twice as many
_FIRST_NODES = 8
_W1_PER_V = 2
_GROWTH = 1.5
# at fixed (V, W1'), b b' is a polynomial of degree <= 4 in W2', which the
# 3-node Gauss-Hermite rule integrates exactly
_W2_NODES = 3
# nodes folded into the triangular factor at a time
_BLOCK = 8192


@functools.lru_cache(maxsize=32)
def _legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=32)
def _hermite(n):
    """Read-only Gauss-Hermite nodes and log weights for N(0, 1)."""
    # from 372 nodes on the weights are NaN, which _gram_rule refuses
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite_e.hermegauss(n)
        log_w = np.log(w) - LOG_RT2PI
    x.flags.writeable = log_w.flags.writeable = False
    return x, log_w


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
    x, w = _legendre(n)
    v, log_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        v.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        log_w.append(np.log(0.5 * (b - a) * w))
    v = np.concatenate(v)
    return v, np.concatenate(log_w) - 0.5 * v * v - LOG_RT2PI - zeta(0, tau)


def _w_rule(dp, m, k):
    """The W part of the rule: the offsets L W of Z, and log weights.

    W is rotated to W1' = q'W and W2' = q_perp'W, with q = L'alpha /
    |L'alpha| (e1 when alpha = 0) and q_perp = (-q2, q1).  Then
    alpha'L W = |L'alpha| W1', so t does not vary along W2'.  W1' gets m
    Gauss-Hermite nodes and W2' gets k; node j k + l is W1' node j and
    W2' node l.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        The offsets of z1 and of z2, and the log weights, each (m k,).
    """
    _, l11, l21, l22 = _conditional_factor(_lam(dp), dp.alpha1, dp.alpha2)
    c1 = l11 * dp.alpha1 + l21 * dp.alpha2
    c2 = l22 * dp.alpha2
    norm = math.hypot(c1, c2)
    q1, q2 = (c1 / norm, c2 / norm) if norm > 0.0 else (1.0, 0.0)
    x, log_wx = _hermite(m)
    y, log_wy = _hermite(k)
    x = x[:, None]
    dz1 = l11 * q1 * x - l11 * q2 * y
    dz2 = (l21 * q1 + l22 * q2) * x + (l22 * q1 - l21 * q2) * y
    return dz1.ravel(), dz2.ravel(), (log_wx[:, None] + log_wy).ravel()


def _gram_factor(dp, rows, v, log_wv, w_rule):
    """Triangular R with R'R the rule's E[b b'] at dp, b = rows(dp, z1, z2).

    The rule is the V nodes v with log weights log_wv times the W nodes
    w_rule of _w_rule: node (i, j) is V node i and W node j, at
    Z = delta v_i + (L W)_j.  rows returns one row of b per node.  Nodes
    are folded into R _BLOCK at a time by QR of [R; block], so memory
    does not grow with the node count.
    """
    d = delta_vector(_lam(dp), dp.alpha1, dp.alpha2)
    dz1, dz2, log_ww = w_rule
    per_v = len(log_ww)
    total = len(v) * per_v
    r = None
    for start in range(0, total, _BLOCK):
        i, j = np.divmod(np.arange(start, min(start + _BLOCK, total)), per_v)
        z1 = d.delta1 * v[i] + dz1[j]
        z2 = d.delta2 * v[i] + dz2[j]
        root_w = np.exp(0.5 * (log_wv[i] + log_ww[j]))
        block = rows(dp, z1, z2) * root_w[:, None]
        if r is not None:
            block = np.vstack([r, block])
        r = scipy.linalg.qr(block, mode="r", check_finite=False)[0]
        r = r[:block.shape[1]]
    return r


@dataclass(frozen=True)
class _GramRule:
    """What _gram_rule found.

    factor is the finest rule's R (None when the budget admits no rule);
    flipped says whether dp was mirrored to its canonical alpha sign; gap
    is the largest entrywise difference between the last two rules' R'R
    (inf before two have run); nodes is summed over the rules tried.
    """
    factor: object
    flipped: bool
    converged: bool
    gap: float
    nodes: int


def _gram_rule(dp, rows, controls=None):
    """E[b b'] = R'R at dp, for b = rows(dp, z1, z2), to the controls.

    The rule runs at the canonical alpha sign (alpha1 > 0, or alpha1 = 0
    and alpha2 >= 0), so mirror images alpha -> -alpha share one rule,
    bit for bit; the caller maps the result back.  Rules grow by _GROWTH
    until two in a row agree in every entry to within
    max(abs_tol, rel_tol sqrt(M_ii M_jj)), M the finer one's R'R.  A rule
    that would take the node count past max_evals is not run, nor one whose
    Gauss-Hermite weights are NaN (numpy's from 372 nodes on), and the
    result is then flagged unconverged with the last finite gap.
    """
    controls = controls or CubatureControls()
    flip = dp.alpha1 < 0.0 or (dp.alpha1 == 0.0 and dp.alpha2 < 0.0)
    if flip:
        dp = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    alpha_star = math.sqrt(_alpha_star_sq(_lam(dp), dp.alpha1, dp.alpha2))
    r = prev = None
    gap = math.inf
    used = 0
    n = _FIRST_NODES
    while True:
        v, log_wv = _v_rule(dp.tau, alpha_star, n)
        m = _W1_PER_V * n
        nodes = len(v) * m * _W2_NODES
        if (used + nodes > controls.max_evals
                or np.isnan(_hermite(m)[1]).any()):
            return _GramRule(r, flip, False, gap, used)
        used += nodes
        r = _gram_factor(dp, rows, v, log_wv, _w_rule(dp, m, _W2_NODES))
        gram = r.T @ r
        if prev is not None:
            diff = np.abs(gram - prev)
            gap = float(diff.max())
            scale = np.sqrt(np.diag(gram))
            bound = np.maximum(controls.abs_tol,
                               controls.rel_tol * np.outer(scale, scale))
            if np.all(diff <= bound):
                return _GramRule(r, flip, True, gap, used)
        prev = gram
        n = round(n * _GROWTH)

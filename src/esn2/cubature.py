"""Adaptive cubature over rectangles with an embedded 17-point rule pair.

A degree-7 rule with an embedded degree-5 companion is applied on [-1, 1]^2
and scaled to subrectangles.  The rule difference drives a priority queue:
the region with the largest error estimate is split at the midpoint of its
longer axis (ties broken toward the x axis, queue ties by insertion order),
so a given integrand always refines the same way and results are bitwise
reproducible.

Integrands receive ndarray arguments and must evaluate elementwise; worst
regions are popped in small batches so one integrand call covers all their
rule points.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

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
    """Stopping rules for integrate_2d and the expected-information rule.

    For integrate_2d, max_evals counts integrand evaluations; for the
    Gram rule of expected_info and det_scan it counts rule nodes, summed
    over the rules tried.
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

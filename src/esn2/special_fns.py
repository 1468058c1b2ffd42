"""The log-cdf derivative ladder of the standard normal.

zeta(0, x) = log Phi(x), zeta(1, x) = phi(x) / Phi(x) is the inverse Mills
ratio, and zeta(2, x) = zeta1'(x) = -(x zeta1 + zeta1^2).  Far left-tail
arguments are routed through a Mills-ratio asymptotic series so the ladder
stays finite and fully accurate long after Phi itself underflows.

zeta accepts scalars or ndarrays and is elementwise.
"""

import functools
import math

import numpy as np
from scipy.special import erfc

RT2 = math.sqrt(2.0)
RT2PI = math.sqrt(2.0 * math.pi)
LOG_RT2PI = 0.5 * math.log(2.0 * math.pi)

# Below this the cdf ratio is formed from the asymptotic series instead of
# erfc.  At x = -10 the series already bottoms out under machine epsilon.
_TAIL_CUT = -10.0
_TAIL_MAX_TERMS = 40

# zeta_pair sums the Taylor series of zeta1 about tau for
# |h| <= _SHIFT_REACH / max(1, |tau|).  Zeta1's poles, the zeros of Phi,
# are at least 2.8 from the real axis, so 17 terms leave a truncation error
# below 1e-17 of the leading term.  For tau > 1 zeta1 falls off like
# exp(-tau h), whose series needs the window narrowed by 1 / tau.  For
# tau < -1 the recurrence carries the rounding d0 of zeta1(tau) into order
# k as d0 |tau|^k / k!, since x + 2 zeta1 is about |tau| there, so the
# series is off by about d0 exp(|tau h|) and the window is narrowed by
# 1 / |tau| too.  Past the window the plain difference loses at most
# about eps |zeta1(tau) / h| <= 4 eps tau^2 of its relative accuracy.
_SHIFT_REACH = 0.25
_SHIFT_TERMS = 17


def _mills_sums(x):
    """Asymptotic sums for the left tail, x <= _TAIL_CUT.

    Returns (S, S - 1) where Phi(x) = phi(x) / (-x) * S and
    S = 1 - 1/x^2 + 3/x^4 - 15/x^6 + ...  The tail sum S - 1 is kept
    separately so callers can avoid cancellation against the leading 1.
    """
    inv2 = 1.0 / (x * x)
    term = -inv2
    tail = term.copy()
    for k in range(2, _TAIL_MAX_TERMS + 1):
        term = term * (-(2 * k - 1) * inv2)
        tail += term
        if np.all(np.abs(term) <= 1e-18):
            break
    return 1.0 + tail, tail


def _ladder(x, order):
    """[zeta(0, x), ..., zeta(order, x)] for a float array x, in one pass.

    One erfc gives m = Phi(-|x|), so Phi is m or 1 - m, and log Phi is
    log m or log1p(-m), which keeps its precision where Phi is near 1.
    These run on x clamped at _TAIL_CUT, where they stay finite; one tail
    mask then overwrites the left tail from one Mills-ratio sum.
    """
    xb = np.maximum(x, _TAIL_CUT)
    m = 0.5 * erfc(np.abs(xb) / RT2)
    neg = xb < 0.0
    cdf = np.where(neg, m, 1.0 - m)
    out = [np.where(neg, np.log(cdf), np.log1p(-m))]
    if order >= 1:
        out.append(np.exp(-0.5 * xb * xb) / RT2PI / cdf)
    if order == 2:
        out.append(-out[1] * (xb + out[1]))
    tail = x < _TAIL_CUT
    if not tail.any():
        return out
    xt = x[tail]
    # Phi(xt) = phi(xt) / zeta1(xt) with zeta1(xt) = -xt / s; zeta2 =
    # -zeta1 (x + zeta1), where x + zeta1 = x (s - 1) / s is formed from the
    # tail sum, so the near-total cancellation never happens
    s, sm1 = _mills_sums(xt)
    at_tail = (-0.5 * xt * xt - LOG_RT2PI - np.log(-xt / s), -xt / s,
               xt * xt * sm1 / (s * s))
    for z, zt in zip(out, at_tail):
        z[tail] = zt
    return out


def zeta(m, x):
    """Derivative ladder of log Phi.

    Parameters
    ----------
    m : int
        Order: 0 for log Phi(x), 1 for phi(x)/Phi(x), 2 for the derivative
        of order 1.
    x : float or ndarray
        Finite argument(s).

    Returns
    -------
    float or ndarray

    Notes
    -----
    zeta1 > 0 and zeta2 in (-1, 0) hold for every argument where phi is
    representable; zeta1 decays like phi(x) for large positive x and grows
    like -x + 1/|x| for large negative x.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1, or 2, got {m!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float, copy=False)
    out = _ladder(arr, m)[m]
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=16)
def _at_tau(tau):
    """zeta(0..2, tau) and the Taylor coefficients of zeta1 about a float
    tau: zeta_pair's part that chunked callers repeat for every block."""
    at_tau = [float(v[0]) for v in _ladder(np.array([tau]), 2)]
    c = at_tau[1:]
    for k in range(1, _SHIFT_TERMS):
        # order k of x zeta1 + zeta1^2, with x = tau + h
        rhs = (tau * c[k] + sum(c[i] * c[k - i] for i in range(k + 1))
               + c[k - 1])
        c.append(-rhs / (k + 1))
    return tuple(at_tau), tuple(c)


def zeta_pair(tau, h, order):
    """The ladder at t = tau + h, paired with its differences from tau.

    tau is a scalar and h an ndarray.  Returns (at, diff), two lists of
    order + 1 arrays: at[k] = zeta(k, t) and diff[k] = zeta(k, t) -
    zeta(k, tau).  For k >= 1 the plain difference loses all but
    |h zeta(k + 1) / zeta(k)| of its relative accuracy as h -> 0, so near
    tau it is summed instead from the Taylor series of zeta1 about tau,
    or from its derivative for k = 2.  The coefficients after zeta1(tau)
    and zeta2(tau) follow one order at a time from the Riccati equation
    zeta1' = -zeta1 (x + zeta1).  The recurrence amplifies the rounding of
    zeta1(tau) by |tau h|^k / k! at order k, so the window shrinks as
    1 / |tau| on both sides of 0 (see _SHIFT_REACH).
    """
    h = np.asarray(h, dtype=float)
    at = _ladder(tau + h, order)
    at_tau, c = _at_tau(float(tau))
    diff = [a - b for a, b in zip(at, at_tau)]
    near = np.abs(h) <= _SHIFT_REACH / max(1.0, abs(tau))
    if order == 0 or not near.any():
        return at, diff
    hn = h[near]
    for j in range(1, order + 1):
        # zeta(j, t) - zeta(j, tau) is derivative j - 1 of sum c_k h^k
        series = np.zeros_like(hn)
        for k in range(_SHIFT_TERMS, j - 1, -1):
            series = series * hn + math.perm(k, j - 1) * c[k]
        diff[j][near] = series * hn
    return at, diff

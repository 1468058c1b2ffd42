"""Standard normal pdf, cdf, and the log-cdf derivative ladder.

zeta(0, x) = log Phi(x), zeta(1, x) = phi(x) / Phi(x) is the inverse Mills
ratio, and zeta(2, x) = zeta1'(x) = -(x zeta1 + zeta1^2).  Far left-tail
arguments are routed through a Mills-ratio asymptotic series so the ladder
stays finite and fully accurate long after Phi itself underflows.

All three functions accept scalars or ndarrays and are elementwise.
"""

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

# zeta1_pair sums the Taylor series of zeta1 about tau for
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


def _as_finite_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def std_normal_pdf(x):
    """Standard normal density phi(x).

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s).

    Returns
    -------
    float or ndarray
    """
    arr = _as_finite_array(x, "x")
    out = np.exp(-0.5 * arr * arr) / RT2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal distribution function Phi(x).

    Monotone, with Phi(x) + Phi(-x) = 1 to rounding.  Deep left-tail values
    may underflow to 0.0 but never produce NaN.
    """
    arr = _as_finite_array(x, "x")
    out = 0.5 * erfc(-arr / RT2)
    return float(out) if out.ndim == 0 else out


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


def _zeta1_raw(x):
    out = np.empty_like(x)
    tail = x < _TAIL_CUT
    if np.any(tail):
        xt = x[tail]
        s, _ = _mills_sums(xt)
        out[tail] = -xt / s
    rest = ~tail
    if np.any(rest):
        xr = x[rest]
        pdf = np.exp(-0.5 * xr * xr) / RT2PI
        out[rest] = pdf / (0.5 * erfc(-xr / RT2))
    return out


def _zeta0_raw(x):
    out = np.empty_like(x)
    tail = x < _TAIL_CUT
    if np.any(tail):
        xt = x[tail]
        # log Phi = log phi - log zeta1; exact far beyond cdf underflow
        s, _ = _mills_sums(xt)
        out[tail] = -0.5 * xt * xt - LOG_RT2PI - np.log(-xt / s)
    mid = (~tail) & (x < 0)
    if np.any(mid):
        xm = x[mid]
        out[mid] = np.log(0.5 * erfc(-xm / RT2))
    pos = x >= 0
    if np.any(pos):
        # log(1 - Q) through log1p keeps precision when Phi is near 1
        xp = x[pos]
        out[pos] = np.log1p(-0.5 * erfc(xp / RT2))
    return out


def _zeta2_raw(x):
    out = np.empty_like(x)
    tail = x < _TAIL_CUT
    if np.any(tail):
        xt = x[tail]
        # zeta2 = -zeta1 (x + zeta1) with x + zeta1 = x (S-1)/S, formed from
        # the tail sum directly so the near-total cancellation never happens
        s, sm1 = _mills_sums(xt)
        out[tail] = xt * xt * sm1 / (s * s)
    rest = ~tail
    if np.any(rest):
        xr = x[rest]
        z1 = _zeta1_raw(xr)
        out[rest] = -z1 * (xr + z1)
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
    arr = _as_finite_array(x, "x")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float, copy=False)
    if m == 0:
        out = _zeta0_raw(arr)
    elif m == 1:
        out = _zeta1_raw(arr)
    else:
        out = _zeta2_raw(arr)
    return float(out[0]) if scalar else out


def zeta1_pair(tau, h):
    """zeta(1, tau + h) and zeta(1, tau + h) - zeta(1, tau).

    tau is a scalar and h an ndarray.  The plain difference loses all but
    |h zeta2 / zeta1| of its relative accuracy as h -> 0, so near tau it is
    summed instead from the Taylor series of zeta1 about tau.  Its
    coefficients follow one order at a time from the Riccati equation
    zeta1' = -zeta1 (x + zeta1).  The recurrence amplifies the rounding of
    zeta1(tau) by |tau h|^k / k! at order k, so the window shrinks as
    1 / |tau| on both sides of 0 (see _SHIFT_REACH).
    """
    h = np.asarray(h, dtype=float)
    c = [zeta(1, tau)]
    for k in range(_SHIFT_TERMS):
        # order k of x zeta1 + zeta1^2, with x = tau + h
        rhs = tau * c[k] + sum(c[i] * c[k - i] for i in range(k + 1))
        if k:
            rhs += c[k - 1]
        c.append(-rhs / (k + 1))
    at = zeta(1, tau + h)
    diff = at - c[0]
    near = np.abs(h) <= _SHIFT_REACH / max(1.0, abs(tau))
    hn = h[near]
    series = np.zeros_like(hn)
    for ck in reversed(c[1:]):
        series = (series + ck) * hn
    diff[near] = series
    return at, diff

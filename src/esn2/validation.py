"""Independent oracles: finite differences, an exact sampler, checks.

The derivative probes treat the log-likelihood as a black-box function
of the 8-vector theta.  The sampler draws the hidden-truncation
construction directly: the hidden variable by inverse cdf, the pair
given it as a Gaussian, with the factor C^{1/2} of C = Omegabar -
delta delta' from `model._conditional_factor`.  The expected
information's quadrature rule works in the canonical form instead, so
the two share no coordinates.  The sampler's independence from the
analytic machinery rests on two checks that share nothing with it: the
chi-square test of its histogram against Gauss-Legendre cell masses of
`density_esn2` (criterion 8) and the closed-form moments of `moments_esn2`
(criterion 9).  Lemma 4, E[zeta1(T)] = zeta1(tau) / sqrt(1 +
alpha_star^2), is checked against a direct integral of zeta1(T) times
`density_esn2` on one fixed Gauss-Legendre product grid over the box of
+-9 marginal sd: 4 panels of 32 nodes on each axis, 16,384 nodes in one
vectorized call.  The suite compares the routes and reports measured
maxima instead of raising.  Its points, sample sizes and finite-difference
steps are fixed; a run chooses only the seed and the level, "fast" or
"full" with the Monte Carlo oracles and the chi-square test.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chdtrc, log_ndtr, ndtri_exp

from .cubature import _panels
from .expectations import lemma4_expectation
from .expected_info import (_FLIP_SIGNS, _det_and_mineig, _info_factor,
                            expected_info)
from .likelihood import (_COL, _kernel, density_esn2, loglik, observed_info,
                         score)
from .model import (PARAM_NAMES, Dataset, DpParams, _alpha_star_sq,
                    _conditional_factor, _lam, _residuals, delta_vector,
                    validate)
from .special_fns import zeta

_CHUNK = 65536
# rows per block of the oracle's hessian rows: over blocks of 32768 the
# kernel's order-2 temporaries (33 values a row) made the allocator hand the
# heap back after every call, and a pass over 1e6 rows took 1.7 times as
# long on a 2-core Xeon, in page faults
_PASS = 2048
_SHRINK_ROUNDS = 20
# the sign patterns of the central difference and of the mixed stencil
_AXIS = ((1,), (-1,))
_CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_GRAD_STEP = 1e-6
_HESS_STEP = 1e-4


class FiniteDifferenceError(RuntimeError):
    """A probe point kept failing after the step was shrunk."""


@dataclass(frozen=True)
class RngSeed:
    """Sampler seed; the same value always yields the same stream."""
    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))


def _try_eval(f, theta):
    """f(theta) as a finite float, or None when the probe is unusable."""
    try:
        value = float(f(theta))
    except Exception:
        return None
    return value if math.isfinite(value) else None


def _probe(f, theta, coords, steps, signs, what):
    """f at theta + sum_k s_k h_k e_(coords k), for each sign pattern s in
    signs, halving every step h_k until all of them evaluate, e.g. while a
    probe pushes Omega12 past the positive-definiteness boundary.

    Returns
    -------
    (list of float, list of float)
        The steps used and f at each pattern, in the order of signs.
    """
    steps = [float(h) for h in steps]
    for _ in range(_SHRINK_ROUNDS):
        values = []
        for pattern in signs:
            p = theta.copy()
            for c, sign, h in zip(coords, pattern, steps):
                p[c] += sign * h
            values.append(_try_eval(f, p))
        if all(v is not None for v in values):
            return steps, values
        steps = [0.5 * h for h in steps]
    noun = "coordinate" if len(coords) == 1 else "coordinates"
    raise FiniteDifferenceError(f"{what} probe failed in {noun} "
                                + ", ".join(PARAM_NAMES[c] for c in coords))


def fd_gradient(f, at):
    """Central-difference gradient of f at the given parameter point.

    Steps start at 1e-6 * max(1, |theta_j|) and are halved while a probe
    lands outside the valid domain.
    """
    theta = at.as_array()
    grad = np.empty(8)
    for j in range(8):
        (h,), (f_up, f_down) = _probe(
            f, theta, (j,), (_GRAD_STEP * max(1.0, abs(theta[j])),), _AXIS,
            "gradient")
        grad[j] = (f_up - f_down) / (2.0 * h)
    return grad


def fd_hessian(f, at):
    """Second-order central-difference Hessian, symmetric by construction.

    Each coordinate's step starts at 1e-4 * max(1, |theta_j|); the axis
    probe that fixes it also gives the diagonal entry, and every mixed
    stencil starts from the same steps.
    """
    theta = at.as_array()
    f0 = _try_eval(f, theta)
    if f0 is None:
        raise FiniteDifferenceError("function not evaluable at the center")

    steps = np.empty(8)
    hess = np.empty((8, 8))
    for j in range(8):
        (h,), (f_up, f_down) = _probe(
            f, theta, (j,), (_HESS_STEP * max(1.0, abs(theta[j])),), _AXIS,
            "hessian")
        steps[j] = h
        hess[j, j] = (f_up - 2.0 * f0 + f_down) / (h * h)

    for i in range(8):
        for j in range(i + 1, 8):
            (hi, hj), c = _probe(f, theta, (i, j), (steps[i], steps[j]),
                                 _CORNERS, "hessian")
            hess[i, j] = hess[j, i] = (c[0] - c[1] - c[2] + c[3]) / (
                4.0 * hi * hj)
    return hess


def _seed_value(seed):
    if isinstance(seed, RngSeed):
        return seed.seed
    return RngSeed(seed).seed


def _truncated_normal(u, tau):
    """Inverse cdf of N(0, 1) truncated to (-tau, inf) at uniforms u.

    V = -ndtri_exp(log(1 - u) + log Phi(tau)) works in log space, so it
    stays accurate however small Phi(tau) is.  log Phi(tau) rounds to -0.0
    for tau above about 38, where u = 0 would give -inf; the clamp keeps
    every draw inside the support.
    """
    v = -ndtri_exp(np.log1p(-u) + log_ndtr(tau))
    return np.maximum(v, -tau)


def sample_esn2(dp, n, seed):
    """Exact draws from the ESN by its conditional (hidden-truncation) form.

    V is N(0, 1) truncated to V > -tau, drawn by inverse cdf; then
    Z = delta V + C^{1/2} W with W two independent standard normals and
    C = Omegabar - delta delta', and Y = xi + omega Z.  Each row costs
    one uniform and two normals whatever tau is, and any finite tau
    works.  Rows come in fixed blocks of 65536, block b from the Philox
    stream keyed by (seed, b); each block draws its full 65536 uniforms
    and normals and then slices, so the first m rows are the same for
    every n >= m.
    """
    validate(dp)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    key = _seed_value(seed)
    d, l11, l21, l22 = _conditional_factor(_lam(dp), dp.alpha1, dp.alpha2)
    o1, o2 = math.sqrt(dp.omega11), math.sqrt(dp.omega22)

    y1 = np.empty(n)
    y2 = np.empty(n)
    for block, start in enumerate(range(0, n, _CHUNK)):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([key, block], dtype=np.uint64)))
        u = rng.random(_CHUNK)
        w = rng.standard_normal((_CHUNK, 2))
        m = min(_CHUNK, n - start)
        v = _truncated_normal(u[:m], dp.tau)
        y1[start:start + m] = dp.xi1 + o1 * (d.delta1 * v + l11 * w[:m, 0])
        y2[start:start + m] = dp.xi2 + o2 * (d.delta2 * v + l21 * w[:m, 0]
                                             + l22 * w[:m, 1])
    return Dataset(y1, y2)


# the suite's points, sample sizes and replicate counts
_DP_SET = (
    DpParams(0.0, 0.0, 1.0, 0.6, 1.0, 2.0, 3.0, 1.0),
    DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7),
    DpParams(0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, 0.5),
)
_FD_OBS = 5
_MC_DRAWS = 200_000
_SAMPLER_DRAWS = 1_000_000
# sampler_chi2_pvalue's histogram: _CELLS cells a side over [-_SPAN, _SPAN]^2,
# each cell's mass from _CELL_NODES Gauss-Legendre nodes per axis
_CELLS = 50
_SPAN = 4.0
_CELL_NODES = 8
_LEMMA4_POINTS = 10
# the Lemma 4 grid's Gauss-Legendre panels, and nodes a panel, on each axis
_LEMMA4_PANELS = 4
_LEMMA4_NODES = 32
_LEVELS = ("fast", "full")


@dataclass(frozen=True)
class ValidationConfig:
    seed: RngSeed = RngSeed(20260815)
    level: str = "full"

    def __post_init__(self):
        if self.level not in _LEVELS:
            raise ValueError(f"level must be one of {_LEVELS}")
        # a plain int seed, as sample_esn2 takes, is checked here
        object.__setattr__(self, "seed", RngSeed(_seed_value(self.seed)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars leak in from comparisons; JSON wants built-ins
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "measured": c.measured,
                            "threshold": c.threshold, "detail": c.detail}
                           for c in self.checks]}

    def summary(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (f"{status}  {c.name}: measured {c.measured:.3e} "
                    f"vs threshold {c.threshold:.3e}")
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        lines.append("OK" if self.passed else "FAILED")
        return "\n".join(lines)


def _offset_seed(seed, offset):
    """Each check's stream: the suite seed plus an offset, wrapped into
    64 bits so that every valid suite seed gives valid check seeds."""
    return RngSeed((seed.seed + offset) % 2 ** 64)


def _loglik_of_theta(data):
    return lambda theta: loglik(DpParams.from_array(theta), data)


def _check_fd(seed):
    """score and observed_info against central differences of loglik, on
    one small dataset per point."""
    worst_grad = 0.0
    worst_hess = 0.0
    for i, dp in enumerate(_DP_SET):
        data = sample_esn2(dp, _FD_OBS, _offset_seed(seed, i))
        f = _loglik_of_theta(data)
        diff = score(dp, data) - fd_gradient(f, dp)
        worst_grad = max(worst_grad, float(np.max(np.abs(diff))))
        analytic = -observed_info(dp, data).matrix
        rel = (np.abs(analytic - fd_hessian(f, dp))
               / np.maximum(1.0, np.abs(analytic)))
        worst_hess = max(worst_hess, float(np.max(rel)))
    return (CheckResult("score_vs_fd", worst_grad < 1e-5, worst_grad, 1e-5,
                        "max abs component difference"),
            CheckResult("oinfo_vs_fd", worst_hess < 1e-4, worst_hess, 1e-4,
                        "max entrywise relative difference, floor 1"))


def _lemma4_by_cubature(lam, alpha1, alpha2, tau):
    """E[zeta1(T)] integrated directly against the standardized density,
    on the product grid of _LEMMA4_PANELS x _LEMMA4_NODES Gauss-Legendre
    nodes a side over the box of +-9 marginal sd.  Over the suite's
    default points and the 16 corners of its sampled ranges, it is
    within 1e-12 of the closed form; 4 panels of 16 nodes erred by up
    to 4e-4 there."""
    dp = DpParams(0.0, 0.0, 1.0, lam, 1.0, alpha1, alpha2, tau)
    alpha0 = tau * math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))
    d = delta_vector(lam, alpha1, alpha2)
    z1_tau, z2_tau = zeta(1, tau), zeta(2, tau)
    axes = []
    for dj in (d.delta1, d.delta2):
        mean = z1_tau * dj
        sd = math.sqrt(1.0 + z2_tau * dj * dj)
        axes.append(_panels(np.linspace(mean - 9.0 * sd, mean + 9.0 * sd,
                                        _LEMMA4_PANELS + 1), _LEMMA4_NODES))
    (z1, w1), (z2, w2) = axes
    z1, z2 = z1[:, None], z2[None, :]
    f = zeta(1, alpha0 + alpha1 * z1 + alpha2 * z2) * density_esn2(z1, z2, dp)
    return float(w1 @ f @ w2)


def _check_lemma4(seed):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed.seed, 10], dtype=np.uint64)))
    worst = 0.0
    for _ in range(_LEMMA4_POINTS):
        lam = rng.uniform(-0.9, 0.9)
        alpha1, alpha2 = rng.uniform(-3.0, 3.0, size=2)
        tau = rng.uniform(-2.0, 2.0)
        closed = lemma4_expectation(lam, alpha1, alpha2, tau)
        quad = _lemma4_by_cubature(lam, alpha1, alpha2, tau)
        worst = max(worst, abs(quad - closed) / closed)
    return CheckResult("lemma4_vs_cubature", worst < 1e-5, worst, 1e-5,
                       f"{_LEMMA4_POINTS} random points, |tau| <= 2")


def _pool_entries(acc, block):
    """Pool two (count, mean, centred sum of squares) triples, entry by
    entry, by the weighted update of Chan, Golub & LeVeque (1983)."""
    n_a, mean_a, sq_a = acc
    n_b, mean_b, sq_b = block
    n = n_a + n_b
    shift = mean_b - mean_a
    return n, mean_a + shift * (n_b / n), sq_a + sq_b + shift ** 2 * (
        n_a * n_b / n)


def _mc_info_sigmas(dp, einfo_block, data, entries):
    """Per-entry |einfo − MC mean| / MC standard error.

    The hessian rows are formed _PASS at a time and each block's means and
    centred sums of squares pooled, so memory does not grow with the
    sample.
    """
    z1, z2 = _residuals(dp, data.y1, data.y2)
    cols = [_COL[r, c] for r, c in entries]
    acc = (0, 0.0, 0.0)
    for lo in range(0, data.n, _PASS):
        hess = _kernel(dp, z1[lo:lo + _PASS], z2[lo:lo + _PASS], 2)[2][:, cols]
        mean = hess.mean(axis=0)
        hess -= mean
        acc = _pool_entries(
            acc, (len(hess), -mean, np.einsum("ij,ij->j", hess, hess)))
    n, mean, sq = acc
    se = np.sqrt(sq / (n - 1) / n)
    sigmas = np.empty(len(entries))
    for k, rc in enumerate(entries):
        diff = einfo_block[rc] - mean[k]
        sigmas[k] = 0.0 if (se[k] == 0.0 and diff == 0.0) else (
            math.inf if se[k] == 0.0 else abs(diff) / se[k])
    return sigmas


_UPPER_36 = [(r, c) for r in range(8) for c in range(r, 8)]
_UPPER_28 = [(r, c) for r in range(7) for c in range(r, 7)]


def _mc_sigmas(dp, seed, entries):
    """_mc_info_sigmas of expected_info(dp) on _MC_DRAWS fresh draws."""
    data = sample_esn2(dp, _MC_DRAWS, seed)
    einfo = expected_info(dp).matrix
    return _mc_info_sigmas(dp, {rc: einfo[rc] for rc in entries}, data,
                           entries)


def _check_einfo_vs_mc(seed):
    worst = 0.0
    over3 = 0
    for i, dp in enumerate(_DP_SET):
        sig = _mc_sigmas(dp, _offset_seed(seed, 100 + i), _UPPER_36)
        worst = max(worst, float(np.max(sig)))
        over3 += int(np.sum(sig > 3.0))
    passed = worst < 5.0 and over3 <= 2 * len(_DP_SET)
    return CheckResult(
        "einfo_vs_mc", passed, worst, 5.0,
        f"{over3} entries beyond 3 sigma across {len(_DP_SET)} points")


def _check_tau0_reduction(seed):
    sig = _mc_sigmas(replace(_DP_SET[0], tau=0.0), _offset_seed(seed, 200),
                     _UPPER_28)
    worst = float(np.max(sig))
    over3 = int(np.sum(sig > 3.0))
    passed = worst < 5.0 and over3 <= 2
    return CheckResult("tau0_sn2_reduction", passed, worst, 5.0,
                       f"leading 7x7 block at tau=0, {over3} beyond 3 sigma")


def _cell_masses(dp, edges):
    """Probability mass of each histogram cell, from one density call on
    the grid of all cells' Gauss-Legendre nodes."""
    nodes, weights = _panels(edges, _CELL_NODES)
    f = density_esn2(nodes[:, None], nodes[None, :], dp)
    k = len(edges) - 1
    return (weights[:, None] * f * weights).reshape(
        k, _CELL_NODES, k, _CELL_NODES).sum(axis=(1, 3))


def sampler_chi2_pvalue(dp, n, seed):
    """Chi-square p-value of a sampler histogram against cell masses.

    Cells with expected count below 10 are pooled with the off-grid
    remainder into a single bucket, the usual validity fix.
    """
    data = sample_esn2(dp, n, seed)
    edges = np.linspace(-_SPAN, _SPAN, _CELLS + 1)
    counts, _, _ = np.histogram2d(data.y1, data.y2, bins=(edges, edges))
    expected = _cell_masses(dp, edges) * n

    keep = expected >= 10.0
    observed_kept = counts[keep]
    expected_kept = expected[keep]
    rest_obs = n - float(np.sum(observed_kept))
    rest_exp = n - float(np.sum(expected_kept))
    stat = float(np.sum((observed_kept - expected_kept) ** 2 / expected_kept))
    dof = int(np.sum(keep))
    if rest_exp > 0.0:
        stat += (rest_obs - rest_exp) ** 2 / rest_exp
    return float(chdtrc(dof, stat)), stat, dof


def _check_sampler_chi2(seed):
    worst = 1.0
    for i, dp in enumerate(_DP_SET):
        p, _, _ = sampler_chi2_pvalue(dp, _SAMPLER_DRAWS,
                                      _offset_seed(seed, 300 + i))
        worst = min(worst, p)
    return CheckResult("sampler_chi2", worst > 1e-3, worst, 1e-3,
                       "min p-value; pass means above threshold")


def _check_singularities():
    # I = R'R: I[7, 7] = |R e_8|^2, and det I as det_scan takes it
    r = _info_factor(DpParams(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0), None)
    i88 = float(r[:, 7] @ r[:, 7])
    det = _det_and_mineig(r)[0]

    dp = _DP_SET[0]
    flipped = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    m = expected_info(dp).matrix
    m_flip = expected_info(flipped).matrix
    mirror = float(np.max(np.abs(
        m_flip - m * np.outer(_FLIP_SIGNS, _FLIP_SIGNS))))

    measured = max(i88, det, mirror)
    return CheckResult("singularity_structure", measured < 1e-10,
                       measured, 1e-10,
                       "i88 and det at the alpha=0 point; mirror symmetry")


def run_validation_suite(config=ValidationConfig()):
    """Run the cross-check suite; failures become report entries."""
    seed = config.seed
    checks = [*_check_fd(seed), _check_lemma4(seed)]
    if config.level == "full":
        checks.append(_check_einfo_vs_mc(seed))
        checks.append(_check_tau0_reduction(seed))
        checks.append(_check_sampler_chi2(seed))
    checks.append(_check_singularities())
    return ValidationReport(tuple(checks))

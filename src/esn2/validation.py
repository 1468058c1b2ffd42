"""Independent oracles: finite differences, an exact sampler, checks.

The derivative probes treat the log-likelihood as a black-box function
of the 8-vector theta.  The sampler draws the hidden-truncation
construction directly: the hidden variable by inverse cdf, the pair
given it as a Gaussian.  It shares the factor C^{1/2} of
C = Omegabar - delta delta' with the expected information's quadrature
rule (`model._conditional_factor`), so its independence from the
analytic machinery rests on two checks that share nothing with it: the
chi-square test of its histogram against cubature of `density_esn2`
(criterion 8) and the closed-form moments of `moments_esn2`
(criterion 9).  The suite compares the routes and reports measured
maxima instead of raising.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chdtrc, log_ndtr, ndtri_exp

from .cubature import integrate_2d
from .expectations import lemma4_expectation
from .expected_info import _FLIP_SIGNS, expected_info
from .likelihood import (_COL, _ROWS, _kernel, density_esn2, loglik,
                         observed_info, score)
from .model import (PARAM_NAMES, Dataset, DpParams, _alpha_star_sq,
                    _conditional_factor, _lam, _residuals, delta_vector,
                    validate)
from .special_fns import zeta

_CHUNK = 65536
_SHRINK_ROUNDS = 20


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


@dataclass(frozen=True)
class FdControls:
    grad_step_scale: float = 1e-6
    hess_step_scale: float = 1e-4

    def __post_init__(self):
        if not (self.grad_step_scale > 0.0 and self.hess_step_scale > 0.0):
            raise ValueError("step scales must be positive")


def _try_eval(f, theta):
    """f(theta) as a finite float, or None when the probe is unusable."""
    try:
        value = float(f(theta))
    except Exception:
        return None
    return value if math.isfinite(value) else None


def fd_gradient(f, at, controls=FdControls()):
    """Central-difference gradient of f at the given parameter point.

    Steps start at grad_step_scale * max(1, |theta_j|) and are halved
    when a probe lands outside the valid domain (e.g. pushes Omega12
    past the positive-definiteness boundary).
    """
    theta = at.as_array()
    grad = np.empty(8)
    for j in range(8):
        h = controls.grad_step_scale * max(1.0, abs(theta[j]))
        for _ in range(_SHRINK_ROUNDS):
            up = theta.copy()
            down = theta.copy()
            up[j] += h
            down[j] -= h
            f_up = _try_eval(f, up)
            f_down = _try_eval(f, down)
            if f_up is not None and f_down is not None:
                grad[j] = (f_up - f_down) / (2.0 * h)
                break
            h *= 0.5
        else:
            raise FiniteDifferenceError(
                f"gradient probe failed in coordinate {PARAM_NAMES[j]}")
    return grad


def fd_hessian(f, at, controls=FdControls()):
    """Second-order central-difference Hessian, symmetrized."""
    theta = at.as_array()
    f0 = _try_eval(f, theta)
    if f0 is None:
        raise FiniteDifferenceError("function not evaluable at the center")

    # fix a usable step per coordinate first, so every stencil below
    # reuses the same h_j
    steps = np.empty(8)
    for j in range(8):
        h = controls.hess_step_scale * max(1.0, abs(theta[j]))
        for _ in range(_SHRINK_ROUNDS):
            up = theta.copy()
            down = theta.copy()
            up[j] += h
            down[j] -= h
            if (_try_eval(f, up) is not None
                    and _try_eval(f, down) is not None):
                steps[j] = h
                break
            h *= 0.5
        else:
            raise FiniteDifferenceError(
                f"hessian probe failed in coordinate {PARAM_NAMES[j]}")

    hess = np.empty((8, 8))
    for j in range(8):
        h = steps[j]
        up = theta.copy()
        down = theta.copy()
        up[j] += h
        down[j] -= h
        f_up = _try_eval(f, up)
        f_down = _try_eval(f, down)
        if f_up is None or f_down is None:
            raise FiniteDifferenceError(
                f"hessian probe failed in coordinate {PARAM_NAMES[j]}")
        hess[j, j] = (f_up - 2.0 * f0 + f_down) / (h * h)

    for i in range(8):
        for j in range(i + 1, 8):
            hi, hj = steps[i], steps[j]
            for _ in range(_SHRINK_ROUNDS):
                corners = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p = theta.copy()
                    p[i] += si * hi
                    p[j] += sj * hj
                    corners.append(_try_eval(f, p))
                if all(c is not None for c in corners):
                    hess[i, j] = (corners[0] - corners[1]
                                  - corners[2] + corners[3]) / (4.0 * hi * hj)
                    break
                hi *= 0.5
                hj *= 0.5
            else:
                raise FiniteDifferenceError(
                    f"hessian probe failed in coordinates "
                    f"{PARAM_NAMES[i]}, {PARAM_NAMES[j]}")
            hess[j, i] = hess[i, j]
    return 0.5 * (hess + hess.T)


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


_DEFAULT_DP_SET = (
    DpParams(0.0, 0.0, 1.0, 0.6, 1.0, 2.0, 3.0, 1.0),
    DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7),
    DpParams(0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, 0.5),
)

_LEVELS = ("fast", "full")


@dataclass(frozen=True)
class ValidationConfig:
    dp_set: tuple = _DEFAULT_DP_SET
    seed: RngSeed = RngSeed(20260815)
    level: str = "full"
    mc_draws: int = 200_000
    sampler_draws: int = 1_000_000
    lemma4_points: int = 10
    fd_obs: int = 5

    def __post_init__(self):
        if self.level not in _LEVELS:
            raise ValueError(f"level must be one of {_LEVELS}")
        counts = (self.mc_draws, self.sampler_draws,
                  self.lemma4_points, self.fd_obs)
        if any(c < 1 for c in counts):
            raise ValueError("draw and replicate counts must be positive")
        for dp in self.dp_set:
            validate(dp)


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


def _loglik_of_theta(data):
    return lambda theta: loglik(DpParams.from_array(theta), data)


def _check_score_vs_fd(config):
    worst = 0.0
    for i, dp in enumerate(config.dp_set):
        data = sample_esn2(dp, config.fd_obs, RngSeed(config.seed.seed + i))
        diff = score(dp, data) - fd_gradient(_loglik_of_theta(data), dp)
        worst = max(worst, float(np.max(np.abs(diff))))
    return CheckResult("score_vs_fd", worst < 1e-5, worst, 1e-5,
                       "max abs component difference")


def _check_oinfo_vs_fd(config):
    worst = 0.0
    for i, dp in enumerate(config.dp_set):
        data = sample_esn2(dp, config.fd_obs, RngSeed(config.seed.seed + i))
        analytic = -observed_info(dp, data).matrix
        fd = fd_hessian(_loglik_of_theta(data), dp)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(np.max(rel)))
    return CheckResult("oinfo_vs_fd", worst < 1e-4, worst, 1e-4,
                       "max entrywise relative difference, floor 1")


def _lemma4_by_cubature(lam, alpha1, alpha2, tau):
    """E[zeta1(T)] integrated directly against the standardized density."""
    dp = DpParams(0.0, 0.0, 1.0, lam, 1.0, alpha1, alpha2, tau)
    alpha0 = tau * math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))
    d = delta_vector(lam, alpha1, alpha2)
    z1_tau, z2_tau = zeta(1, tau), zeta(2, tau)
    lower = np.empty(2)
    upper = np.empty(2)
    for j, dj in enumerate((d.delta1, d.delta2)):
        mean = z1_tau * dj
        sd = math.sqrt(1.0 + z2_tau * dj * dj)
        lower[j] = mean - 9.0 * sd
        upper[j] = mean + 9.0 * sd

    def integrand(z1, z2):
        t = alpha0 + alpha1 * z1 + alpha2 * z2
        return zeta(1, t) * density_esn2(z1, z2, dp)

    return integrate_2d(integrand, lower, upper)


def _check_lemma4(config):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([config.seed.seed, 10], dtype=np.uint64)))
    worst = 0.0
    for _ in range(config.lemma4_points):
        lam = rng.uniform(-0.9, 0.9)
        alpha1, alpha2 = rng.uniform(-3.0, 3.0, size=2)
        tau = rng.uniform(-2.0, 2.0)
        closed = lemma4_expectation(lam, alpha1, alpha2, tau)
        quad = _lemma4_by_cubature(lam, alpha1, alpha2, tau)
        worst = max(worst, abs(quad.value - closed) / closed)
    return CheckResult("lemma4_vs_cubature", worst < 1e-5, worst, 1e-5,
                       f"{config.lemma4_points} random points, |tau| <= 2")


def _pool_entries(acc, block):
    """Pool two (count, mean, centred sum of squares) triples, entry by
    entry, by the update likelihood._pool applies to zeta2 moments."""
    n_a, mean_a, sq_a = acc
    n_b, mean_b, sq_b = block
    n = n_a + n_b
    shift = mean_b - mean_a
    return n, mean_a + shift * (n_b / n), sq_a + sq_b + shift ** 2 * (
        n_a * n_b / n)


def _mc_info_sigmas(dp, einfo_block, data, entries):
    """Per-entry |einfo − MC mean| / MC standard error.

    The hessian rows are formed _ROWS at a time and each block's means and
    centred sums of squares pooled, so memory does not grow with the
    sample.
    """
    z1, z2 = _residuals(dp, data.y1, data.y2)
    cols = [_COL[r, c] for r, c in entries]
    acc = (0, 0.0, 0.0)
    for lo in range(0, data.n, _ROWS):
        hess = _kernel(dp, z1[lo:lo + _ROWS], z2[lo:lo + _ROWS], 2)[2][:, cols]
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


def _check_einfo_vs_mc(config):
    worst = 0.0
    over3 = 0
    for i, dp in enumerate(config.dp_set):
        data = sample_esn2(dp, config.mc_draws,
                           RngSeed(config.seed.seed + 100 + i))
        einfo = expected_info(dp).matrix
        sig = _mc_info_sigmas(dp, {rc: einfo[rc] for rc in _UPPER_36},
                              data, _UPPER_36)
        worst = max(worst, float(np.max(sig)))
        over3 += int(np.sum(sig > 3.0))
    passed = worst < 5.0 and over3 <= 2 * len(config.dp_set)
    return CheckResult(
        "einfo_vs_mc", passed, worst, 5.0,
        f"{over3} entries beyond 3 sigma across {len(config.dp_set)} points")


def _check_tau0_reduction(config):
    dp0 = replace(config.dp_set[0], tau=0.0)
    data = sample_esn2(dp0, config.mc_draws, RngSeed(config.seed.seed + 200))
    einfo = expected_info(dp0).matrix
    sig = _mc_info_sigmas(dp0, {rc: einfo[rc] for rc in _UPPER_28},
                          data, _UPPER_28)
    worst = float(np.max(sig))
    over3 = int(np.sum(sig > 3.0))
    passed = worst < 5.0 and over3 <= 2
    return CheckResult("tau0_sn2_reduction", passed, worst, 5.0,
                       f"leading 7x7 block at tau=0, {over3} beyond 3 sigma")


def _cell_masses(dp, edges):
    """Probability mass of each histogram cell, by cubature."""
    k = len(edges) - 1
    masses = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            res = integrate_2d(lambda y1, y2: density_esn2(y1, y2, dp),
                               (edges[i], edges[j]),
                               (edges[i + 1], edges[j + 1]))
            masses[i, j] = res.value
    return masses


def sampler_chi2_pvalue(dp, n, seed, cells=50, span=4.0):
    """Chi-square p-value of a sampler histogram against cell masses.

    Cells with expected count below 10 are pooled with the off-grid
    remainder into a single bucket, the usual validity fix.
    """
    data = sample_esn2(dp, n, seed)
    edges = np.linspace(-span, span, cells + 1)
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


def _check_sampler_chi2(config):
    worst = 1.0
    for i, dp in enumerate(config.dp_set[:3]):
        p, _, _ = sampler_chi2_pvalue(dp, config.sampler_draws,
                                      RngSeed(config.seed.seed + 300 + i))
        worst = min(worst, p)
    return CheckResult("sampler_chi2", worst > 1e-3, worst, 1e-3,
                       "min p-value; pass means above threshold")


def _check_singularities(config):
    dp_star = DpParams(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    einfo = expected_info(dp_star).matrix
    i88 = abs(einfo[7, 7])
    det = abs(float(np.linalg.det(einfo)))

    dp = config.dp_set[0]
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
    if not config.dp_set:
        return ValidationReport(())
    checks = [_check_score_vs_fd(config),
              _check_oinfo_vs_fd(config),
              _check_lemma4(config)]
    if config.level == "full":
        checks.append(_check_einfo_vs_mc(config))
        checks.append(_check_tau0_reduction(config))
        checks.append(_check_sampler_chi2(config))
    checks.append(_check_singularities(config))
    return ValidationReport(tuple(checks))

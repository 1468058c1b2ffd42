"""End-to-end acceptance: ten pinned criteria, one verdict line each.

Every test prints `PASS`/`FAIL  <criterion>: <measured numbers>` and then
asserts the stated bound.  Random parameter points come from fixed
counter-based streams, so each run exercises an identical sweep.
"""

import math
import time

import numpy as np

from conftest import CHI2_DPS, MASTER_SEED, SWEEP_TOL, philox, random_dp
from oracles import integrate_2d
from esn2 import (
    CubatureControls,
    Dataset,
    DpParams,
    SweepSpec,
    density_esn2,
    det_scan,
    expected_info,
    fd_gradient,
    fd_hessian,
    fit_mle,
    lemma4_expectation,
    loglik,
    moments_esn2,
    observed_info,
    sample_esn2,
    sampler_chi2_pvalue,
    score,
    zeta,
)
from esn2.model import delta_vector
from esn2.validation import _UPPER_28, _UPPER_36, _mc_info_sigmas

APPENDIX_DP = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)

ORACLE_TOL = CubatureControls(rel_tol=1e-9, abs_tol=1e-15,
                              max_evals=8_000_000)


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def test_criterion_01_score_vs_finite_differences():
    t0 = time.time()
    rng = philox(MASTER_SEED, 1)
    worst = 0.0
    for _ in range(20):
        dp = random_dp(rng)
        data = sample_esn2(dp, 5, int(rng.integers(2 ** 63)))
        fd = fd_gradient(lambda th: loglik(DpParams.from_array(th), data),
                         dp)
        worst = max(worst, float(np.max(np.abs(fd - score(dp, data)))))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    assert _verdict(
        "criterion 1, score vs central differences", ok,
        f"worst componentwise gap {worst:.3e} (< 1e-5), "
        f"{elapsed:.1f}s (< 5s)")


def test_criterion_02_observed_info_vs_finite_differences():
    t0 = time.time()
    rng = philox(MASTER_SEED, 2)
    worst = 0.0
    for _ in range(20):
        dp = random_dp(rng)
        data = sample_esn2(dp, 5, int(rng.integers(2 ** 63)))
        fd = fd_hessian(lambda th: loglik(DpParams.from_array(th), data),
                        dp)
        analytic = observed_info(dp, data).matrix
        rel = np.abs(analytic - (-fd)) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert _verdict(
        "criterion 2, observed info vs central differences", ok,
        f"worst entrywise relative gap {worst:.3e} (< 1e-4), "
        f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_tilt_identity_vs_cubature():
    t0 = time.time()
    rng = philox(MASTER_SEED, 3)
    worst = 0.0
    for _ in range(10):
        lam = float(rng.uniform(-0.9, 0.9))
        a1, a2 = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        tau = float(rng.uniform(-2.0, 2.0))
        closed = lemma4_expectation(lam, a1, a2, tau)

        dp = DpParams(0, 0, 1, lam, 1, a1, a2, tau)
        alpha0 = tau * math.sqrt(
            1.0 + a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * lam)
        d = delta_vector(lam, a1, a2)
        z1_t, z2_t = zeta(1, tau), zeta(2, tau)
        centers = (z1_t * d.delta1, z1_t * d.delta2)
        sds = (math.sqrt(1.0 + z2_t * d.delta1 ** 2),
               math.sqrt(1.0 + z2_t * d.delta2 ** 2))
        lower = [c - 9.0 * s for c, s in zip(centers, sds)]
        upper = [c + 9.0 * s for c, s in zip(centers, sds)]

        def integrand(z1, z2):
            return zeta(1, alpha0 + a1 * z1 + a2 * z2) \
                * density_esn2(z1, z2, dp)

        res = integrate_2d(integrand, lower, upper, ORACLE_TOL)
        assert res.converged
        worst = max(worst, abs(closed - res.value) / abs(closed))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    assert _verdict(
        "criterion 3, zeta1 tilt identity vs direct cubature", ok,
        f"worst relative gap {worst:.3e} (< 1e-5), {elapsed:.1f}s (< 60s)")


def _mc_comparison(dp, draws, seed, entries):
    data = sample_esn2(dp, draws, seed)
    einfo = expected_info(dp).matrix
    return _mc_info_sigmas(dp, einfo, data, entries)


def test_criterion_04_expected_info_is_mean_observed_info():
    t0 = time.time()
    rng = philox(MASTER_SEED, 4)
    dps = [APPENDIX_DP] + [random_dp(rng) for _ in range(4)]
    ok = True
    details = []
    for k, dp in enumerate(dps):
        sig = _mc_comparison(dp, 200_000, int(rng.integers(2 ** 63)),
                             _UPPER_36)
        over3 = int(np.sum(sig > 3.0))
        worst = float(np.max(sig))
        ok = ok and over3 <= 2 and worst < 5.0
        details.append(f"dp{k}: {over3} entries over 3se, worst {worst:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    assert _verdict(
        "criterion 4, expected info vs Monte Carlo mean hessian", ok,
        "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_05_tau_zero_reduction():
    t0 = time.time()
    dp = DpParams(0, 0, 1, 0.6, 1, 2, 3, 0)
    sig = _mc_comparison(dp, 200_000, 20260845, _UPPER_28)
    worst = float(np.max(sig))
    elapsed = time.time() - t0
    ok = worst < 3.0 and elapsed < 180.0
    assert _verdict(
        "criterion 5, leading block at tau=0 vs Monte Carlo", ok,
        f"worst entry {worst:.2f} MC standard errors (< 3), "
        f"{elapsed:.0f}s (< 180s)")


def test_criterion_06_exact_singular_point():
    m = expected_info(DpParams(0, 0, 1, 0, 1, 0, 0, 0)).matrix
    i88 = abs(m[7, 7])
    det = abs(float(np.linalg.det(m)))
    ok = i88 <= 1e-12 and det < 1e-10
    assert _verdict(
        "criterion 6, exact singular point", ok,
        f"|i88| = {i88:.1e} (<= 1e-12), |det| = {det:.1e} (< 1e-10)")


def test_criterion_07_figure_regime_determinants():
    t0 = time.time()
    failures = []
    details = []

    # (a) shrinking slant: det must fall strictly as alpha1 drops to 0
    for tau in (-2.0, 0.0, 2.0):
        base = DpParams(0, 0, 1, 0, 1, 1, 0, tau)
        rows = det_scan(SweepSpec("alpha1", (0.02, 0.1, 0.5), base),
                        tol=SWEEP_TOL)
        dets = [r.det for r in rows]
        chain_ok = (all(r.converged for r in rows)
                    and dets[0] < dets[1] < dets[2])
        details.append(
            f"(a) tau={tau:+.0f}: {dets[0]:.2e}, {dets[1]:.2e}, "
            f"{dets[2]:.2e}")
        if not chain_ok:
            failures.append(f"(a) tau={tau:+.0f} chain not increasing")

    # (b) huge slant kills the determinant, and the two signed-slant
    # sweeps are mirror images
    endpoint_dets = {}
    for a2 in (2.0, -2.0):
        base = DpParams(0, 0, 1, 0.4, 1, 1, a2, 0)
        rows = det_scan(SweepSpec("alpha1", (-30.0, 0.0, 30.0), base))
        endpoint_dets[a2] = [r.det for r in rows]
        if not (rows[0].det < rows[1].det and rows[2].det < rows[1].det):
            failures.append(f"(b) alpha2={a2:+.0f} endpoints not below 0")
    plus, minus = endpoint_dets[2.0], endpoint_dets[-2.0]
    mirror_rel = max(
        abs(p - m) / max(abs(p), abs(m), 1e-300)
        for p, m in zip(plus, minus[::-1]))
    details.append(f"(b) mirror relative gap {mirror_rel:.1e}")
    if mirror_rel > 1e-8:
        failures.append("(b) mirrored sweeps differ")

    # (c) growing |tau| kills the determinant
    base = DpParams(0, 0, 1, 0, 1, 1, 0, 0)
    for grid in ((2.0, 5.0, 10.0), (-2.0, -5.0, -10.0)):
        rows = det_scan(SweepSpec("tau", grid, base), tol=SWEEP_TOL)
        dets = [r.det for r in rows]
        details.append(f"(c) tau {grid}: {dets[0]:.2e}, {dets[1]:.2e}, "
                       f"{dets[2]:.2e}")
        if not (all(r.converged for r in rows)
                and dets[0] > dets[1] > dets[2]):
            failures.append(f"(c) tau chain {grid} not decreasing")

    elapsed = time.time() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s")
    ok = not failures
    _verdict("criterion 7, figure-regime determinant properties", ok,
             "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")
    assert ok, "; ".join(failures)


def test_criterion_08_normalization_and_sampler():
    t0 = time.time()
    rng = philox(MASTER_SEED, 8)
    worst_gap = 0.0
    for _ in range(10):
        dp = random_dp(rng)
        mean, cov = moments_esn2(dp)
        sds = np.sqrt(np.diag(cov))
        res = integrate_2d(
            lambda u, v: density_esn2(u, v, dp),
            mean - 8.5 * sds, mean + 8.5 * sds,
            CubatureControls(rel_tol=1e-7, abs_tol=1e-12,
                             max_evals=8_000_000))
        assert res.converged
        worst_gap = max(worst_gap, abs(res.value - 1.0))
    min_p = min(sampler_chi2_pvalue(dp, 1_000_000, 800 + k)[0]
                for k, dp in enumerate(CHI2_DPS))
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-4 and min_p > 1e-3 and elapsed < 180.0
    assert _verdict(
        "criterion 8, normalization and sampler histogram", ok,
        f"worst |mass - 1| = {worst_gap:.1e} (<= 1e-4), min chi2 p = "
        f"{min_p:.3f} (> 0.001), {elapsed:.0f}s (< 180s)")


def test_criterion_09_moment_identities_and_unbiased_score():
    t0 = time.time()
    rng = philox(MASTER_SEED, 9)
    n = 1_000_000
    worst_sig = 0.0
    for _ in range(5):
        dp = random_dp(rng)
        y = sample_esn2(dp, n, int(rng.integers(2 ** 63)))
        mean, cov = moments_esn2(dp)
        cols = (y.y1, y.y2)
        centered = (y.y1 - mean[0], y.y2 - mean[1])
        for j in range(2):
            se = math.sqrt(cov[j, j] / n)
            worst_sig = max(worst_sig,
                            abs(float(np.mean(cols[j])) - mean[j]) / se)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            w = centered[i] * centered[j]
            se = float(np.std(w, ddof=1)) / math.sqrt(n)
            worst_sig = max(worst_sig,
                            abs(float(np.mean(w)) - cov[i, j]) / se)

    # mean score at the generating point over 1e5 single-row replicates
    reps = 100_000
    y = sample_esn2(APPENDIX_DP, reps, 20260859)
    total = score(APPENDIX_DP, y)
    chunk = 1000
    chunk_means = np.array([
        score(APPENDIX_DP,
              Dataset(y.y1[i:i + chunk], y.y2[i:i + chunk])) / chunk
        for i in range(0, reps, chunk)])
    se = np.std(chunk_means, axis=0, ddof=1) / math.sqrt(len(chunk_means))
    score_sig = float(np.max(np.abs(total / reps) / se))

    elapsed = time.time() - t0
    ok = worst_sig < 3.0 and score_sig < 4.0 and elapsed < 240.0
    assert _verdict(
        "criterion 9, closed moments and zero-mean score", ok,
        f"worst moment gap {worst_sig:.2f} se (< 3), worst mean-score gap "
        f"{score_sig:.2f} se (< 4), {elapsed:.0f}s (< 240s)")


def test_criterion_10_mle_recovery():
    t0 = time.time()
    truth = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    data = sample_esn2(truth, 10_000, 1001)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    result = fit_mle(data, start)
    info = expected_info(result.dp_hat).matrix
    ses = np.sqrt(np.diag(np.linalg.inv(info)) / data.n)
    gaps = np.abs(result.dp_hat.as_array() - truth.as_array()) / ses
    elapsed = time.time() - t0
    ok = (result.converged and result.final_score_norm < 1e-6
          and bool(np.max(gaps) < 5.0) and elapsed < 120.0)
    assert _verdict(
        "criterion 10, maximum likelihood recovery", ok,
        f"converged={result.converged}, score norm "
        f"{result.final_score_norm:.1e} (< 1e-6), worst parameter gap "
        f"{float(np.max(gaps)):.2f} expected-info se (< 5), "
        f"{elapsed:.0f}s (< 120s)")

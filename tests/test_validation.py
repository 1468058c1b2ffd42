"""Finite differences, the exact sampler, and the check suite."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from conftest import TIGHT, philox, random_dp
from esn2 import (
    Dataset,
    DpParams,
    FiniteDifferenceError,
    density_esn2,
    fd_gradient,
    fd_hessian,
    loglik,
    moments_esn2,
    run_validation_suite,
    sample_esn2,
    sampler_chi2_pvalue,
    expected_info,
    score,
    zeta,
)
from esn2.likelihood import _COL
from esn2.model import _alpha_star_sq, _residuals, delta_vector
from esn2.validation import (_UPPER_36, _check_lemma4, _lemma4_by_cubature,
                             _mc_info_sigmas, _truncated_normal)
from oracles import integrate_2d, kernel_rows


def test_fd_gradient_linear_exact():
    at = DpParams(0, 0, 1, 0, 1, 0, 0, 0)
    grad = fd_gradient(lambda th: th[3], at)
    assert_allclose(grad, np.eye(8)[3], atol=1e-12)


def test_fd_gradient_quadratic():
    rng = philox(20260815, 50)
    a = rng.normal(size=(8, 8))
    a = 0.5 * (a + a.T)
    at = random_dp(rng)
    grad = fd_gradient(lambda th: 0.5 * th @ a @ th, at)
    assert np.max(np.abs(grad - a @ at.as_array())) < 1e-8


def test_fd_hessian_quadratic():
    rng = philox(20260815, 51)
    a = rng.normal(size=(8, 8))
    a = 0.5 * (a + a.T)
    hess = fd_hessian(lambda th: 0.5 * th @ a @ th, random_dp(rng))
    # second differences of an O(1) quadratic carry ~eps/h^2 rounding noise
    assert np.max(np.abs(hess - a)) < 1e-6
    assert np.array_equal(hess, hess.T)


def test_fd_probe_counts():
    # 2 probes per axis for the gradient; for the hessian the centre, the
    # axis probes that fix the steps and give the diagonal, and 4 corners
    # for each of the 28 mixed entries
    calls = []

    def f(th):
        calls.append(1)
        return 0.5 * th @ th

    at = DpParams(0.1, -0.2, 1.0, 0.3, 1.2, 0.5, -0.5, 0.4)
    fd_gradient(f, at)
    assert len(calls) == 16
    calls.clear()
    fd_hessian(f, at)
    assert len(calls) == 1 + 16 + 4 * 28


def test_fd_matches_analytic_score():
    dp = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1, 2, -0.7)
    data = Dataset(np.array([0.2, -0.5, 0.4]), np.array([0.1, 0.9, -0.3]))
    fd = fd_gradient(lambda th: loglik(DpParams.from_array(th), data), dp)
    assert np.max(np.abs(fd - score(dp, data))) < 1e-6


def test_fd_step_shrinks_into_narrow_domain():
    base = DpParams(0, 0, 1, 0, 1, 0, 0, 0)

    def narrow(th):
        if abs(th[2] - 1.0) > 1e-8:
            raise ValueError("outside")
        return 3.0 * th[2]

    grad = fd_gradient(narrow, base)
    assert_allclose(grad[2], 3.0, rtol=1e-4)


def test_fd_error_names_the_parameter():
    def broken(th):
        if th[5] != 0.0:
            raise ValueError("no")
        return 0.0

    with pytest.raises(FiniteDifferenceError, match="alpha1"):
        fd_gradient(broken, DpParams(0, 0, 1, 0, 1, 0, 0, 0))


BAD_SEEDS = ((-1, "64 unsigned bits"), (2 ** 64, "64 unsigned bits"),
             (1.5, "an integer"), ("5", "an integer"))


def test_sampler_seed_validation():
    dp = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
    assert sample_esn2(dp, 10, 0).n == 10
    top = sample_esn2(dp, 10, 2 ** 64 - 1)
    again = sample_esn2(dp, 10, np.uint64(2 ** 64 - 1))
    assert np.array_equal(top.y1, again.y1)
    for bad, message in BAD_SEEDS:
        with pytest.raises(ValueError, match=message):
            sample_esn2(dp, 10, bad)


def test_sampler_deterministic_and_shaped():
    dp = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
    y = sample_esn2(dp, 5000, 123)
    again = sample_esn2(dp, 5000, np.int64(123))
    other = sample_esn2(dp, 5000, 124)
    assert isinstance(y, Dataset) and y.n == 5000
    assert np.array_equal(y.y1, again.y1) and np.array_equal(y.y2, again.y2)
    assert not np.array_equal(y.y1, other.y1)


def test_sampler_prefix_stable():
    # growing n extends the stream instead of reshuffling it
    dp = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    short = sample_esn2(dp, 1000, 9)
    long = sample_esn2(dp, 4000, 9)
    assert np.array_equal(long.y1[:1000], short.y1)
    assert np.array_equal(long.y2[:1000], short.y2)


def test_sampler_prefix_stable_across_blocks():
    # rows come in blocks of 65536; the second block must not depend on n
    dp = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, -2)
    short = sample_esn2(dp, 70_000, 9)
    long = sample_esn2(dp, 140_000, 9)
    assert np.array_equal(long.y1[:70_000], short.y1)
    assert np.array_equal(long.y2[:70_000], short.y2)


@pytest.mark.parametrize("tau", [-300.0, 0.0, 40.0])
def test_truncated_normal_edges(tau):
    # log Phi(40) rounds to -0.0, where u = 0 alone would give -inf
    v = _truncated_normal(np.array([0.0, 1.0 - 2.0 ** -53]), tau)
    assert np.all(np.isfinite(v))
    assert np.all(v >= -tau)


def test_sampler_gaussian_case_moments():
    dp = DpParams(0.5, -1.0, 2.0, 0.6, 1.5, 0.0, 0.0, 0.0)
    n = 100_000
    y = sample_esn2(dp, n, 77)
    cols = (y.y1, y.y2)
    mean, cov = moments_esn2(dp)
    for j in range(2):
        se = math.sqrt(cov[j, j] / n)
        assert abs(float(np.mean(cols[j])) - mean[j]) < 3.5 * se
    sample_cov = np.cov(np.vstack(cols), ddof=1)
    w = (y.y1 - mean[0]) * (y.y2 - mean[1])
    se12 = float(np.std(w, ddof=1)) / math.sqrt(n)
    assert abs(sample_cov[0, 1] - cov[0, 1]) < 3.5 * se12


def test_sampler_slanted_moments():
    dp = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
    n = 200_000
    y = sample_esn2(dp, n, 78)
    cols = (y.y1, y.y2)
    mean, cov = moments_esn2(dp)
    for j in range(2):
        se = math.sqrt(cov[j, j] / n)
        assert abs(float(np.mean(cols[j])) - mean[j]) < 3.5 * se
        w = (cols[j] - mean[j]) ** 2
        se_v = float(np.std(w, ddof=1)) / math.sqrt(n)
        assert abs(float(np.var(cols[j], ddof=1)) - cov[j, j]) < 3.5 * se_v


def test_sampler_marginal_normal_when_unlinked():
    # alpha2 = 0 and omega12 = 0 leave the second coordinate untouched
    dp = DpParams(0, 0, 1, 0, 1, 2, 0, 0.7)
    n = 100_000
    y = sample_esn2(dp, n, 80)
    stat = scipy.stats.kstest(y.y2, "norm").statistic
    assert stat < 1.94947 / math.sqrt(n)


@pytest.mark.parametrize("tau", [-30.0, -8.0, -2.0, 1.0])
def test_sampler_any_tau(tau):
    # xi is minus the mean, so the mass lies inside the chi-square grid
    base = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, tau)
    mean, _ = moments_esn2(base)
    dp = replace(base, xi1=-mean[0], xi2=-mean[1])
    n = 200_000
    mean, cov = moments_esn2(dp)
    y = sample_esn2(dp, n, 81)
    for j, col in enumerate((y.y1, y.y2)):
        se = math.sqrt(cov[j, j] / n)
        assert abs(float(np.mean(col)) - mean[j]) < 3.5 * se
        w = (col - mean[j]) ** 2
        se_v = float(np.std(w, ddof=1)) / math.sqrt(n)
        assert abs(float(np.var(col, ddof=1)) - cov[j, j]) < 3.5 * se_v
    p, _, _ = sampler_chi2_pvalue(dp, n, 81)
    assert p > 1e-3


def test_mc_sigmas_match_kernel_chunk_means():
    # the oracle reads each chunk's mean -H from observed_info; the
    # reference sums kernel_rows' hessian rows per chunk.  A sigma is the
    # difference of einfo / se and mean / se, so it is compared relative to
    # those
    dp = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7)
    data = sample_esn2(dp, 100 * 700, 7)
    einfo = expected_info(dp).matrix
    block = {rc: einfo[rc] for rc in _UPPER_36}
    rows = kernel_rows(dp, *_residuals(dp, data.y1, data.y2))[2]
    chunks = -rows.reshape(100, 700, 36).mean(axis=1)
    want = np.empty(len(_UPPER_36))
    scale = np.empty(len(_UPPER_36))
    for k, (r, c) in enumerate(_UPPER_36):
        means = chunks[:, _COL[r, c]]
        se = np.std(means, ddof=1) / math.sqrt(100)
        want[k] = abs(block[(r, c)] - np.mean(means)) / se
        scale[k] = (abs(block[(r, c)]) + abs(np.mean(means))) / se
    got = _mc_info_sigmas(dp, block, data, _UPPER_36)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_mc_sigmas_need_equal_chunks():
    dp = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7)
    data = sample_esn2(dp, 100 * 700 + 1, 7)
    with pytest.raises(ValueError, match="equal chunks"):
        _mc_info_sigmas(dp, {(0, 0): 1.0}, data, [(0, 0)])


def test_sampler_chi2_pvalue():
    dp = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    p, stat, dof = sampler_chi2_pvalue(dp, 200_000, 5)
    assert p > 1e-3
    assert stat > 0.0 and dof > 100


def test_suite_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="level must be one of"):
        run_validation_suite(level="exhaustive")


def test_fast_suite_runs_with_plain_int_seed():
    report = run_validation_suite(seed=5, level="fast")
    assert report.passed, report.summary()
    # a bad seed is rejected before any check runs, as -1 would otherwise
    # wrap to a valid check seed
    for bad, message in BAD_SEEDS:
        with pytest.raises(ValueError, match=message):
            run_validation_suite(seed=bad, level="fast")


def test_fast_suite_passes_and_serializes():
    report = run_validation_suite(level="fast")
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["score_vs_fd", "oinfo_vs_fd",
                     "lemma4_vs_cubature", "singularity_structure"]
    for check in report.checks:
        assert isinstance(check.passed, bool)
        assert check.measured < check.threshold
    blob = json.dumps(report.as_dict())
    parsed = json.loads(blob)
    assert parsed["passed"] is True
    assert len(parsed["checks"]) == 4
    lines = report.summary().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("OK")


def test_fast_suite_passes_at_largest_seed():
    # check seeds are offsets from the suite seed, wrapped into 64 bits
    report = run_validation_suite(seed=2 ** 64 - 1, level="fast")
    assert report.passed, report.summary()


def test_full_suite_passes():
    # the Monte Carlo oracles and the chi-square test run only at "full"
    report = run_validation_suite(level="full")
    assert report.passed, report.summary()
    assert [c.name for c in report.checks] == [
        "score_vs_fd", "oinfo_vs_fd", "lemma4_vs_cubature", "einfo_vs_mc",
        "tau0_sn2_reduction", "sampler_chi2", "singularity_structure"]


# the corners of the Lemma 4 check's sampled ranges; alpha -> -alpha
# mirrors Z and leaves T, so alpha1 = 3 stands for alpha1 = -3 as well
@pytest.mark.parametrize("lam,alpha2,tau", itertools.product(
    (-0.9, 0.9), (-3.0, 3.0), (-2.0, 2.0)))
def test_lemma4_grid_matches_adaptive_cubature(lam, alpha2, tau):
    # the check's fixed product grid against the adaptive rule on the same
    # box of +-9 marginal sd around the mean of Z
    alpha1 = 3.0
    dp = DpParams(0, 0, 1, lam, 1, alpha1, alpha2, tau)
    alpha0 = tau * math.sqrt(1.0 + _alpha_star_sq(lam, alpha1, alpha2))
    d = delta_vector(lam, alpha1, alpha2)
    mean = zeta(1, tau) * np.array([d.delta1, d.delta2])
    sd = np.sqrt(1.0 + zeta(2, tau) * np.array([d.delta1, d.delta2]) ** 2)

    def integrand(z1, z2):
        t = alpha0 + alpha1 * z1 + alpha2 * z2
        return zeta(1, t) * density_esn2(z1, z2, dp)

    oracle = integrate_2d(integrand, mean - 9.0 * sd, mean + 9.0 * sd, TIGHT)
    assert oracle.converged
    grid = _lemma4_by_cubature(lam, alpha1, alpha2, tau)
    assert abs(grid - oracle.value) <= 1e-10 * oracle.value


def test_lemma4_check_resolves_the_closed_form():
    check = _check_lemma4(20260815)
    assert check.passed
    assert check.measured < 1e-12


def test_random_dp_helper_is_always_valid():
    rng = philox(20260815, 99)
    for _ in range(50):
        random_dp(rng)

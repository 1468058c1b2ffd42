"""Log-likelihood, analytic score, observed information, and the fitter.

Reference numbers come from 50-digit central differences of the exact
log-density, so they are independent of every closed-form derivative
implemented here.  The deep-tail, extreme-regime and near-singular checks
compute theirs the same way with mpmath at run time, and are skipped
without it.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import philox, random_dp
from esn2 import (
    Dataset,
    DpParams,
    InfoMatrix,
    NonFiniteStart,
    NonPositiveDefiniteScale,
    density_esn2,
    expected_info,
    fd_gradient,
    fit_mle,
    loglik,
    observed_info,
    sample_esn2,
    score,
)
from esn2 import likelihood, model
from esn2.cli import _default_starts
from esn2.expected_info import _FLIP_SIGNS
from esn2.likelihood import (_FLOOR, _ROWS, _UPPER, _coefficients, _handover,
                             _levels, _score_rows)
from esn2.model import _alpha_star_sq, _lam, _residuals
from oracles import kernel_rows

POINT_A = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
DATA_A = Dataset(np.array([0.7, -0.4, 1.1]), np.array([-1.2, 0.5, 0.9]))
LOGLIK_A = -7.7871979743096206732
SCORE_A = np.array([
    1.9553134658109166525, -1.0670298012836250212, 1.0742581009013158803,
    -3.7111184898844689336, 1.6301151374623396491, 0.034080006637194475203,
    -0.0064302740837942328756, -0.75992378540932531583])
HESS_A = {
    (0, 0): -4.9043841851122433683, (0, 1): 2.4871737223316349476,
    (0, 2): -3.2209563926268995458, (0, 3): 3.578812704860568777,
    (0, 4): -0.7847064286220036123, (0, 5): 0.14306062758042247143,
    (0, 6): -0.031206028488379869962, (0, 7): 0.49930489050734301211,
    (1, 1): -5.1754894165025475786, (1, 2): 1.6975505104178381708,
    (1, 3): -3.8505309427091468345, (1, 4): 1.8252052577088070922,
    (1, 5): 0.24810584201244621775, (1, 6): -0.069152309827111478679,
    (1, 7): 0.74895733576101451816, (2, 2): -7.1240451148249002838,
    (2, 3): 12.363577278037405481, (2, 4): -4.7378573579125878499,
    (2, 5): 0.079599991101141408424, (2, 6): -0.018205544323189259474,
    (2, 7): 0.26361150357528561153, (3, 3): -25.503145850905819656,
    (3, 4): 13.124444215851580813, (3, 5): -0.098431233547678700103,
    (3, 6): 0.02426960252103629622, (3, 7): -0.29621039255283398605,
    (4, 4): -8.8134548506219633355, (4, 5): -0.11933235230513003456,
    (4, 6): 0.03421616141525563091, (4, 7): -0.36049198281462821496,
    (5, 5): -0.124597758083043035, (5, 6): 0.023060313484031239728,
    (5, 7): -0.36234830109289694022, (6, 6): -0.0036799008024656838093,
    (6, 7): 0.092222792266668483615, (7, 7): -0.038545038424706054501,
}

POINT_B = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1, 2, -0.7)
DATA_B = Dataset(np.array([0.2, -0.5]), np.array([0.1, 0.9]))
LOGLIK_B = -3.931163213943614187
SCORE_B = np.array([
    1.3758505367140777046, -2.5161699947272705202, -0.72586342460511234816,
    -0.1233995668626513801, -1.3582378091219981473, 0.55254355733278790767,
    -0.31117741499865138647, 2.536263225938850633])
HESS_B = {
    (0, 0): -2.2916605859432603977, (0, 1): 1.2934897737549496948,
    (0, 2): -0.37558724779468695431, (0, 3): -1.6594351783743309504,
    (0, 4): -0.080534896383288445118, (0, 5): -1.7182018192598828359,
    (0, 6): 0.022455997852357542363, (0, 7): -2.5196608035020543122,
    (1, 1): -8.5336082407282991367, (1, 2): 0.015440185880113418685,
    (1, 3): 0.76045481724893235029, (1, 4): -1.3365315168301503677,
    (1, 5): 0.51624255597106745086, (1, 6): -2.1561217417772157523,
    (1, 7): 6.9003752966983349898, (2, 2): 0.53328432734946550703,
    (2, 3): 0.49999118805744034158, (2, 4): 0.11082197657408818082,
    (2, 5): -0.017585976608552044341, (2, 6): 0.059334684971455300079,
    (2, 7): -0.11355258118015273962, (3, 3): 1.226420886326523863,
    (3, 4): 0.58187294567149656401, (3, 5): -0.78131886067558971859,
    (3, 6): 0.17326992511128695735, (3, 7): -2.6961907131433584192,
    (4, 4): 0.32935909781482923198, (4, 5): -0.17152089870590363028,
    (4, 6): -0.26645110813151705851, (4, 7): 1.5701739495234472384,
    (5, 5): -0.40829416823724973787, (5, 6): 0.032840985860986120648,
    (5, 7): -1.8174222164650161835, (6, 6): -0.30119193018495100509,
    (6, 7): 1.6973897862303581385, (7, 7): -6.9048898466815773854,
}

DATA_C = Dataset(np.array([0.3, -0.8, 1.2]), np.array([-0.5, 0.4, 1.1]))

IDENTITY = DpParams(0, 0, 1, 0, 1, 0, 0, 0)
ORIGIN = Dataset(np.array([0.0]), np.array([0.0]))

# deep truncation, |lam| near 1, |alpha| = 30 and alpha near 0
EXTREME_DPS = [
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 2, 1, -30),
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 5, -1, -12),
    DpParams(0, 0, 1, 0.95, 1, 30, 2, -8),
    DpParams(0, 0, 1, -0.95, 1, 1, -3, -8),
    DpParams(0, 0, 1, 0.4, 1, -30, 2, 10),
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 1e-6, -5e-7, -8),
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 1e-6, -5e-7, 3),
]


@pytest.mark.parametrize("dp,data,want", [
    (POINT_A, DATA_A, LOGLIK_A),
    (POINT_B, DATA_B, LOGLIK_B),
])
def test_loglik_oracle(dp, data, want):
    assert_allclose(loglik(dp, data), want, rtol=1e-14)


@pytest.mark.parametrize("dp,data,want", [
    (POINT_A, DATA_A, SCORE_A),
    (POINT_B, DATA_B, SCORE_B),
])
def test_score_oracle(dp, data, want):
    assert_allclose(score(dp, data), want, rtol=1e-11)


@pytest.mark.parametrize("dp,data,hess", [
    (POINT_A, DATA_A, HESS_A),
    (POINT_B, DATA_B, HESS_B),
])
def test_observed_info_oracle(dp, data, hess):
    info = observed_info(dp, data)
    assert info.kind == "observed"
    for (r, c), h in hess.items():
        assert_allclose(info.matrix[r, c], -h, rtol=1e-10,
                        err_msg=f"entry ({r}, {c})")
        assert info.matrix[c, r] == info.matrix[r, c]


def test_loglik_single_origin_identity():
    assert_allclose(loglik(IDENTITY, ORIGIN), -math.log(2.0 * math.pi),
                    rtol=1e-15)


def test_score_single_origin_identity():
    got = score(IDENTITY, ORIGIN)
    assert_allclose(got, [0, 0, -0.5, 0, -0.5, 0, 0, 0], rtol=1e-14,
                    atol=1e-14)


def test_observed_info_singular_point():
    info = observed_info(IDENTITY, ORIGIN).matrix
    assert_allclose(info[0, 0], 1.0, rtol=1e-12)
    assert info[7, 7] == pytest.approx(0.0, abs=1e-12)


def test_loglik_and_score_additive():
    both = Dataset(np.concatenate([DATA_A.y1, np.array([0.1, -0.8])]),
                   np.concatenate([DATA_A.y2, np.array([0.4, 0.2])]))
    extra = Dataset(np.array([0.1, -0.8]), np.array([0.4, 0.2]))
    assert_allclose(loglik(POINT_A, both),
                    loglik(POINT_A, DATA_A) + loglik(POINT_A, extra),
                    rtol=1e-14)
    assert_allclose(score(POINT_A, both),
                    score(POINT_A, DATA_A) + score(POINT_A, extra),
                    rtol=1e-12)


def test_score_matches_fd_gradient():
    fd = fd_gradient(lambda th: loglik(DpParams.from_array(th), DATA_B),
                     POINT_B)
    assert np.max(np.abs(fd - score(POINT_B, DATA_B))) < 1e-6


def test_info_matrix_validation():
    with pytest.raises(ValueError):
        InfoMatrix(matrix=np.zeros((3, 3)), kind="observed")
    with pytest.raises(ValueError):
        InfoMatrix(matrix=np.eye(8), kind="guessed")
    asym = np.eye(8)
    asym[0, 1] = 1e-3
    # asymmetry means a builder bug, guarded by an assertion
    with pytest.raises(AssertionError):
        InfoMatrix(matrix=asym, kind="observed")


def test_fit_requires_enough_rows():
    with pytest.raises(ValueError):
        fit_mle(Dataset(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                IDENTITY)


def test_fit_recovers_truth_roughly():
    truth = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    data = sample_esn2(truth, 2000, 7)
    start = DpParams(0.1, -0.1, 1.2, 0.3, 0.9, 1.0, -0.5, 0.2)
    result = fit_mle(data, start)
    assert result.converged
    assert result.final_score_norm < 1e-6
    assert_allclose(result.loglik, loglik(result.dp_hat, data), rtol=1e-12)
    # the likelihood-ratio statistic against the truth, not a box around
    # it: at n = 2000 the maximum can lie more than 1 from the truth in
    # alpha1 and tau.  58.3 is the chi-square(8) quantile at 1 - 1e-9.
    lr = 2.0 * (result.loglik - loglik(truth, data))
    assert -1e-6 <= lr <= 58.3


def test_fit_hands_over_when_loglik_stops_resolving(monkeypatch):
    # from criterion 10's start on this dataset the score is below 1e-4 by
    # about the 45th evaluation; BFGS's line searches would then spend
    # about 40 more on values they cannot tell apart (116 in all) before
    # stopping with precision loss, and the Newton finish ends it instead
    data = sample_esn2(DpParams(0, 0, 1, 0.6, 1, 2, 3, 1), 20000, 5)
    sums = likelihood._sums
    calls = []

    def counted(*args):
        calls.append(args)
        return sums(*args)

    monkeypatch.setattr(likelihood, "_sums", counted)
    result = fit_mle(data, DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5,
                                    0.1))
    assert result.converged and result.final_score_norm < 1e-6
    assert len(calls) == result.evaluations <= 70


def test_fit_finish_never_falls_below_bfgs_end(monkeypatch):
    # from this start on this dataset BFGS ends at alpha near (4.9e6,
    # 1.1e6), where the observed information is numerically singular, so
    # the finish stops at once.  It climbs loglik, so it never ends below
    # the point BFGS reached
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 0, 0, 0), 2000, 13)
    sums = likelihood._sums
    values = []

    def recorded(dp, data, order):
        result = sums(dp, data, order)
        if order == 2:
            values.append(result[0])
        return result

    monkeypatch.setattr(likelihood, "_sums", recorded)
    result = fit_mle(data, _default_starts(data)[3])
    assert result.loglik >= values[0]
    assert result.evaluations <= 300


def test_fit_finish_stops_at_a_saddle():
    # from this start BFGS ends near the alpha = 0 stationary point, where
    # -hess is not positive definite, so the finish takes no Newton step
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 0, 0, 0), 2000, 6)
    result = fit_mle(data, _default_starts(data)[1])
    assert result.evaluations <= 100


def test_fit_is_not_converged_on_the_truncation_boundary():
    # from this start BFGS runs out to alpha near (3.6e6, 4.5e6), toward
    # the boundary where the ESN becomes a truncated normal and the
    # observed information is numerically singular.  A Newton step there
    # could shrink the gradient without a rise in loglik; such a point is
    # not a maximum
    data = sample_esn2(DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1, 2, -0.7),
                       500, 111)
    result = fit_mle(data, _default_starts(data)[1])
    assert not result.converged


@pytest.mark.parametrize("truth", [(0, 0, 1, 0.5, 1, 1.5, -1, 0.5),
                                   (0, 0, 1, 0.6, 1, 2, 3, 1)])
@pytest.mark.parametrize("c", [2.0 ** -10, 2.0 ** 10])
def test_fit_of_rescaled_data_takes_the_same_path(truth, c):
    # y -> c y maps the maximum to xi -> c xi, Omega -> c^2 Omega and
    # shifts loglik by -2 n log c.  BFGS's gradient stop must not depend on
    # the data's units: with the locations in coordinates of the data's
    # scale the rescaled fit takes the unit-scale fit's path, not one that
    # stops early or ends in precision loss
    data = sample_esn2(DpParams(*truth), 2000, 1)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    unit = fit_mle(data, start)
    theta = start.as_array()
    scale = np.array([c, c, c * c, c * c, c * c, 1, 1, 1])
    scaled = fit_mle(Dataset(c * data.y1, c * data.y2),
                     DpParams.from_array(scale * theta))
    assert unit.converged and scaled.converged
    assert scaled.evaluations <= unit.evaluations + 5
    assert_allclose(scaled.loglik, unit.loglik - 2 * data.n * math.log(c),
                    rtol=0, atol=1e-8)
    assert_allclose(scaled.dp_hat.as_array() / scale,
                    unit.dp_hat.as_array(), rtol=1e-8, atol=1e-8)


def test_fit_converges_on_data_in_small_units():
    # at c = 1e-3 the omega score grows as 1 / c^2, and its rounding floor
    # on this dataset, about 2e-6, lies above the 1e-6 target; the internal
    # gradient, which BFGS and the finish both stop on, does not scale
    c = 1e-3
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 20000, 7000)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    scale = np.array([c, c, c * c, c * c, c * c, 1, 1, 1])
    unit = fit_mle(data, start)
    scaled = fit_mle(Dataset(c * data.y1, c * data.y2),
                     DpParams.from_array(scale * start.as_array()))
    assert unit.converged and scaled.converged
    assert scaled.final_score_norm < 1e-6
    assert_allclose(scaled.loglik, unit.loglik - 2 * data.n * math.log(c),
                    rtol=1e-9)


@pytest.mark.parametrize("truth,n,seed,max_iter", [
    ((0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 300, 132, 500),
    ((0, 0, 1, 0.6, 1, 2, 3, 1), 50, 139, 500),
    ((0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 2000, 100, 0),
    ((0, 0, 1, 0.6, 1, 2, 3, 1), 2000, 101, 0),
])
def test_fit_polish_rejects_overflowing_steps(truth, n, seed, max_iter,
                                              monkeypatch):
    # from criterion 10's start on these datasets, -hess is not positive
    # definite at the point handed to the finish, where a Newton step can
    # send |alpha| past 1e154 and alpha_star^2 overflow.  The finish takes
    # no step there; whatever it does, it must not raise or warn, nor end
    # below the start.  max_iter = 0 hands the start to the finish
    # whatever BFGS would do.
    monkeypatch.setattr(likelihood, "_MAX_ITER", max_iter)
    data = sample_esn2(DpParams(*truth), n, seed)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    result = fit_mle(data, start)
    assert np.all(np.isfinite(result.dp_hat.as_array()))
    assert math.isfinite(result.final_score_norm)
    assert_allclose(result.loglik, loglik(result.dp_hat, data), rtol=1e-12)
    assert result.loglik >= loglik(start, data)


def test_fit_finish_halves_a_step_out_of_the_parameter_space(monkeypatch):
    # after 10 BFGS iterations on this small dataset a full Newton step of
    # the finish makes Omega singular; the finish halves it and goes on
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 60, 115)
    sums, validate = likelihood._sums, model._validate
    orders, rejected = [], []

    def counted_sums(dp, data, order):
        orders.append(order)
        return sums(dp, data, order)

    def counted_validate(dp):
        try:
            return validate(dp)
        except ValueError as exc:
            if 2 in orders:
                rejected.append(exc)
            raise

    monkeypatch.setattr(likelihood, "_sums", counted_sums)
    monkeypatch.setattr(model, "_validate", counted_validate)
    monkeypatch.setattr(likelihood, "_MAX_ITER", 10)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    result = fit_mle(data, start)
    assert rejected
    assert all(isinstance(exc, NonPositiveDefiniteScale) for exc in rejected)
    assert result.converged
    assert_allclose(result.loglik, loglik(result.dp_hat, data), rtol=1e-12)


def test_fit_finish_ends_where_every_halving_is_rejected(monkeypatch):
    # the dataset and BFGS run of the test above; with every candidate of
    # the finish rejected, all 30 halvings of its first step fail, and the
    # fit ends where BFGS did, unconverged, having evaluated no candidate
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 60, 115)
    sums, calls, candidates = likelihood._sums, [], []

    def recorded(dp, data, order):
        calls.append((dp, order))
        return sums(dp, data, order)

    def rejected(values):
        candidates.append(values)
        raise ValueError("rejected candidate")

    monkeypatch.setattr(likelihood, "_sums", recorded)
    monkeypatch.setattr(likelihood.DpParams, "from_array", rejected)
    monkeypatch.setattr(likelihood, "_MAX_ITER", 10)
    start = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    result = fit_mle(data, start)
    assert len(candidates) == 30
    # one order-2 read, the finish's at BFGS's end point
    finish = [dp for dp, order in calls if order == 2]
    assert finish == [result.dp_hat]
    assert not result.converged
    assert result.evaluations == len(calls)
    assert result.loglik == loglik(result.dp_hat, data)


@pytest.mark.parametrize("hess_inv", [
    np.diag([1.0, -1.0]),
    # positive diagonal, but its symmetric part is singular
    np.array([[1.0, 3.0], [-1.0, 1.0]]),
    np.full((2, 2), np.nan),
])
def test_handover_drops_a_matrix_not_positive_definite(hess_inv):
    assert _handover(hess_inv, 0.25) is None


def test_handover_symmetrises_and_scales():
    hess_inv = np.array([[2.0, 0.7], [0.3, 1.0]])
    assert np.array_equal(_handover(hess_inv, 0.25),
                          np.array([[0.5, 0.125], [0.125, 0.25]]))


def test_fit_objective_rejects_a_point_out_of_the_parameter_space(
        monkeypatch):
    # from the fourth default start on this dataset one BFGS trial has
    # psi3 = 17.9, so lam rounds to 1 and det Omega = 9.5e-20: building the
    # point raises, and the objective reads inf there and goes on
    data = sample_esn2(DpParams(0, 0, 1, 0.6, 1, 2, 3, 1), 500, 111)
    from_internal, rejected = likelihood._from_internal, []

    def counted_from_internal(psi, unit):
        try:
            return from_internal(psi, unit)
        except ValueError as exc:
            rejected.append(exc)
            raise

    monkeypatch.setattr(likelihood, "_from_internal", counted_from_internal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_mle(data, _default_starts(data)[3])
    assert len(rejected) == 1
    assert isinstance(rejected[0], NonPositiveDefiniteScale)
    assert not result.converged
    assert_allclose(result.loglik, -1175.259714810966, rtol=1e-12, atol=0)


CRIT10_START = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)


@pytest.fixture(scope="module")
def levels_fit():
    # the first dataset of scripts/fit_outcomes.py's set A
    data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 20000, 5001)
    return data, fit_mle(data, CRIT10_START)


def test_fit_on_levels_reaches_the_direct_fits_maximum(levels_fit):
    # the loglik of the fit on all rows alone, without the 5,000-row level
    data, result = levels_fit
    assert result.converged and result.final_score_norm < 1e-6
    assert_allclose(result.loglik, -49707.14682906586, rtol=1e-10, atol=0)


def test_fit_records_calls_per_level(levels_fit, monkeypatch):
    data, result = levels_fit
    rows = [r for r, _ in result.levels]
    assert rows == [5000, 20000]
    assert sum(c for _, c in result.levels) == result.evaluations
    # each level's calls read that level's rows, the finish's all rows
    sums, seen = likelihood._sums, []

    def counted(dp, part, order):
        seen.append(part.n)
        return sums(dp, part, order)

    monkeypatch.setattr(likelihood, "_sums", counted)
    again = fit_mle(data, CRIT10_START)
    assert tuple((r, seen.count(r)) for r in rows) == again.levels


@pytest.mark.parametrize("n,rows", [
    (16383, [16383]), (16384, [4096, 16384]), (20000, [5000, 20000]),
    (10 ** 6, [15625, 62500, 250000, 10 ** 6])])
def test_levels_keep_at_least_the_floor(n, rows):
    data = Dataset(np.arange(n, dtype=float), np.zeros(n))
    parts = _levels(data)
    assert [p.n for p in parts] == rows
    assert parts[-1] is data and rows[0] >= min(n, _FLOOR)
    # strided rows, all of them from the first
    assert np.array_equal(parts[0].y1, data.y1[::n // rows[0]])


def test_fit_on_levels_is_reproducible(levels_fit):
    data, result = levels_fit
    assert fit_mle(data, CRIT10_START) == result


def test_fit_on_levels_passes_the_bench_check_at_the_third_truth():
    # from criterion 10's start a fit on all rows alone reports converged
    # at a local maximum with 2 (loglik - loglik(truth)) = -1146; the
    # 5,000-row level leads it to the maximum
    truth = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, -1, 2, -0.7)
    data = sample_esn2(truth, 20000, 7000)
    result = fit_mle(data, CRIT10_START)
    assert result.converged
    assert 2.0 * (result.loglik - loglik(truth, data)) >= -1e-6


@pytest.mark.parametrize("n,bad", [(10, slice(None)), (16384, 1)])
def test_fit_rejects_a_start_with_non_finite_loglik(n, bad):
    # rows that overflow at the start's scale make loglik -inf there.  At
    # n = 16384 the one such row lies outside the 4,096-row level, so only
    # a check on all rows before the levels finds it
    y1 = np.arange(n, dtype=float)
    y1[bad] *= 1e200
    data = Dataset(y1, np.arange(n, dtype=float) % 10)
    with pytest.raises(NonFiniteStart, match="start DpParams") as err:
        fit_mle(data, CRIT10_START)
    assert isinstance(err.value, ValueError)


def _mp_loglik(mp, theta, data):
    """Exact log-likelihood of data at theta, in mpmath arithmetic."""
    xi1, xi2, o11, o12, o22, a1, a2, tau = theta
    lam = o12 / mp.sqrt(o11 * o22)
    den = mp.sqrt(1 + a1 * a1 + a2 * a2 + 2 * a1 * a2 * lam)
    total = -data.n * (mp.log(2 * mp.pi * mp.ncdf(tau))
                       + mp.log(o11 * o22 * (1 - lam * lam)) / 2)
    for y1, y2 in zip(data.y1, data.y2):
        z1 = (mp.mpf(y1) - xi1) / mp.sqrt(o11)
        z2 = (mp.mpf(y2) - xi2) / mp.sqrt(o22)
        quad = (z1 * z1 + z2 * z2 - 2 * lam * z1 * z2) / (1 - lam * lam)
        total += mp.log(mp.ncdf(tau * den + a1 * z1 + a2 * z2)) - quad / 2
    return total


def _assert_matches_high_precision(dp):
    """loglik, score and observed_info on DATA_C within 1e-12 (floor 1)
    of 50-digit derivatives of the exact log-likelihood."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        theta = [mp.mpf(v) for v in dp.as_array()]

        def partial(*wrt):
            orders = [0] * 8
            for i in wrt:
                orders[i] += 1
            return float(mp.diff(lambda *th: _mp_loglik(mp, th, DATA_C),
                                 theta, tuple(orders)))

        want_loglik = float(_mp_loglik(mp, theta, DATA_C))
        want_score = np.array([partial(i) for i in range(8)])
        want_info = np.empty((8, 8))
        for r in range(8):
            for c in range(r, 8):
                want_info[r, c] = want_info[c, r] = -partial(r, c)

    def rel(got, want):
        return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))

    assert rel(loglik(dp, DATA_C), want_loglik) < 1e-12
    assert rel(score(dp, DATA_C), want_score) < 1e-12
    assert rel(observed_info(dp, DATA_C).matrix, want_info) < 1e-12


@pytest.mark.parametrize("dp", [
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 2, 1, -30),
    DpParams(0.2, -0.1, 1.5, 0.4, 0.9, 5, -1, -12),
])
def test_deep_tail_matches_high_precision(dp):
    # every t here lies in the Mills-series branch of the zeta ladder
    z1, z2 = _residuals(dp, DATA_C.y1, DATA_C.y2)
    alpha0 = dp.tau * math.sqrt(
        1.0 + _alpha_star_sq(_lam(dp), dp.alpha1, dp.alpha2))
    assert all(alpha0 + dp.alpha1 * z1 + dp.alpha2 * z2 < -10.0)
    _assert_matches_high_precision(dp)


@pytest.mark.parametrize("dp", [
    DpParams(0, 0, 1, 0.95, 1, 30, 2, -8),
    DpParams(0, 0, 1, -0.95, 1, 1, -3, -8),
    DpParams(0, 0, 1, 0.4, 1, -30, 2, 10),
])
def test_extreme_regimes_match_high_precision(dp):
    # the points of test_extreme_regimes_resolved: |lam| near 1 under a
    # deep truncation, and |alpha| = 30
    _assert_matches_high_precision(dp)


def test_observed_info_mirror_invariance():
    # with xi = 0, (alpha, y) -> (-alpha, -y) leaves every t unchanged and
    # flips the sign of the xi and alpha coordinates
    rng = philox(20260815, 44)
    signs = np.outer(_FLIP_SIGNS, _FLIP_SIGNS)
    for _ in range(20):
        dp = replace(random_dp(rng), xi1=0.0, xi2=0.0)
        y = rng.normal(size=(2, 25)) * 2.0
        flipped = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
        m = observed_info(dp, Dataset(y[0], y[1])).matrix
        mf = observed_info(flipped, Dataset(-y[0], -y[1])).matrix
        assert np.max(np.abs(mf - m * signs)
                      / np.maximum(1.0, np.abs(m))) <= 1e-13, dp


@pytest.mark.parametrize("tau", [-8.0, -2.0, 0.5, 3.0])
@pytest.mark.parametrize("alpha1", [1e-6, 1e-4, 1e-2])
def test_tau_tau_info_near_alpha_zero(alpha1, tau):
    # den^2 zeta2(t) - zeta2(tau) vanishes as alpha -> 0; as a plain
    # difference it loses up to 1e-3 of its relative accuracy here
    dp = DpParams(0.2, -0.1, 1.5, 0.4, 0.9, alpha1, -0.5 * alpha1, tau)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        xi1, xi2, o11, o12, o22, a1, a2, t0 = (mp.mpf(v)
                                               for v in dp.as_array())
        lam = o12 / mp.sqrt(o11 * o22)
        den2 = 1 + a1 * a1 + a2 * a2 + 2 * a1 * a2 * lam

        def zeta2(x):
            z1 = mp.npdf(x) / mp.ncdf(x)
            return -z1 * (x + z1)

        want = 0
        for y1, y2 in zip(DATA_C.y1, DATA_C.y2):
            t = (t0 * mp.sqrt(den2) + a1 * (mp.mpf(y1) - xi1) / mp.sqrt(o11)
                 + a2 * (mp.mpf(y2) - xi2) / mp.sqrt(o22))
            want -= den2 * zeta2(t) - zeta2(t0)
        want = float(want)
    got = observed_info(dp, DATA_C).matrix[7, 7]
    assert abs(got - want) <= 1e-8 * abs(want)


def test_observed_info_centred_against_cancellation():
    # here z1 sits near 30, so g = z1 + tau d(den)/d(alpha1) cancels; the
    # zeta2 moments about the origin lose about 2 digits more than this
    mp = pytest.importorskip("mpmath").mp
    dp = DpParams(0, 0, 1, 0.6, 1, 30, 2, -30)
    for seed in (1, 2):
        data = sample_esn2(dp, 40, seed)
        with mp.workdps(40):
            theta = [mp.mpf(v) for v in dp.as_array()]
            want = -float(mp.diff(lambda *th: _mp_loglik(mp, th, data),
                                  theta, (0, 0, 0, 0, 0, 2, 0, 0)))
        got = observed_info(dp, data).matrix[5, 5]
        assert abs(got - want) <= 1e-12 * abs(want), seed


@pytest.mark.parametrize("dp", [DpParams(0, 0, 1, 0.6, 1, 30, 2, -30),
                                DpParams(0, 0, 1, 0.95, 1, 30, 2, -8)])
def test_observed_info_zeta2_across_blocks(dp):
    # z sits near where grad t cancels; each block contracts its zeta2 term
    # about its own centre, and the blocks' terms are added.  An exact sum of
    # kernel_rows' hessian rows is the reference
    for seed in (1, 2, 3):
        data = sample_esn2(dp, 2 * _ROWS + 1000, seed)
        z1, z2 = _residuals(dp, data.y1, data.y2)
        rows = np.vstack([kernel_rows(dp, z1[lo:lo + _ROWS],
                                      z2[lo:lo + _ROWS])[2]
                          for lo in range(0, data.n, _ROWS)])
        want = np.array([math.fsum(col) for col in rows.T])
        got = -observed_info(dp, data).matrix[_UPPER]
        nonzero = got != 0.0
        assert np.all(np.abs(got - want)[nonzero]
                      <= 1e-12 * np.abs(want)[nonzero]), seed


def test_sums_match_kernel_rows():
    # loglik, score and observed_info contract moment sums; kernel_rows'
    # rows, summed in the same blocks, are the reference
    rng = philox(20260815, 45)
    points = [random_dp(rng) for _ in range(20)] + EXTREME_DPS + [IDENTITY]
    for k, dp in enumerate(points):
        # one dataset crosses a block boundary
        n = 70_000 if k == 0 else 300
        data = sample_esn2(dp, n, k + 1)
        z1, z2 = _residuals(dp, data.y1, data.y2)
        blocks = [kernel_rows(dp, z1[lo:lo + _ROWS], z2[lo:lo + _ROWS])
                  for lo in range(0, n, _ROWS)]
        assert loglik(dp, data) == float(sum(b[0].sum() for b in blocks))
        for got, rows in ((score(dp, data), [b[1] for b in blocks]),
                          (-observed_info(dp, data).matrix[_UPPER],
                           [b[2] for b in blocks])):
            rows = np.vstack(rows)
            bound = 1e-12 * np.abs(rows).sum(axis=0)
            assert np.all(np.abs(got - rows.sum(axis=0)) <= bound), (k, dp)


@pytest.mark.parametrize("k", range(len(EXTREME_DPS)))
def test_one_score_coefficient_source(k):
    # the Gram rule's score rows and kernel_rows read the same coefficients
    dp = EXTREME_DPS[k]
    data = sample_esn2(dp, 300, k + 1)
    z1, z2 = _residuals(dp, data.y1, data.y2)
    assert np.array_equal(_score_rows(dp, z1, z2), kernel_rows(dp, z1, z2)[1])


def test_only_order_two_builds_the_hessian_coefficients():
    # lin costs about five times the rest of the record; loglik, score and
    # the Gram rule behind expected_info never read it
    dp = POINT_A
    data = sample_esn2(dp, 300, 7)
    _coefficients.cache_clear()
    loglik(dp, data)
    score(dp, data)
    expected_info(dp)
    # all three read one record, so it was not rebuilt without lin
    assert _coefficients.cache_info().misses == 1
    assert "lin" not in vars(_coefficients(dp))
    observed_info(dp, data)
    assert "lin" in vars(_coefficients(dp))


def test_order_zero_leaves_the_score_coefficients_unbuilt():
    # the finite-difference checks call loglik at hundreds of dp, and
    # density_esn2 serves the sampler's chi-square test: neither reads s_coef
    dp = POINT_A
    data = sample_esn2(dp, 300, 7)
    _coefficients.cache_clear()
    loglik(dp, data)
    density_esn2(data.y1, data.y2, dp)
    assert _coefficients.cache_info().misses == 1
    assert "s_coef" not in vars(_coefficients(dp))
    score(dp, data)
    assert "s_coef" in vars(_coefficients(dp))
    assert "lin" not in vars(_coefficients(dp))


@pytest.mark.parametrize("k", range(len(EXTREME_DPS)))
def test_kernel_score_rows_match_high_precision(k):
    # the score rows one at a time, as the Gram rule of expected_info reads
    # them, within 1e-12 (floor 1) of 50-digit derivatives of each row's
    # exact log density
    mp = pytest.importorskip("mpmath").mp
    dp = EXTREME_DPS[k]
    data = sample_esn2(dp, 4, k + 1)
    rows = _score_rows(dp, *_residuals(dp, data.y1, data.y2))
    with mp.workdps(50):
        theta = [mp.mpf(v) for v in dp.as_array()]
        for row, y1, y2 in zip(rows, data.y1, data.y2):
            one = Dataset(np.array([y1]), np.array([y2]))
            want = np.array([
                float(mp.diff(lambda *th: _mp_loglik(mp, th, one), theta,
                              tuple(int(i == j) for j in range(8))))
                for i in range(8)])
            err = np.abs(row - want) / np.maximum(1.0, np.abs(want))
            assert np.max(err) < 1e-12, (dp, y1, y2)

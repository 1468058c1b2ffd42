"""Expected information, structural checks, and determinant sweeps.

The full reference matrix below was computed at 30-digit precision from
one-dimensional quadratures of the factorized integrals available when
omega12 = 0 and alpha2 = 0, a derivation path disjoint from the Gram rule
under test.  The paper's closed-form assembly is checked against the rule
at random points, and two near-singular determinants against a 30-digit
mpmath evaluation.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import SWEEP_TOL, TIGHT, philox, random_dp
from esn2 import (
    CubatureControls,
    CubatureNotConverged,
    Dataset,
    DpParams,
    SweepRow,
    SweepSpec,
    block_structure_check,
    conditional_independence,
    det_scan,
    expectation_set,
    expected_info,
    observed_info,
    sample_esn2,
)
from esn2.cubature import _axes, _gram_factor, _gram_rule, _x_rule
from esn2.expectations import _assemble, _zeta1_rows
from esn2.expected_info import _FLIP_SIGNS
from esn2.likelihood import _coefficients, _score_rows
from esn2.special_fns import LOG_RT2PI, zeta

SEPARABLE = DpParams(0, 0, 1, 0, 1, 0.5, 0, -2)

# upper triangle of the 30-digit reference at SEPARABLE
EINFO_ORACLE = {
    (0, 0): 1.2153114136079862172, (0, 1): 0.0,
    (0, 2): 0.64101441311615863854, (0, 3): 0.0, (0, 4): 0.0,
    (0, 5): 2.0664401185827942346, (0, 6): 0.0,
    (0, 7): -0.48145095715903043776,
    (1, 1): 1.0, (1, 2): 0.0, (1, 3): 1.0613342513300511096,
    (1, 4): 0.0, (1, 5): 0.0, (1, 6): 2.1226685026601022193, (1, 7): 0.0,
    (2, 2): 0.83754185374131515243, (2, 3): 0.0, (2, 4): 0.0,
    (2, 5): 0.74580023999176654666, (2, 6): 0.0,
    (2, 7): -0.24674403587344307817,
    (3, 3): 1.9492862131291363469, (3, 4): 0.0, (3, 5): 0.0,
    (3, 6): 1.8985724262582726938, (3, 7): 0.0,
    (4, 4): 0.5, (4, 5): 0.0, (4, 6): 0.0, (4, 7): 0.0,
    (5, 5): 3.7510753833132535561, (5, 6): 0.0,
    (5, 7): -0.82355572406730890299,
    (6, 6): 4.6583905069484902564, (6, 7): 0.0,
    (7, 7): 0.19083616845401234259,
}

SINGULAR = DpParams(0, 0, 1, 0, 1, 0, 0, 0)
SLANTED = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
# the benchmark's fit truths and Monte Carlo points
FIT_MC_POINTS = [
    (0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, 0.5),
    (0.0, 0.0, 1.0, 0.6, 1.0, 2.0, 3.0, 1.0),
    (0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7),
    (0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, -2.0),
]
EXTREME_POINTS = [
    (0.0, 0.0, 1.0, 0.95, 1.0, 30.0, 2.0, -8.0),
    (0.0, 0.0, 1.0, -0.95, 1.0, 1.0, -3.0, -8.0),
    (0.0, 0.0, 1.0, 0.4, 1.0, -30.0, 2.0, 10.0),
]
# the benchmark's scan points with their tolerances (bench/points.py): (a)
# criterion 7's shrinking-slant chains at rel_tol 1e-9, (b) its huge-slant
# mirrored sweeps at the default tolerance
SCAN_POINTS = (
    [((0.0, 0.0, 1.0, 0.0, 1.0, a1, 0.0, tau),
      CubatureControls(rel_tol=1e-9, abs_tol=1e-14, max_evals=40_000_000))
     for tau in (-2.0, 0.0, 2.0) for a1 in (0.25, 0.5, 1.0)]
    + [((0.0, 0.0, 1.0, 0.4, 1.0, a1, a2, 0.0), CubatureControls())
       for a2 in (2.0, -2.0) for a1 in (-30.0, 0.0, 30.0)])
# edge cases of the mirror alpha -> -alpha: alpha1 = 0 with alpha2 < 0,
# tau = 0, |lam| -> 1 with a huge slant, and scan (b)'s alpha1 = +-30
MIRROR_POINTS = [
    (0.0, 0.0, 1.0, 0.4, 1.0, 0.0, -2.0, 0.7),
    (0.0, 0.0, 1.0, 0.4, 1.0, 1.3, -0.7, 0.0),
    (0.0, 0.0, 1.0, 0.9999, 1.0, 300.0, -50.0, 0.0),
    (0.0, 0.0, 1.0, -0.9999, 1.0, 300.0, -50.0, -40.0),
    (0.0, 0.0, 1.0, 0.4, 1.0, 30.0, 2.0, 0.0),
    (0.0, 0.0, 1.0, 0.4, 1.0, -30.0, 2.0, 0.0),
]
# expected_info at the benchmark's points, at criterion 7's tolerance
EINFO_REF = Path(__file__).parents[1] / "bench/reference/einfo_ref.json"


def _scaled(m, ref):
    d = np.sqrt(np.diag(ref))
    return np.abs(m - ref) / np.outer(d, d)


def test_expected_info_oracle_matrix():
    info = expected_info(SEPARABLE, tol=TIGHT)
    assert info.kind == "expected"
    m = info.matrix
    for (r, c), want in EINFO_ORACLE.items():
        err = abs(m[r, c] - want) / max(1.0, abs(want))
        assert err < 1e-10, f"entry ({r}, {c}): {m[r, c]} vs {want}"
        assert m[c, r] == m[r, c]


def test_expected_info_positive_definite_at_regular_point():
    m = expected_info(DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)).matrix
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > 0.0


def test_singular_point_structure():
    m = expected_info(SINGULAR).matrix
    assert m[7, 7] == 0.0
    assert_allclose(m[:, 7], 0.0, atol=1e-15)
    assert abs(np.linalg.det(m)) < 1e-10


def test_mirror_invariance():
    dp = DpParams(0, 0, 1, 0.4, 1, 1.3, -0.7, 0.9)
    flipped = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    signs = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    m = expected_info(dp).matrix
    mf = expected_info(flipped).matrix
    assert np.array_equal(mf, m * np.outer(signs, signs))


@pytest.mark.parametrize("p", MIRROR_POINTS)
def test_gram_factor_mirror(p):
    # alpha -> -alpha mirrors every node exactly and keeps every weight, and
    # the rows change sign by column, so the factor does too, bit for bit
    dp = DpParams(*p)
    mirror = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    for rows, signs in ((_score_rows, _FLIP_SIGNS),
                        (_zeta1_rows, np.array([1.0, -1.0, -1.0]))):
        rule = _gram_rule(dp, rows)
        mirrored = _gram_rule(mirror, rows)
        assert mirrored.nodes == rule.nodes
        assert np.array_equal(mirrored.factor, rule.factor * signs)


_SLANT = st.one_of(st.just(0.0), st.floats(-300.0, 300.0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lam=st.floats(-0.9999, 0.9999), alpha1=_SLANT, alpha2=_SLANT,
       tau=st.floats(-40.0, 40.0))
def test_mirror_property(lam, alpha1, alpha2, tau):
    # I(-alpha) = S I(alpha) S, S = diag(_FLIP_SIGNS), bit for bit, or the
    # rule fails on both sides.  alpha = 0 is its own mirror, where the
    # entries that S flips vanish only to rounding
    dp = DpParams(0.0, 0.0, 1.0, lam, 1.0, alpha1, alpha2, tau)
    mirror = replace(dp, alpha1=-alpha1, alpha2=-alpha2)
    try:
        m = expected_info(dp).matrix
    except CubatureNotConverged:
        with pytest.raises(CubatureNotConverged):
            expected_info(mirror)
        return
    mf = expected_info(mirror).matrix
    assert np.all(np.isfinite(m))
    signs = np.outer(_FLIP_SIGNS, _FLIP_SIGNS)
    if alpha1 == 0.0 and alpha2 == 0.0:
        assert np.array_equal(mf, m)
        assert_allclose(m * signs, m, rtol=0, atol=1e-14 * np.max(m))
    else:
        assert np.array_equal(mf, m * signs)


def test_coordinate_swap_permutes_information():
    # (y1, y2) -> (y2, y1) maps theta to theta[perm], so each information
    # maps to I[perm][:, perm]; the score's columns reach z1 and z2 by
    # separate index paths, so this checks each path against the other
    perm = [1, 0, 4, 3, 2, 6, 5, 7]
    rng = philox(20260815, 46)
    for k in range(40):
        dp = random_dp(rng)
        swapped = DpParams.from_array(dp.as_array()[perm])
        data = sample_esn2(dp, 500, k + 1)
        pairs = ((expected_info(dp), expected_info(swapped)),
                 (observed_info(dp, data),
                  observed_info(swapped, Dataset(data.y2, data.y1))))
        for info, info_swapped in pairs:
            want = info.matrix[np.ix_(perm, perm)]
            d = np.sqrt(np.abs(np.diag(want)))
            assert np.all(np.abs(info_swapped.matrix - want)
                          <= 1e-13 * np.outer(d, d)), (info.kind, dp)


def test_tau_block_shrinks_determinant():
    # appending the tau row/col cannot grow the determinant past the
    # Schur bound det(7x7) * i88
    for dp in (DpParams(0, 0, 1, 0.6, 1, 2, 3, 0),
               DpParams(0, 0, 1, 0, 1, 1.5, 0, 0)):
        m = expected_info(dp).matrix
        det8 = np.linalg.det(m)
        det7 = np.linalg.det(m[:7, :7])
        assert det8 <= det7 * m[7, 7] + 1e-10


def test_conditional_independence():
    assert conditional_independence(DpParams(0, 0, 1, 0, 1, 0, 3, 0))
    assert not conditional_independence(DpParams(0, 0, 1, 0, 1, 1, 3, 0))
    assert not conditional_independence(DpParams(0, 0, 1, 0.5, 1, 0, 3, 0))


def test_block_structure():
    ok, off = block_structure_check(DpParams(0, 0, 1, 0, 1, 0, 2, 0))
    assert ok and off < 1e-6
    ok, off = block_structure_check(DpParams(0, 0, 1, 0, 1, 0, 2, 1.5))
    assert ok and off < 1e-6
    with pytest.raises(ValueError):
        block_structure_check(DpParams(0, 0, 1, 0.4, 1, 0, 2, 0))
    with pytest.raises(ValueError):
        block_structure_check(DpParams(0, 0, 1, 0, 1, 1, 2, 0))


def test_sweep_spec_validation():
    base = DpParams(0, 0, 1, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        SweepSpec("omega12", (0.0, 0.5), base)
    with pytest.raises(ValueError):
        SweepSpec("alpha1", (), base)
    with pytest.raises(ValueError):
        SweepSpec("alpha1", (0.0, 1.0, 0.5), base)
    with pytest.raises(ValueError):
        SweepSpec("omega11", (1.0, 0.5, -1.0), base)
    spec = SweepSpec("tau", (2.0, 1.0, 0.0), base)    # descending is fine
    assert spec.grid == (2.0, 1.0, 0.0)
    assert spec.dp_at(1.0) == replace(base, tau=1.0)


def test_det_scan_rows_in_grid_order():
    base = DpParams(0, 0, 1, 0, 1, 1, 0, 0)
    spec = SweepSpec("alpha1", (0.5, 1.5, 3.0), base)
    rows = det_scan(spec)
    assert [r.param_value for r in rows] == [0.5, 1.5, 3.0]
    assert all(isinstance(r, SweepRow) and r.converged for r in rows)
    assert all(math.isfinite(r.min_eigenvalue) for r in rows)
    # shrinking slant shrinks the determinant; this grid keeps the values
    # far above the default-tolerance noise floor so the order is robust
    assert rows[0].det < rows[1].det < rows[2].det


def test_det_scan_exact_zero_on_grid():
    base = DpParams(0, 0, 1, 0, 1, 1, 0, 0)
    spec = SweepSpec("alpha1", (-0.1, 0.0, 0.1), base)
    rows = det_scan(spec)
    assert rows[1].det == 0.0
    assert rows[1].min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    # mirror symmetry of the scan is exact
    assert rows[0].det == rows[2].det


def test_det_scan_huge_information_is_inf():
    # at omega_ii = 1e-60 the log-determinant, about 1086, is past the
    # largest double's 709.8; the row is inf, as at omega_ii = 1e60 it
    # underflows to 0.0, and the smallest eigenvalue is still resolved
    base = DpParams(0, 0, 1e-60, 0, 1e-60, 1, 0, 0)
    row, = det_scan(SweepSpec("alpha1", (1.0,), base))
    assert row.converged
    assert row.det == math.inf
    assert 0.0 < row.min_eigenvalue < math.inf
    tiny, = det_scan(SweepSpec("alpha1", (1.0,), replace(
        base, omega11=1e60, omega22=1e60)))
    assert tiny.converged and tiny.det == 0.0


def test_det_scan_records_cubature_failure():
    base = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
    spec = SweepSpec("alpha1", (2.0,), base)
    starved = CubatureControls(rel_tol=1e-6, abs_tol=1e-30, max_evals=1_000)
    rows = det_scan(spec, tol=starved)
    assert len(rows) == 1
    assert not rows[0].converged
    assert math.isnan(rows[0].det)


def test_gram_rule_stops_at_panel_cap():
    # lam = 1 - 5.6e-12 and |alpha| = 3.4e4, with alpha_star = 0.2: the
    # rules never agree, and the one after 274 nodes per panel would pass
    # the cap, so the rule stops unconverged with a finite gap
    dp = DpParams(-6.9547270538069235, -12.909498855346367,
                  0.9194331757076565, 1.8388682056516397, 3.6777401198208306,
                  -34303.18853977436, 34303.36682099898, -41.86585501029693)
    rule = _gram_rule(dp, _score_rows)
    assert not rule.converged
    assert math.isfinite(rule.gap)
    assert rule.nodes <= 39_343


def test_expected_info_matches_reference():
    # the stored matrices come from an earlier, two-dimensional rule over
    # the hidden-truncation coordinates; this rule shares no nodes with it
    ref = json.loads(EINFO_REF.read_text())
    tol = CubatureControls(**ref["tolerance"])
    for point in ref["points"]:
        dp = DpParams(*point["dp"])
        got = expected_info(dp, tol).matrix
        assert np.max(_scaled(got, np.array(point["matrix"]))) <= 1e-12, dp


def test_near_unit_correlation_converges_or_raises():
    # |lam| = 0.9999 with a huge slant; deep truncation on top may stop the
    # rule, but within a bounded node count and with a typed error
    dp = DpParams(0, 0, 1, 0.9999, 1, 300, -50, 0)
    assert _gram_rule(dp, _score_rows, SWEEP_TOL).converged
    assert np.all(np.isfinite(expected_info(dp, SWEEP_TOL).matrix))
    dp = DpParams(0, 0, 1, -0.9999, 1, 300, -50, -40)
    rule = _gram_rule(dp, _score_rows, SWEEP_TOL)
    assert rule.nodes <= 39_343
    if rule.converged:
        assert np.all(np.isfinite(expected_info(dp, SWEEP_TOL).matrix))
    else:
        with pytest.raises(CubatureNotConverged):
            expected_info(dp, SWEEP_TOL)


@pytest.mark.parametrize("p, tol", SCAN_POINTS)
def test_scan_node_budget(p, tol):
    # the benchmark's scan is all Gram rule: a regression in its node count
    # fails here, not only in a timing
    assert _gram_rule(DpParams(*p), _score_rows, tol).nodes <= 2_500


def test_expected_info_random_points_well_conditioned():
    rng = philox(20260815, 42)
    for _ in range(3):
        dp = random_dp(rng)
        m = expected_info(dp).matrix
        assert np.all(np.isfinite(m))
        assert np.all(np.diag(m) >= 0.0)


def test_paper_assembly_matches_gram_rule():
    # the closed-form expectations and entrywise assembly of the paper no
    # longer run in production; this keeps them and the rule honest
    rng = philox(20260815, 43)
    for dp in ([SLANTED] + [random_dp(rng) for _ in range(5)]
               + [DpParams(*p) for p in FIT_MC_POINTS]):
        want = _assemble(dp, *expectation_set(dp, TIGHT))
        got = expected_info(dp, TIGHT).matrix
        d = np.sqrt(np.diag(want))
        assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-10, dp


@pytest.mark.parametrize("p", EXTREME_POINTS)
def test_paper_assembly_matches_gram_rule_extremes(p):
    # deep truncation and huge slant, where the a-terms carry little mass
    # (a0 is about 2e-24 at the last point) in a corner of the plane; the
    # assembly is scaled by the rule's diagonal, which is never negative
    dp = DpParams(*p)
    want = expected_info(dp, TIGHT).matrix
    got = _assemble(dp, *expectation_set(dp, TIGHT))
    assert np.max(_scaled(got, want)) <= 1e-7


@pytest.mark.parametrize("p", FIT_MC_POINTS)
def test_expected_score_vanishes(p):
    # the score coefficients, contracted with the closed-form
    # E[1, Z, Z Z'] and E[(1, Z) zeta1(T)]: E[s] = 0 without sampling
    dp = DpParams(*p)
    e_s = _coefficients(dp).s_coef @ expectation_set(dp)[0]
    e_s[7] -= zeta(1, dp.tau)
    assert np.max(np.abs(e_s)) <= 1e-13


@pytest.mark.parametrize("p", FIT_MC_POINTS + EXTREME_POINTS)
def test_w2_axis_rule_is_exact(p):
    # t does not vary along Y, the Gaussian axis of the canonical form (W2'
    # of the hidden-truncation one), where s s' is a quartic: 3
    # Gauss-Hermite nodes there give the same R'R as 9
    dp = DpParams(*p)
    if dp.alpha1 < 0.0:
        dp = replace(dp, alpha1=-dp.alpha1, alpha2=-dp.alpha2)
    alpha_star, _, (q1, q2) = _axes(dp)
    y, w = np.polynomial.hermite_e.hermegauss(9)
    t_y = dp.alpha1 * q1 * y + dp.alpha2 * q2 * y
    size = np.abs(dp.alpha1 * q1 * y) + np.abs(dp.alpha2 * q2 * y)
    assert np.ptp(t_y) <= 16 * np.finfo(float).eps * size.max()

    x_rule = _x_rule(dp.tau, alpha_star, 24)
    r3 = _gram_factor(dp, _score_rows, x_rule)
    r9 = _gram_factor(dp, _score_rows, x_rule, (y, np.log(w) - LOG_RT2PI))
    info9 = r9.T @ r9
    assert np.max(_scaled(r3.T @ r3, info9)) <= 1e-13


@pytest.mark.parametrize("p", FIT_MC_POINTS)
def test_default_tolerance_accuracy(p):
    # the default rule against criterion 7's, entrywise on the diagonal
    # scale sqrt(I_ii I_jj)
    dp = DpParams(*p)
    want = expected_info(dp, SWEEP_TOL).matrix
    assert np.max(_scaled(expected_info(dp).matrix, want)) <= 1e-10


def _mp_det(alpha1, tau):
    """30-digit det of the expected information at (0,0,1,0,1,alpha1,0,tau).

    With omega12 = 0 and alpha2 = 0, Z2 is N(0, 1) and independent of Z1,
    and the score is quadratic in z2, so a 3-point Gauss-Hermite rule in
    z2 is exact; z1 follows the univariate extended skew-normal law.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        return _mp_det_at(mp, alpha1, tau)


def _mp_det_at(mp, alpha1, tau):
    a, t = mp.mpf(alpha1), mp.mpf(tau)
    den = mp.sqrt(1 + a * a)

    def zeta1(x):
        return mp.npdf(x) / mp.ncdf(x)

    zeta1_tau = zeta1(t)
    gh = ((mp.mpf(0), mp.mpf(2) / 3), (mp.sqrt(3), mp.mpf(1) / 6),
          (-mp.sqrt(3), mp.mpf(1) / 6))
    cache = {}

    def gram(z1):
        # every entry's quadrature visits the same z1 nodes
        if z1 not in cache:
            arg = t * den + a * z1
            z = zeta1(arg)
            m = mp.zeros(8, 8)
            for z2, w in gh:
                s = [z1 - a * z, z2, (z1 * z1 - 1 - a * z1 * z) / 2,
                     z1 * z2, (z2 * z2 - 1) / 2, (a * t / den + z1) * z,
                     z2 * z, den * z - zeta1_tau]
                for i in range(8):
                    for j in range(8):
                        m[i, j] += w * s[i] * s[j]
            cache[z1] = m * mp.npdf(z1) * mp.ncdf(arg) / mp.ncdf(t)
        return cache[z1]

    info = mp.zeros(8, 8)
    for i in range(8):
        for j in range(i, 8):
            info[i, j] = info[j, i] = mp.quad(lambda x: gram(x)[i, j],
                                               [-mp.inf, 0, mp.inf])
    return float(mp.det(info))


@pytest.mark.parametrize("alpha1, tau, pinned", [
    (0.02, -2.0, 2.146531685e-39),
    (0.02, 0.0, 8.346213314e-35),
])
def test_det_scan_matches_high_precision(alpha1, tau, pinned):
    want = _mp_det(alpha1, tau)
    assert want == pytest.approx(pinned, rel=1e-9)
    base = DpParams(0, 0, 1, 0, 1, 1, 0, tau)
    row, = det_scan(SweepSpec("alpha1", (alpha1,), base), tol=SWEEP_TOL)
    assert row.converged
    assert abs(row.det / want - 1.0) <= 1e-6


def test_extreme_regimes_resolved():
    # deep truncation with |lam| near 1, and a huge slant where the
    # truncation has almost no mass
    for dp in (DpParams(*p) for p in EXTREME_POINTS):
        assert np.all(np.isfinite(expected_info(dp).matrix))
        row, = det_scan(SweepSpec("tau", (dp.tau,), dp))
        assert row.converged, dp
        assert math.isfinite(row.det) and row.det > 0.0, dp
        assert row.min_eigenvalue > 0.0, dp

"""Parameter points, grids and tolerances shared by the workloads and the
expected-information reference.

Points are plain 8-tuples in the package's theta order (xi1, xi2, omega11,
omega12, omega22, alpha1, alpha2, tau), so this module imports nothing from
the package and the reference file can be checked against it as data.
"""

# fit: the true points the datasets are drawn from, and criterion 10's start.
# The third point of the mc_check set, (0.3, -0.2, 1.5, -0.4, 0.8, -1, 2,
# -0.7), is not a fit truth: from this start fit_mle runs out its 500
# iterations on about one dataset in ten at n = 2e4 (and on some at 2e5).
FIT_TRUTHS = (
    (0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, 0.5),
    (0.0, 0.0, 1.0, 0.6, 1.0, 2.0, 3.0, 1.0),
)
FIT_START = (0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
# BFGS's objective-call count per fit is bimodal across datasets (about 55
# or 95 calls at the first truth), so fit time is averaged over many
# datasets per run: n is small enough for ~40 fits
FIT_N = 20_000

# scan (a): criterion 7's shrinking-slant chains, at a looser tolerance than
# criterion 7's own 5e-13 so that one pass takes seconds, not minutes.
# The grid stops at alpha1 = 0.25, where every determinant is resolved at
# this tolerance (det 8.1e-22 at tau = -2, against 7.9e-22 from the
# alpha^16 law).  Criterion 7's alpha1 = 0.02 and 0.1 are below the
# cubature's resolution: at 0.02 det comes out negative for every tau; at
# 0.1 and tau = -2 it is 47 times too large at this tolerance, and negative
# at criterion 7's own.
SCAN_A_TAUS = (-2.0, 0.0, 2.0)
SCAN_A_GRID = (0.25, 0.5, 1.0)
SCAN_A_TOL = {"rel_tol": 1e-9, "abs_tol": 1e-14, "max_evals": 40_000_000}

# scan (b): criterion 7's huge-slant mirrored sweeps, at the default tolerance
SCAN_B_ALPHA2 = (2.0, -2.0)
SCAN_B_GRID = (-30.0, 0.0, 30.0)

MC_POINTS = (
    (0.0, 0.0, 1.0, 0.6, 1.0, 2.0, 3.0, 1.0),
    (0.3, -0.2, 1.5, -0.4, 0.8, -1.0, 2.0, -0.7),
    (0.0, 0.0, 1.0, 0.5, 1.0, 1.5, -1.0, -2.0),
)
MC_N = 1_000_000
MC_CHUNKS = 100

# criterion 7's SWEEP_TOL; the reference is computed once at this tolerance
REFERENCE_TOL = {"rel_tol": 5e-13, "abs_tol": 1e-14, "max_evals": 40_000_000}


def scan_a_base(tau):
    return (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, tau)


def scan_b_base(alpha2):
    return (0.0, 0.0, 1.0, 0.4, 1.0, 1.0, alpha2, 0.0)


def with_alpha1(base, alpha1):
    return base[:5] + (alpha1,) + base[6:]


def scan_a_points():
    return [with_alpha1(scan_a_base(tau), a1)
            for tau in SCAN_A_TAUS for a1 in SCAN_A_GRID]


def reference_points():
    """Every point whose expected information is checked against the
    reference: the fit truths, the scan (a) grid and the mc_check points."""
    seen = []
    for p in (*FIT_TRUTHS, *scan_a_points(), *MC_POINTS):
        if p not in seen:
            seen.append(p)
    return seen

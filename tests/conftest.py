"""Shared test helpers: counter-based RNG streams, random parameter points,
and the constants more than one test module reads."""

import numpy as np

from esn2 import CubatureControls, DpParams
from esn2.validation import _DP_SET

MASTER_SEED = 20260815

# a cubature tolerance far below the default, for reference values
TIGHT = CubatureControls(rel_tol=1e-10, abs_tol=1e-13, max_evals=4_000_000)
# criterion 7's tolerance: near-singular determinant chains span ~90
# orders of magnitude, so the sweep integrals run far below the default
SWEEP_TOL = CubatureControls(rel_tol=5e-13, abs_tol=1e-14,
                             max_evals=40_000_000)
# criterion 8's chi-square points: the validation suite's three, in order
CHI2_DPS = _DP_SET


def philox(*key):
    """Independent Generator for a (seed, stream) key pair."""
    return np.random.Generator(
        np.random.Philox(key=np.array(key, dtype=np.uint64)))


def random_dp(rng, tau_span=2.0):
    """Random valid parameter point, moderate enough for every oracle."""
    om11, om22 = rng.uniform(0.3, 3.0, size=2)
    lam = rng.uniform(-0.9, 0.9)
    return DpParams(
        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
        om11, lam * float(np.sqrt(om11 * om22)), om22,
        rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0),
        rng.uniform(-tau_span, tau_span))

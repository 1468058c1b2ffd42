"""Outcomes of fit_mle on fixed sets of datasets, one line per set: the
fit count, the converged count, the total likelihood evaluations and a
SHA-256 over every fit's (converged, loglik.hex(), dp_hat), so that two
versions of the package compare with one command each:

    PYTHONPATH=src python scripts/fit_outcomes.py [SET ...] [--records F]

Each set's line also gives the median wall time per fit and the calls
per level of rows, summed over the set's fits (FitResult.levels); set T
adds its count of bench fit check failures.

--records F writes one JSON line per fit, for a fit-by-fit diff: its
flag, loglik, evaluations, calls per level, wall time, gradient norm,
dp_hat and the ratio lambda_min / lambda_max of observed_info(dp_hat,
data), which is near zero or negative where the fit ended on a boundary
or a saddle.  Sets:
A, the bench fit truths x sample_esn2(truth, 2e4, 5000 + s), s = 1-20,
from criterion 10's start; C, the acceptance tests' three chi-square
truths x n in {500, 2000} x seeds 100-139, from each of
cli._default_starts; H, sample_esn2((0, 0, 1, 0.5, 1, 0, 0, 0), 2000, s),
s = 0-199, from _default_starts(data)[3]; S, set A's first truth, seeds
7000-7029, data and start scaled by 1e-3.  A, C, H and S by default.
Two more on request: L, n = 1e6 at the bench fit truths (seeds 3 and 4)
and the third chi-square truth (seed 5), from criterion 10's start; T,
the third chi-square truth, n = 2e4, seeds 7000-7039, from criterion 10's
start, where a fit fails the bench fit check unless it converged, its
standard errors from expected_info are finite and 2 (loglik - loglik at
the truth) lies in [-1e-6, 58.3).
"""

import argparse
import collections
import hashlib
import json
import os
import time

import numpy as np

from esn2 import (CubatureNotConverged, Dataset, DpParams, expected_info,
                  fit_mle, loglik, observed_info, sample_esn2)
from esn2.cli import _default_starts
from esn2.validation import _DP_SET

# the suite's three points, which are the acceptance tests' chi-square
# truths; the bench fit truths are its third and first
CHI2_TRUTHS = _DP_SET
FIT_TRUTHS = (_DP_SET[2], _DP_SET[0])
START = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
C = 1e-3
SCALE = np.array([C, C, C * C, C * C, C * C, 1, 1, 1])


def fits(name):
    """(label, data, start) of every fit in set name."""
    if name == "A":
        for t in FIT_TRUTHS:
            for s in range(1, 21):
                data = sample_esn2(t, 20_000, 5000 + s)
                yield f"{t} {s}", data, START
    elif name == "C":
        for t in CHI2_TRUTHS:
            for n in (500, 2000):
                for s in range(100, 140):
                    data = sample_esn2(t, n, s)
                    for k, start in enumerate(_default_starts(data)):
                        yield f"{t} {n} {s} {k}", data, start
    elif name == "H":
        for s in range(200):
            data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 0, 0, 0), 2000, s)
            yield f"{s}", data, _default_starts(data)[3]
    elif name == "S":
        start = DpParams.from_array(SCALE * START.as_array())
        for s in range(7000, 7030):
            data = sample_esn2(FIT_TRUTHS[0], 20_000, s)
            yield f"{s}", Dataset(C * data.y1, C * data.y2), start
    elif name == "L":
        for t, s in zip((*FIT_TRUTHS, CHI2_TRUTHS[1]), (3, 4, 5)):
            yield f"{t} {s}", sample_esn2(t, 1_000_000, s), START
    else:
        truth = CHI2_TRUTHS[1]
        for s in range(7000, 7040):
            yield f"{s}", sample_esn2(truth, 20_000, s), START


def fails_bench_check(r, data, truth):
    """The bench fit check of one fit at the truth it was drawn from."""
    try:
        info = expected_info(r.dp_hat).matrix
        ses = np.sqrt(np.diag(np.linalg.inv(info)) / data.n)
    except (CubatureNotConverged, np.linalg.LinAlgError):
        return True
    lr = 2.0 * (r.loglik - loglik(truth, data))
    return not (r.converged and r.final_score_norm < 1e-6
                and np.all(np.isfinite(ses) & (ses > 0.0))
                and -1e-6 <= lr < 58.3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", help="A, C, H, S, L or T")
    parser.add_argument("--records", default=None)
    args = parser.parse_args()
    if not set(args.sets) <= set("ACHSLT"):
        parser.error(f"unknown set in {args.sets}")
    with open(args.records or os.devnull, "w") as records:
        for name in args.sets or "ACHS":
            count = converged = calls = failures = 0
            seconds = []
            levels = collections.Counter()
            digest = hashlib.sha256()
            for label, data, start in fits(name):
                t0 = time.perf_counter()
                r = fit_mle(data, start)
                seconds.append(time.perf_counter() - t0)
                theta = [float(x).hex() for x in r.dp_hat.as_array()]
                digest.update(
                    repr((r.converged, r.loglik.hex(), theta)).encode())
                count += 1
                converged += r.converged
                calls += r.evaluations
                levels.update(dict(r.levels))
                if name == "T":
                    failures += fails_bench_check(
                        r, data, CHI2_TRUTHS[1])
                if args.records:
                    eig = np.linalg.eigvalsh(
                        observed_info(r.dp_hat, data).matrix)
                    print(json.dumps({
                        "set": name, "fit": label, "converged": r.converged,
                        "loglik": r.loglik, "evaluations": r.evaluations,
                        "levels": r.levels, "seconds": seconds[-1],
                        "norm": r.final_score_norm,
                        "dp_hat": r.dp_hat.as_array().tolist(),
                        "eig_ratio": eig[0] / eig[-1]}), file=records)
            per_level = ", ".join(f"{rows}: {n}"
                                  for rows, n in sorted(levels.items()))
            check = f", bench check failures {failures}" if name == "T" else ""
            print(f"{name}: fits {count}, converged {converged}, "
                  f"evaluations {calls}, sha256 {digest.hexdigest()[:16]}"
                  f"{check}; median {np.median(seconds):.3f} s per fit; "
                  f"calls per level {{{per_level}}}")


if __name__ == "__main__":
    main()

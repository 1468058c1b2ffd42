"""Outcomes of fit_mle on fixed sets of datasets, one line per set: the
fit count, the converged count, the total likelihood evaluations and a
SHA-256 over every fit's (converged, loglik.hex(), dp_hat), so that two
versions of the package compare with one command each:

    PYTHONPATH=src python scripts/fit_outcomes.py [SET ...] [--records F]

--records F writes one JSON line per fit, for a fit-by-fit diff: its
flag, loglik, evaluations, gradient norm, dp_hat and the ratio
lambda_min / lambda_max of observed_info(dp_hat, data), which is near
zero or negative where the fit ended on a boundary or a saddle.  Sets:
A, the bench fit truths x sample_esn2(truth, 2e4, 5000 + s), s = 1-20,
from criterion 10's start; C, the acceptance tests' three chi-square
truths x n in {500, 2000} x seeds 100-139, from each of
cli._default_starts; H, sample_esn2((0, 0, 1, 0.5, 1, 0, 0, 0), 2000, s),
s = 0-199, from _default_starts(data)[3]; S, set A's first truth, seeds
7000-7029, data and start scaled by 1e-3.  All four by default.
"""

import argparse
import hashlib
import json
import os

import numpy as np

from esn2 import Dataset, DpParams, fit_mle, observed_info, sample_esn2
from esn2.cli import _default_starts

FIT_TRUTHS = ((0, 0, 1, 0.5, 1, 1.5, -1, 0.5), (0, 0, 1, 0.6, 1, 2, 3, 1))
CHI2_TRUTHS = (FIT_TRUTHS[1], (0.3, -0.2, 1.5, -0.4, 0.8, -1, 2, -0.7),
               FIT_TRUTHS[0])
START = DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
C = 1e-3
SCALE = np.array([C, C, C * C, C * C, C * C, 1, 1, 1])


def fits(name):
    """(label, data, start) of every fit in set name."""
    if name == "A":
        for t in FIT_TRUTHS:
            for s in range(1, 21):
                data = sample_esn2(DpParams(*t), 20_000, 5000 + s)
                yield f"{t} {s}", data, START
    elif name == "C":
        for t in CHI2_TRUTHS:
            for n in (500, 2000):
                for s in range(100, 140):
                    data = sample_esn2(DpParams(*t), n, s)
                    for k, start in enumerate(_default_starts(data)):
                        yield f"{t} {n} {s} {k}", data, start
    elif name == "H":
        for s in range(200):
            data = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 0, 0, 0), 2000, s)
            yield f"{s}", data, _default_starts(data)[3]
    else:
        start = DpParams.from_array(SCALE * START.as_array())
        for s in range(7000, 7030):
            data = sample_esn2(DpParams(*FIT_TRUTHS[0]), 20_000, s)
            yield f"{s}", Dataset(C * data.y1, C * data.y2), start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", help="A, C, H or S")
    parser.add_argument("--records", default=None)
    args = parser.parse_args()
    if not set(args.sets) <= set("ACHS"):
        parser.error(f"unknown set in {args.sets}")
    with open(args.records or os.devnull, "w") as records:
        for name in args.sets or "ACHS":
            count = converged = calls = 0
            digest = hashlib.sha256()
            for label, data, start in fits(name):
                r = fit_mle(data, start)
                theta = [float(x).hex() for x in r.dp_hat.as_array()]
                digest.update(
                    repr((r.converged, r.loglik.hex(), theta)).encode())
                count += 1
                converged += r.converged
                calls += r.evaluations
                if args.records:
                    eig = np.linalg.eigvalsh(
                        observed_info(r.dp_hat, data).matrix)
                    print(json.dumps({
                        "set": name, "fit": label, "converged": r.converged,
                        "loglik": r.loglik, "evaluations": r.evaluations,
                        "norm": r.final_score_norm,
                        "dp_hat": r.dp_hat.as_array().tolist(),
                        "eig_ratio": eig[0] / eig[-1]}), file=records)
            print(f"{name}: fits {count}, converged {converged}, "
                  f"evaluations {calls}, sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()

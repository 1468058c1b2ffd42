"""Outcomes of the Monte Carlo oracles over a range of suite seeds, one
line per check: the pass count, the failing seeds with what they
measured, and the median, p90 and max of the worst sigma, so that two
versions of the oracle compare with one command each:

    PYTHONPATH=src python scripts/mc_outcomes.py [--seeds 1-50]

The checks are einfo_vs_mc and tau0_sn2_reduction of `esn2 check
--level full`, run as the suite runs them at each seed.
"""

import argparse

import numpy as np

from esn2.validation import _MC_CHECKS, _check_mc


def seed_range(text):
    """'A-B' as the seeds A to B inclusive, or 'A' as A alone."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text}")
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-50"),
                        help="suite seeds A-B, inclusive (default 1-50)")
    args = parser.parse_args()
    for spec in _MC_CHECKS:
        worst = []
        failed = []
        for s in args.seeds:
            result = _check_mc(s, *spec)
            worst.append(result.measured)
            if not result.passed:
                failed.append(f"{s} ({result.measured:.2f}; {result.detail})")
        median, p90 = np.percentile(worst, [50, 90])
        print(f"{result.name}: passed {len(worst) - len(failed)} of "
              f"{len(worst)}; worst sigma median {median:.2f}, p90 "
              f"{p90:.2f}, max {max(worst):.2f}; failing seeds: "
              + (", ".join(failed) or "none"))


if __name__ == "__main__":
    main()

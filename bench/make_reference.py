"""Regenerate bench/reference/einfo_ref.json.

Computes the expected information at every point in
points.reference_points() at criterion 7's SWEEP_TOL and stores the
matrices with the tolerance used.  Takes a few minutes on two cores.

    python3 bench/make_reference.py
"""

import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from esn2 import CubatureControls, DpParams, expected_info  # noqa: E402

from points import REFERENCE_TOL, reference_points  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference", "einfo_ref.json")


def main():
    tol = CubatureControls(**REFERENCE_TOL)
    entries = []
    for p in reference_points():
        t0 = time.perf_counter()
        m = expected_info(DpParams(*p), tol).matrix
        seconds = time.perf_counter() - t0
        print(f"{p}: {seconds:.1f}s", file=sys.stderr, flush=True)
        entries.append({"dp": list(p), "matrix": m.tolist(),
                        "seconds": round(seconds, 2)})
    record = {"tolerance": REFERENCE_TOL,
              "note": "expected_info at criterion 7's SWEEP_TOL",
              "python": platform.python_version(),
              "numpy": np.__version__, "scipy": scipy.__version__,
              "points": entries}
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()

"""Command-line surface: flag handling, CSV I/O, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from esn2 import (Dataset, DpParams, fit_mle, observed_info, sample_esn2,
                  score)
from esn2.cli import CubatureFailure, main

IDENTITY = "0,0,1,0,1,0,0,0"
SLANTED = "0,0,1,0.6,1,2,3,1"

A_Y1 = (0.7, -0.4, 1.1)
A_Y2 = (-1.2, 0.5, 0.9)


@pytest.fixture()
def runner():
    return CliRunner()


def write_csv(path, y1, y2, header=False):
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write("y1,y2\n")
        for a, b in zip(y1, y2):
            handle.write(f"{float(a):.17g},{float(b):.17g}\n")
    return str(path)


def test_loglik_single_origin(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", data])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["loglik"] == pytest.approx(-math.log(2.0 * math.pi),
                                              rel=1e-15)
    assert payload["dp"]["omega11"] == 1.0


def test_named_flags_equal_tuple(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    by_tuple = runner.invoke(main, ["eval", "loglik", "--dp", SLANTED,
                                    "--data", data])
    by_names = runner.invoke(main, [
        "eval", "loglik", "--xi1", "0", "--xi2", "0", "--omega11", "1",
        "--omega12", "0.6", "--omega22", "1", "--alpha1", "2",
        "--alpha2", "3", "--tau", "1", "--data", data])
    assert by_tuple.exit_code == 0 and by_names.exit_code == 0
    assert by_tuple.output == by_names.output


def test_conflicting_flags_rejected(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp", SLANTED,
                                  "--tau", "2", "--data", data])
    assert result.exit_code == 2
    assert "conflicts" in result.stderr


def test_missing_components_listed(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--xi1", "0",
                                  "--data", data])
    assert result.exit_code == 2
    assert "omega11" in result.stderr and "tau" in result.stderr


def test_short_dp_rejected(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp", "0,0,1",
                                  "--data", data])
    assert result.exit_code == 2
    assert "8" in result.stderr


def test_invalid_dp_rejected(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp",
                                  "0,0,-1,0,1,0,0,0", "--data", data])
    assert result.exit_code == 2


def test_overflowing_slant_rejected(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp",
                                  "0,0,1,0.5,1,1e200,0,0", "--data", data])
    assert result.exit_code == 2
    assert "alpha_star" in result.stderr


def test_overflowing_scale_rejected(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0], [0.0])
    result = runner.invoke(main, ["eval", "loglik", "--dp",
                                  "0,0,1e160,1e155,1e160,0,0,0",
                                  "--data", data])
    assert result.exit_code == 2
    assert "omega11 omega22" in result.stderr


def test_data_required(runner):
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY])
    assert result.exit_code == 2
    assert "--data" in result.stderr


def test_bad_cell_reports_row(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\n0.3,oops\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(path)])
    assert result.exit_code == 2
    assert "2" in result.stderr


def test_wrong_column_count_rejected(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2,0.3\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(path)])
    assert result.exit_code == 2


def test_nonfinite_cell_rejected(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\ninf,0.4\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(path)])
    assert result.exit_code == 2


def test_header_detected(runner, tmp_path):
    plain = write_csv(tmp_path / "p.csv", A_Y1, A_Y2)
    headed = write_csv(tmp_path / "h.csv", A_Y1, A_Y2, header=True)
    r1 = runner.invoke(main, ["eval", "loglik", "--dp", SLANTED,
                              "--data", plain])
    r2 = runner.invoke(main, ["eval", "loglik", "--dp", SLANTED,
                              "--data", headed])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert r1.output == r2.output


@pytest.mark.parametrize("text,message", [
    ("", "{path}: no data rows"),
    ("\n\n", "{path}: no data rows"),
    ("y1,y2\n\n", "{path}: no data rows after the header"),
    ("\ufeffy1,y2\n", "{path}: no data rows after the header"),
    # rows are counted among the non-empty ones, the header included
    ("y1,y2\n\n0.1,0.2\n0.3\n", "{path} row 3: expected 2 columns, got 1"),
    ("0.1,0.2\n\nx,0.4\n",
     "{path} row 2: could not convert string to float: 'x'"),
])
def test_table_errors_name_the_file_and_row(runner, tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(path)])
    assert result.exit_code == 2
    assert result.stderr.rstrip().endswith(message.format(path=path))


def test_score_csv_round_trips_bitwise(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", A_Y1, A_Y2)
    result = runner.invoke(main, ["eval", "score", "--dp", SLANTED,
                                  "--format", "csv", "--data", data])
    assert result.exit_code == 0
    got = np.array([float(v) for v in result.output.strip().split(",")])
    want = score(DpParams(0, 0, 1, 0.6, 1, 2, 3, 1),
                 Dataset(np.array(A_Y1), np.array(A_Y2)))
    assert np.array_equal(got, want)


def test_density_csv_values(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", A_Y1, A_Y2)
    result = runner.invoke(main, ["eval", "density", "--dp", SLANTED,
                                  "--format", "csv", "--data", data])
    assert result.exit_code == 0
    vals = [float(v) for v in result.output.split()]
    assert len(vals) == 3
    assert vals[0] == pytest.approx(0.023625563698633840, rel=1e-14)


def test_oinfo_matrix_round_trips(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", A_Y1, A_Y2)
    result = runner.invoke(main, ["eval", "oinfo", "--dp", SLANTED,
                                  "--data", data])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "observed"
    got = np.array(payload["matrix"])
    want = observed_info(DpParams(0, 0, 1, 0.6, 1, 2, 3, 1),
                         Dataset(np.array(A_Y1), np.array(A_Y2))).matrix
    assert np.array_equal(got, want)


def test_einfo_singular_point(runner):
    result = runner.invoke(main, ["eval", "einfo", "--dp", IDENTITY])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "expected"
    assert payload["matrix"][7][7] == 0.0


def test_moments_csv_shape(runner):
    result = runner.invoke(main, ["eval", "moments", "--dp", SLANTED,
                                  "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 3                      # mean row + two cov rows
    assert len(lines[0].split(",")) == 2
    assert len(lines[1].split(",")) == 2


def test_cubature_failure_exit_code():
    assert CubatureFailure("boom").exit_code == 3


def test_det_scan_single_point(runner):
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "alpha1", "--from", "0.5",
                                  "--to", "0.5", "--points", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "param,value,det,min_eig,converged"
    cells = lines[1].split(",")
    assert cells[0] == "alpha1"
    assert float(cells[1]) == 0.5
    assert float(cells[2]) > 0.0
    assert cells[4] == "true"


def test_det_scan_writes_file(runner, tmp_path):
    out = tmp_path / "scan.csv"
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "tau", "--from", "0", "--to",
                                  "1", "--points", "2", "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3


def test_det_scan_rejects_scale_sweep(runner):
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "omega12", "--from", "0",
                                  "--to", "0.5", "--points", "3"])
    assert result.exit_code == 2


def test_det_scan_rejects_zero_points(runner):
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "alpha1", "--from", "0",
                                  "--to", "1", "--points", "0"])
    assert result.exit_code == 2


def test_det_scan_zero_slant_grid_minimum(runner):
    # 81 points over [-4, 4]: the determinant magnitude bottoms out at
    # the grid point nearest the singular slant value 0
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,9,0,0",
                                  "--sweep", "alpha1", "--from", "-4",
                                  "--to", "4", "--points", "81"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()[1:]
    assert len(lines) == 81
    values = np.array([float(line.split(",")[1]) for line in lines])
    dets = np.array([float(line.split(",")[2]) for line in lines])
    nearest_zero = int(np.argmin(np.abs(values)))
    assert values[nearest_zero] == 0.0
    assert int(np.argmin(np.abs(dets))) == nearest_zero
    assert dets[nearest_zero] == 0.0


def test_fit_needs_five_rows(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    result = runner.invoke(main, ["fit", "--data", data])
    assert result.exit_code == 2


@pytest.mark.parametrize("column", ["constant", "collinear"])
def test_fit_rejects_singular_sample_covariance(runner, tmp_path, column):
    # no moment start exists, so the default fit has no point to start from
    y1 = np.random.Generator(np.random.Philox(
        key=np.array([9, 0], dtype=np.uint64))).normal(size=50)
    y2 = 2.0 * y1 + 1.0
    if column == "constant":
        y1, y2 = np.ones(50), y1
    data = write_csv(tmp_path / "d.csv", y1, y2)
    result = runner.invoke(main, ["fit", "--data", data])
    assert result.exit_code == 2
    assert "sample covariance" in result.stderr


def test_byte_order_mark_keeps_first_row(runner, tmp_path):
    plain = write_csv(tmp_path / "plain.csv", A_Y1, A_Y2)
    bom = tmp_path / "bom.csv"
    with open(plain, encoding="utf-8") as handle:
        bom.write_text(handle.read(), encoding="utf-8-sig")
    got = [json.loads(runner.invoke(main, ["eval", "loglik", "--dp", SLANTED,
                                           "--data", path]).output)["loglik"]
           for path in (plain, str(bom))]
    assert got[0] == got[1]


def test_fit_recovers_parameters(runner, tmp_path):
    truth = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    y = sample_esn2(truth, 800, 31)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    result = runner.invoke(main, ["fit", "--data", data])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert payload["final_score_norm"] < 1e-6
    assert set(payload["std_errors"]) == {
        "xi1", "xi2", "omega11", "omega12", "omega22",
        "alpha1", "alpha2", "tau"}
    assert all(v > 0.0 for v in payload["std_errors"].values())
    hat = payload["dp_hat"]
    assert abs(hat["xi1"]) < 0.6
    assert abs(hat["alpha1"] - 1.5) < 2.0
    # no lower maximum than a fit from criterion 10's start
    crit10 = fit_mle(y, DpParams(0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1))
    assert payload["loglik"] >= crit10.loglik - 1e-6


def test_fit_reports_evaluations(runner, tmp_path):
    # with --init the command makes one fit, and reports its count
    y = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 2000, 7)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    init = (0.2, -0.2, 1.3, 0.3, 0.8, 1.0, -0.5, 0.1)
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  ",".join(map(repr, init))])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["evaluations"] == fit_mle(y, DpParams(*init)).evaluations
    assert payload["evaluations"] > 0


def test_fit_singular_estimate_warns(runner, tmp_path):
    # a start at the exact Gaussian stationary point is already converged,
    # and the expected information there carries no tau information
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0],
                                                            dtype=np.uint64)))
    y1 = rng.normal(size=40)
    y2 = rng.normal(size=40)
    data = write_csv(tmp_path / "d.csv", y1, y2)
    m1, m2 = float(np.mean(y1)), float(np.mean(y2))
    c11 = float(np.mean((y1 - m1) ** 2))
    c12 = float(np.mean((y1 - m1) * (y2 - m2)))
    c22 = float(np.mean((y2 - m2) ** 2))
    init = ",".join(format(v, ".17g")
                    for v in (m1, m2, c11, c12, c22, 0.0, 0.0, 0.0))
    result = runner.invoke(main, ["fit", "--data", data, "--init", init])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert payload["std_errors"] is None
    assert "singular" in payload["warning"]


def test_fit_nonconvergence_exits_4(runner, tmp_path):
    truth = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    y = sample_esn2(truth, 200, 32)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  "0,0,1,0,1,3,3,1", "--max-iter", "1"])
    assert result.exit_code == 4
    payload = json.loads(result.output)
    assert payload["converged"] is False


@pytest.mark.parametrize("flags", [
    ["--grad-tol", "-1"], ["--grad-tol", "0"], ["--grad-tol", "nan"],
    ["--max-iter", "-3"],
])
def test_fit_rejects_unreachable_controls(runner, tmp_path, flags):
    # no fit can meet these, so they are bad flags, not a non-convergence
    y = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 50, 33)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  "0,0,1,0,1,1,1,0", *flags])
    assert result.exit_code == 2
    assert flags[0].lstrip("-").replace("-", "_") in result.stderr


def test_check_fast(runner):
    result = runner.invoke(main, ["check", "--level", "fast"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "score_vs_fd", "oinfo_vs_fd", "lemma4_vs_cubature",
        "singularity_structure"]
    assert result.stderr.strip().endswith("OK")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_check_rejects_seed_outside_64_bits(runner, seed):
    # a bad flag exits 2, not 1, which means a check failed
    result = runner.invoke(main, ["check", "--seed", seed])
    assert result.exit_code == 2
    assert "--seed" in result.stderr


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize",
                                    "scipy.linalg"])
def test_import_leaves_out_scipy_stats(module):
    # scipy.stats costs about 0.4 s of every command's start-up, and
    # scipy.optimize, which only fit_mle uses, about 0.14 s; the Gram
    # rule's QR is numpy's, so nothing else needs scipy.linalg
    code = f"import sys, esn2.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"

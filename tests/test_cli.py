"""Command-line surface: flag handling, CSV I/O, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from esn2 import (PARAM_NAMES, Dataset, DpParams, density_esn2,
                  expected_info, fit_mle, loglik, moments_esn2, observed_info,
                  sample_esn2, score)
from esn2 import cli, likelihood
from esn2.cli import CubatureFailure, _std_errors, main
from esn2.expected_info import _info_factor
from esn2.validation import CheckResult, ValidationReport

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


@pytest.mark.parametrize("command", ["density", "loglik", "score", "oinfo",
                                     "einfo", "moments", "det-scan"])
def test_dp_is_the_one_spelling_of_a_point(runner, tmp_path, command):
    if command == "det-scan":
        args = ["det-scan", "--sweep", "tau", "--from", "0", "--to", "1",
                "--points", "2"]
    elif command in ("einfo", "moments"):
        args = ["eval", command]
    else:
        args = ["eval", command, "--data",
                write_csv(tmp_path / "d.csv", [0.0], [0.0])]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Missing option '--dp'" in result.stderr
    result = runner.invoke(main, [*args, "--dp", IDENTITY, "--xi1", "0"])
    assert result.exit_code == 2
    assert "No such option '--xi1'" in result.stderr


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
    # a row 1 with a number in it is data, not a header
    ("1.5,x\n0.1,0.2\n",
     "{path} row 1: could not convert string to float: 'x'"),
    ("1.5,\n0.1,0.2\n",
     "{path} row 1: could not convert string to float: ''"),
    # bytes that do not decode name the file, not a row
    (b"0.1,0.2\n\xff,0.4\n", "{path}: not UTF-8 text (invalid start byte)"),
])
def test_table_errors_name_the_file_and_row(runner, tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(path)])
    assert result.exit_code == 2
    assert result.stderr.rstrip().endswith(message.format(path=path))


def test_data_directory_rejected(runner, tmp_path):
    result = runner.invoke(main, ["eval", "loglik", "--dp", IDENTITY,
                                  "--data", str(tmp_path)])
    assert result.exit_code == 2
    last = result.stderr.rstrip().splitlines()[-1]
    assert last.startswith("Error:") and str(tmp_path) in last


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _eval_expected(command):
    """The library's answer for `esn2 eval <command>` at SLANTED on the A
    data: the JSON payload less its "dp", and the CSV rows."""
    dp = DpParams(0, 0, 1, 0.6, 1, 2, 3, 1)
    data = Dataset(np.array(A_Y1), np.array(A_Y2))
    if command == "density":
        values = density_esn2(data.y1, data.y2, dp)
        return {"density": values}, [[v] for v in values]
    if command == "loglik":
        value = loglik(dp, data)
        return {"loglik": value}, [[value]]
    if command == "score":
        vec = score(dp, data)
        return {"score": vec}, [vec]
    if command in ("oinfo", "einfo"):
        info = (observed_info(dp, data) if command == "oinfo"
                else expected_info(dp))
        return {"kind": info.kind, "matrix": info.matrix}, list(info.matrix)
    mean, cov = moments_esn2(dp)
    return {"mean": mean, "cov": cov}, [mean, *cov]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["density", "loglik", "score", "oinfo",
                                     "einfo", "moments"])
def test_eval_equals_the_library_bitwise(runner, tmp_path, command, fmt):
    args = ["eval", command, "--dp", SLANTED, "--format", fmt]
    if command not in ("einfo", "moments"):
        args += ["--data", write_csv(tmp_path / "d.csv", A_Y1, A_Y2)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    fields, rows = _eval_expected(command)
    if fmt == "json":
        payload = json.loads(result.output)
        assert payload.pop("dp") == dict(zip(
            PARAM_NAMES, DpParams(0, 0, 1, 0.6, 1, 2, 3, 1).as_array()))
        assert payload.keys() == fields.keys()
        for key, want in fields.items():
            if key == "kind":
                assert payload[key] == want
            else:
                assert _bits(payload[key]) == _bits(want), key
    else:
        lines = result.output.splitlines()
        assert len(lines) == len(rows)
        for line, want in zip(lines, rows):
            assert _bits([float(v) for v in line.split(",")]) == _bits(want)


def test_density_csv_values(runner, tmp_path):
    data = write_csv(tmp_path / "d.csv", A_Y1, A_Y2)
    result = runner.invoke(main, ["eval", "density", "--dp", SLANTED,
                                  "--format", "csv", "--data", data])
    assert result.exit_code == 0
    vals = [float(v) for v in result.output.split()]
    assert len(vals) == 3
    assert vals[0] == pytest.approx(0.023625563698633840, rel=1e-14)


def test_eval_help_describes_every_command(runner):
    result = runner.invoke(main, ["eval", "--help"])
    assert result.exit_code == 0
    listed = result.output.split("Commands:\n", 1)[1].splitlines()
    rows = [line.split(None, 1) for line in listed if line.strip()]
    assert sorted(row[0] for row in rows) == [
        "density", "einfo", "loglik", "moments", "oinfo", "score"]
    # a command without help is listed by its name alone
    assert all(len(row) == 2 for row in rows), rows


def test_einfo_singular_point(runner):
    result = runner.invoke(main, ["eval", "einfo", "--dp", IDENTITY])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "expected"
    assert payload["matrix"][7][7] == 0.0


def test_cubature_failure_exit_code():
    assert CubatureFailure("boom").exit_code == 3


# test_gram_rule_stops_at_panel_cap's point, where the rule stops
# unconverged at its panel cap
PANEL_CAP = ("-6.9547270538069235,-12.909498855346367,0.9194331757076565,"
             "1.8388682056516397,3.6777401198208306,-34303.18853977436,"
             "34303.36682099898,-41.86585501029693")


def test_einfo_not_converged_exits_3(runner):
    result = runner.invoke(main, ["eval", "einfo", "--dp", PANEL_CAP])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert ("expected-information rule not converged after 2250 nodes"
            in result.stderr)


def test_std_errors_report_an_unconverged_rule():
    dp = DpParams(*(float(v) for v in PANEL_CAP.split(",")))
    errors, warning = _std_errors(dp, 1000)
    assert errors is None
    assert warning.startswith("expected information did not converge: "
                              "expected-information rule not converged")


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


def test_det_scan_huge_information(runner):
    # the determinant overflows a double at omega_ii = 1e-60; the row
    # reads inf and the command succeeds
    result = runner.invoke(main, ["det-scan", "--dp",
                                  "0,0,1e-60,0,1e-60,1,0,0", "--sweep",
                                  "alpha1", "--from", "1", "--to", "1",
                                  "--points", "1"])
    assert result.exit_code == 0
    cells = result.output.strip().splitlines()[1].split(",")
    assert cells[2] == "inf"
    assert math.isfinite(float(cells[3]))
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


def test_det_scan_rejects_an_unwritable_out_before_the_scan(
        runner, tmp_path, monkeypatch):
    def scan(spec):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "det_scan", scan)
    out = tmp_path / "missing" / "scan.csv"
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "tau", "--from", "0", "--to",
                                  "1", "--points", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.rstrip().splitlines()[-1] == (
        f"Error: --out {out}: No such file or directory")


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


def test_det_scan_rejects_a_repeated_grid_point(runner):
    result = runner.invoke(main, ["det-scan", "--dp", "0,0,1,0,1,1,0,0",
                                  "--sweep", "alpha1", "--from", "1",
                                  "--to", "1", "--points", "2"])
    assert result.exit_code == 2
    assert "grid must be strictly monotone" in result.stderr


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


def test_fit_names_data_that_overflow(runner, tmp_path):
    # at 1e200 the sample moments overflow, so there is no moment start,
    # and loglik at a given start is -inf: both are bad input, named as such
    data = write_csv(tmp_path / "d.csv", 1e200 * np.arange(10.0),
                     np.arange(10.0))
    result = runner.invoke(main, ["fit", "--data", data])
    assert result.exit_code == 2
    assert "sample moments overflow" in result.stderr
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  "0.2,-0.2,1.3,0.3,0.8,1.0,-0.5,0.1"])
    assert result.exit_code == 2
    assert "log-likelihood at the start DpParams(xi1=0.2" in result.stderr
    assert "not finite" in result.stderr
    assert result.stdout == ""

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


def test_fit_converges_on_data_in_small_units(runner, tmp_path):
    # the stop reads the internal gradient, which does not grow as the
    # data's units shrink; the score in theta's units stays above 1e-6 here
    c = 1e-3
    y = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 20000, 7000)
    data = write_csv(tmp_path / "d.csv", c * y.y1, c * y.y2)
    init = (0.2 * c, -0.2 * c, 1.3 * c * c, 0.3 * c * c, 0.8 * c * c,
            1.0, -0.5, 0.1)
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  ",".join(map(repr, init))])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert payload["final_score_norm"] < 1e-6


@pytest.mark.parametrize("init,message", [
    ("1,2,3", "--init needs 8 comma-separated values, got 3"),
    ("0,0,1,0,1,1,1,x", "--init: could not convert"),
])
def test_fit_init_errors_name_init(runner, tmp_path, init, message):
    y = sample_esn2(DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5), 50, 33)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    result = runner.invoke(main, ["fit", "--data", data, "--init", init])
    assert result.exit_code == 2
    assert message in result.stderr
    assert "--dp" not in result.stderr


@pytest.mark.parametrize("tau", [0.5, -2.0, -4.0, -5.0])
def test_std_errors_match_high_precision_inverse(tau):
    # the row norms of R^-1 against a 50-digit inverse of the same R'R; a
    # double-precision inverse of R'R is off by up to 3.9e-8 at these points
    mp = pytest.importorskip("mpmath").mp
    dp = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, 1, 0.5, tau)
    errors, warning = _std_errors(dp, 1)
    assert warning is None
    with mp.workdps(50):
        r = mp.matrix(_info_factor(dp, None).tolist())
        cov = (r.T * r) ** -1
        want = [float(mp.sqrt(cov[i, i])) for i in range(8)]
    got = [errors[name] for name in ("xi1", "xi2", "omega11", "omega12",
                                     "omega22", "alpha1", "alpha2", "tau")]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("tau,singular", [
    (0.5, False), (-2.0, False), (-4.0, False), (-6.0, True), (-8.0, True)])
def test_std_errors_singular_verdicts(tau, singular):
    # sigma_min(R)^2 / sigma_max(R)^2 against 1e-12: the ratio is 8.3e-13
    # at tau = -6 and 1.7e-14 at tau = -8
    dp = DpParams(0.3, -0.2, 1.5, -0.4, 0.8, 1, 0.5, tau)
    errors, warning = _std_errors(dp, 1000)
    assert (errors is None) == singular
    assert (warning is not None and "singular" in warning) == singular


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_std_errors_scale_with_the_data(c):
    # xi scaled by c and Omega by c^2: the verdict is judged in units of
    # the fit's scale, so the errors are there and scale with c.  In theta's
    # units sigma_min(R)^2 / sigma_max(R)^2 reads 2.9e-16 at c = 1e-3 and
    # 6.4e-14 at c = 1e3, against 1.6e-4 at c = 1
    truth = np.array([0, 0, 1, 0.5, 1, 1.5, -1, 0.5])
    scale = np.array([c, c, c * c, c * c, c * c, 1, 1, 1])
    base, _ = _std_errors(DpParams.from_array(truth), 1000)
    errors, warning = _std_errors(DpParams.from_array(scale * truth), 1000)
    assert warning is None
    np.testing.assert_allclose(list(errors.values()),
                               scale * list(base.values()), rtol=1e-12,
                               atol=0)


def test_fit_nonconvergence_exits_4(runner, tmp_path, monkeypatch):
    truth = DpParams(0, 0, 1, 0.5, 1, 1.5, -1, 0.5)
    y = sample_esn2(truth, 200, 32)
    data = write_csv(tmp_path / "d.csv", y.y1, y.y2)
    monkeypatch.setattr(likelihood, "_MAX_ITER", 1)
    result = runner.invoke(main, ["fit", "--data", data, "--init",
                                  "0,0,1,0,1,3,3,1"])
    assert result.exit_code == 4
    payload = json.loads(result.output)
    assert payload["converged"] is False


def test_check_fast(runner):
    result = runner.invoke(main, ["check", "--level", "fast"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "score_vs_fd", "oinfo_vs_fd", "lemma4_vs_cubature",
        "singularity_structure"]
    assert result.stderr.strip().endswith("OK")


def test_check_failure_exits_1(runner, monkeypatch):
    report = ValidationReport((CheckResult("score_vs_fd", False, 1.0, 1e-5),))
    monkeypatch.setattr(cli, "run_validation_suite",
                        lambda seed, level: report)
    result = runner.invoke(main, ["check", "--level", "fast"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["passed"] is False
    assert result.stderr.strip().endswith("FAILED")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_check_rejects_seed_outside_64_bits(runner, seed):
    # a bad flag exits 2, not 1, which means a check failed
    result = runner.invoke(main, ["check", "--seed", seed])
    assert result.exit_code == 2
    assert "--seed" in result.stderr


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize",
                                    "scipy.linalg", "scipy.integrate",
                                    "mpmath"])
def test_import_leaves_out_scipy_stats(module):
    # scipy.stats costs about 0.4 s of every command's start-up, and
    # scipy.optimize, which only fit_mle uses, about 0.14 s; the Gram
    # rule's QR is numpy's, so nothing else needs scipy.linalg, and only
    # the tests' oracles read scipy.integrate and mpmath
    code = f"import sys, esn2.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"

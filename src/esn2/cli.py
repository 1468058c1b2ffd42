"""Command-line surface: evaluate, fit, sweep, validate.

Output is JSON by default; CSV is reserved for tabular things (the
det-scan file, matrix dumps).  All numbers are written with 17
significant digits so a written value re-reads bit-exactly, and the
decimal separator is always '.' regardless of locale.

Exit codes: 0 success, 1 check-suite failure, 2 bad flags or input,
3 cubature non-convergence, 4 fit non-convergence.
"""

import csv
import json
import math
from array import array
from dataclasses import replace
from typing import Callable, NamedTuple

import click
import numpy as np

from .cubature import CubatureNotConverged
from .expected_info import SweepSpec, _info_factor, det_scan, expected_info
from .likelihood import (NonFiniteStart, _unit, density_esn2, fit_mle,
                         loglik, observed_info, score)
from .model import (PARAM_NAMES, Dataset, DpParams, NonFiniteParameter,
                    moments_esn2)
from .validation import run_validation_suite


class CubatureFailure(click.ClickException):
    exit_code = 3


def _fmt(x):
    return format(float(x), ".17g")


def _parse_point(text, flag):
    """The parameter point given to flag as 8 comma-separated values."""
    parts = text.split(",")
    if len(parts) != 8:
        raise click.UsageError(
            f"{flag} needs 8 comma-separated values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise click.UsageError(f"{flag}: {exc}") from None
    try:
        return DpParams(*values)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_table(path):
    """Two-column CSV to Dataset; optional header; row-numbered errors.

    Row 1 is a header when none of its cells is a number; a row 1 with a
    number in it is data, and a bad cell there is an error like any other.
    Rows are numbered among the non-empty ones, the header included, and
    converted as they are read, so no row is held as text.
    """
    y1, y2 = array("d"), array("d")
    header = False
    # utf-8-sig drops a byte-order mark, which would make row 1 a header
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            for k, row in enumerate(filter(None, csv.reader(handle)), start=1):
                if k == 1 and not any(map(_is_number, row)):
                    header = True
                    continue
                if len(row) != 2:
                    raise click.UsageError(f"{path} row {k}: expected 2 "
                                           f"columns, got {len(row)}")
                try:
                    a, b = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise click.UsageError(f"{path} row {k}: {exc}") from None
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise click.UsageError(
                        f"{path} row {k}: non-finite value")
                y1.append(a)
                y2.append(b)
        except UnicodeDecodeError as exc:
            raise click.UsageError(
                f"{path}: not UTF-8 text ({exc.reason})") from None
    if not y1:
        raise click.UsageError(
            f"{path}: no data rows after the header" if header
            else f"{path}: no data rows")
    return Dataset(np.frombuffer(y1), np.frombuffer(y2))


def _dp_payload(dp):
    return {name: getattr(dp, name) for name in PARAM_NAMES}


def _info_fields(info):
    return {"kind": info.kind, "matrix": info.matrix}


class _Eval(NamedTuple):
    """One `esn2 eval` subcommand: its help line, whether it reads --data,
    the library call at dp (data None where it reads none) giving the JSON
    fields, and the rows of numbers its CSV holds, made from them."""
    help: str
    reads_data: bool
    fields: Callable
    csv_rows: Callable


_EVALS = {
    "density": _Eval(
        help="Density at each row of the data.",
        reads_data=True,
        fields=lambda dp, data: {
            "density": density_esn2(data.y1, data.y2, dp)},
        csv_rows=lambda f: [[v] for v in f["density"]]),
    "loglik": _Eval(
        help="Log-likelihood of the data.",
        reads_data=True,
        fields=lambda dp, data: {"loglik": loglik(dp, data)},
        csv_rows=lambda f: [[f["loglik"]]]),
    "score": _Eval(
        help="Score vector of the log-likelihood, summed over the data.",
        reads_data=True,
        fields=lambda dp, data: {"score": score(dp, data)},
        csv_rows=lambda f: [f["score"]]),
    "oinfo": _Eval(
        help="Observed information, summed over the data.",
        reads_data=True,
        fields=lambda dp, data: _info_fields(observed_info(dp, data)),
        csv_rows=lambda f: f["matrix"]),
    "einfo": _Eval(
        help="Expected information for one observation.",
        reads_data=False,
        fields=lambda dp, data: _info_fields(expected_info(dp)),
        csv_rows=lambda f: f["matrix"]),
    "moments": _Eval(
        help="Mean vector and covariance matrix of the model.",
        reads_data=False,
        fields=lambda dp, data: dict(zip(("mean", "cov"), moments_esn2(dp))),
        csv_rows=lambda f: [f["mean"], *f["cov"]]),
}


_DP = click.option("--dp", "dp_text", required=True, metavar="T",
                   help="all 8 parameters, comma separated, in "
                        "(xi1,xi2,omega11,omega12,omega22,"
                        "alpha1,alpha2,tau) order")
_FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                       default="json", help="output format")
_DATA = click.option("--data", "data_path",
                     type=click.Path(exists=True, dir_okay=False),
                     required=True, help="two-column CSV of observations")


@click.group()
def main():
    """Bivariate extended skew-normal toolkit."""


@main.group("eval")
def eval_group():
    """Evaluate model quantities at a parameter point."""


def _eval_command(spec):
    """The one body of the `esn2 eval` subcommands, over a row of _EVALS."""
    def command(dp_text, fmt, data_path=None):
        dp = _parse_point(dp_text, "--dp")
        data = _load_table(data_path) if spec.reads_data else None
        try:
            fields = spec.fields(dp, data)
        except CubatureNotConverged as exc:
            raise CubatureFailure(str(exc)) from None
        if fmt == "csv":
            click.echo("".join(",".join(map(_fmt, row)) + "\n"
                               for row in spec.csv_rows(fields)), nl=False)
        else:
            # tolist() gives arrays as nested lists of floats, and hands a
            # float or a string back as it is
            payload = {key: np.asarray(value).tolist()
                       for key, value in fields.items()}
            payload["dp"] = _dp_payload(dp)
            click.echo(json.dumps(payload, indent=2, sort_keys=True))

    command = _FORMAT(command)
    if spec.reads_data:
        command = _DATA(command)
    return _DP(command)


for _name, _spec in _EVALS.items():
    eval_group.command(_name, help=_spec.help)(_eval_command(_spec))


@main.command("det-scan")
@_DP
@click.option("--sweep", "sweep_param",
              type=click.Choice(["alpha1", "alpha2", "tau"]), required=True,
              help="parameter to sweep (only alpha1, alpha2, tau)")
@click.option("--from", "start", type=float, required=True)
@click.option("--to", "stop", type=float, required=True)
@click.option("--points", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="output CSV path (default: standard output)")
def det_scan_cmd(dp_text, sweep_param, start, stop, points, out_path):
    """Determinant of the expected information along a parameter sweep."""
    base = _parse_point(dp_text, "--dp")
    if points < 1:
        raise click.UsageError("--points must be at least 1")
    grid = np.linspace(start, stop, points)
    try:
        spec = SweepSpec(sweep_param, tuple(float(g) for g in grid), base)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    # opened before the scan, so that a path it cannot write fails at once
    try:
        out = click.open_file(out_path or "-", "w", encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"--out {out_path}: {exc.strerror}") from None
    with out:
        rows = det_scan(spec)
        out.write("param,value,det,min_eig,converged\n")
        for row in rows:
            out.write(f"{sweep_param},{_fmt(row.param_value)},"
                      f"{_fmt(row.det)},{_fmt(row.min_eigenvalue)},"
                      f"{'true' if row.converged else 'false'}\n")


def _moment_start(data):
    """Moment-based starting point.

    The Gaussian fit with alpha = 0, tau = 0 is an exact stationary
    point of the likelihood (the alpha = 0 singularity), so the slant
    starts at a skewness-informed kick instead of zero.  Where the data's
    moments overflow or their covariance is singular, building the start
    raises, as DpParams does for any invalid point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.cov(np.vstack([data.y1, data.y2]), ddof=1)
        alphas = []
        for col in (data.y1, data.y2):
            resid = col - np.mean(col)
            sd = float(np.std(resid))
            skew = float(np.mean(resid ** 3)) / sd ** 3 if sd > 0.0 else 0.0
            alphas.append(float(np.clip(3.0 * skew, -2.0, 2.0)) or 0.1)
    return DpParams(float(np.mean(data.y1)), float(np.mean(data.y2)),
                    float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]),
                    alphas[0], alphas[1], 0.0)


def _default_starts(data):
    """The moment start, its alpha-mirror, and each of the two at tau = 1.

    From the moment start alone the fit can stop at a lower local
    maximum, for instance far out along tau < 0; the mirror and the
    tau = 1 starts reach the other basins.
    """
    base = _moment_start(data)
    mirror = replace(base, alpha1=-base.alpha1, alpha2=-base.alpha2)
    return (base, mirror, replace(base, tau=1.0), replace(mirror, tau=1.0))


def _std_errors(dp, n):
    """Standard errors of a fit to n rows at dp, from the triangular factor
    R of the expected information I = R'R: the row norms of R^-1 / sqrt(n),
    so I is never formed and its condition number never squared.

    Returns (errors by parameter name, None), or (None, a warning) where
    I is singular, sigma_min(R D)^2 <= 1e-12 sigma_max(R D)^2, or its rule
    does not converge.  D = diag(u1, u2, u1^2, u1 u2, u2^2, 1, 1, 1), with
    u the power-of-two scale of dp (likelihood._unit), takes theta to
    units of that scale, so the verdict does not depend on the data's.
    """
    try:
        r = _info_factor(dp, None)
    except CubatureNotConverged as exc:
        return None, f"expected information did not converge: {exc}"
    u1, u2 = _unit(dp)
    d = np.array([u1, u2, u1 * u1, u1 * u2, u2 * u2, 1.0, 1.0, 1.0])
    sigma = np.linalg.svd(r * d, compute_uv=False)
    if sigma[-1] ** 2 <= 1e-12 * sigma[0] ** 2:
        return None, ("expected information is singular at the estimate; "
                      "no standard errors")
    errors = np.linalg.norm(np.linalg.inv(r), axis=1) / math.sqrt(n)
    return dict(zip(PARAM_NAMES, errors.tolist())), None


@main.command("fit")
@_DATA
@click.option("--init", "init_tuple", default=None, metavar="T",
              help="starting point, 8 comma-separated values "
                   "(default: the best of four moment-based starts)")
@click.pass_context
def fit_cmd(ctx, data_path, init_tuple):
    """Maximum likelihood fit; standard errors from the expected info."""
    data = _load_table(data_path)
    if data.n < 5:
        raise click.UsageError(
            f"need at least 5 rows to fit, got {data.n}")
    if init_tuple is None:
        try:
            starts = _default_starts(data)
        except NonFiniteParameter as exc:
            raise click.UsageError(f"{data_path}: the sample moments "
                                   f"overflow, so no moment start ({exc})"
                                   ) from None
        except ValueError as exc:
            raise click.UsageError(f"{data_path}: singular sample covariance,"
                                   f" so no moment start ({exc})") from None
    else:
        starts = [_parse_point(init_tuple, "--init")]
    # the converged fit with the highest log-likelihood; if none
    # converged, the highest one, reported as unconverged
    try:
        fits = [fit_mle(data, start) for start in starts]
    except NonFiniteStart as exc:
        raise click.UsageError(f"{data_path}: {exc}") from None
    result = max(fits, key=lambda r: (r.converged, r.loglik))

    std_errors, warning = _std_errors(result.dp_hat, data.n)
    payload = {"dp_hat": _dp_payload(result.dp_hat),
               "std_errors": std_errors,
               "loglik": result.loglik,
               "converged": result.converged,
               "final_score_norm": result.final_score_norm,
               # the likelihood evaluations of every fit made, over all
               # starts
               "evaluations": sum(r.evaluations for r in fits)}
    if warning is not None:
        payload["warning"] = warning
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    if not result.converged:
        ctx.exit(4)


@main.command("check")
@click.option("--level", type=click.Choice(["fast", "full"]), default="fast",
              show_default=True, help="full adds the Monte Carlo oracles")
@click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1),
              default=20260815, show_default=True)
@click.pass_context
def check_cmd(ctx, level, seed):
    """Run the validation suite; exit 0 only if every check passes."""
    report = run_validation_suite(seed, level)
    click.echo(report.summary(), err=True)
    click.echo(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if not report.passed:
        ctx.exit(1)


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself: span arithmetic, failure counting, smoke.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from points import SCAN_A_GRID  # noqa: E402
from workloads import Op, Pass, ScanWorkload, _fit_failures  # noqa: E402


def _declared(kind):
    path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _span(sid, start, end, parent=-1, thread=0):
    return Span(sid, f"s{sid}", start, end, parent=parent, thread=thread)


def test_self_time_nested():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 4.0, parent=0),
             _span(2, 2.0, 3.0, parent=1),
             _span(3, 6.0, 7.5, parent=0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.5)


def test_self_time_threaded_children_overlap_once():
    # a det_scan span with two pool workers running side by side
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 6.0, parent=0, thread=1),
             _span(2, 2.0, 8.0, parent=0, thread=2),
             _span(3, 9.0, 12.0, parent=0, thread=1)]  # runs past the end
    st = self_times(spans)
    # covered: [1, 8] and [9, 10]
    assert st[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_parents_across_pool_threads():
    tracer = Tracer()

    def leaf(x):
        return x

    traced_leaf = tracer.wrap("leaf", leaf)

    def point(x):
        return traced_leaf(x)

    traced_point = tracer.wrap("point", point)

    def scan(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_point, xs))

    traced_scan = tracer.wrap("scan", scan, fanout=True)
    with tracer.span("op"):
        assert traced_scan([1, 2, 3, 4]) == [1, 2, 3, 4]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (scan_span,) = by_name["op"], by_name["scan"]
    assert scan_span.parent == op.sid
    assert all(p.parent == scan_span.sid for p in by_name["point"])
    point_ids = {p.sid for p in by_name["point"]}
    assert all(leaf.parent in point_ids for leaf in by_name["leaf"])
    assert all(s.end >= s.start for s in tracer.spans)


def test_install_wraps_every_namespace_and_uninstall_restores():
    import esn2
    import esn2.likelihood
    import esn2.model
    original = esn2.model.zeta
    tracer = Tracer()
    missing = tracer.install(tracing.esn2_targets(tracer))
    try:
        assert missing == []
        assert esn2.model.zeta is esn2.likelihood.zeta is not original
        assert esn2.zeta is esn2.model.zeta
        esn2.zeta(1, [0.0, -20.0])
    finally:
        tracer.uninstall()
    assert esn2.model.zeta is original
    (span,) = tracer.spans
    assert span.attrs == {"elements": 2, "tail": 1}


class _Row:
    def __init__(self, det, converged=True):
        self.det = det
        self.converged = converged


def test_scan_rows_with_nonpositive_det_are_failures():
    good = [_Row(1e-30), _Row(1e-20), _Row(1e-10)]
    chains = [[_Row(-1e-33), _Row(1e-27), _Row(1e-17)], good, good,
              [_Row(1e-8), _Row(1e-6), _Row(2e-8)],
              [_Row(1e-8), _Row(1e-6), _Row(2e-8)]]
    bad = ScanWorkload._row_failures(chains)
    assert bad[0] == {SCAN_A_GRID[0]: "det -1.000e-33 <= 0"}
    assert bad[1:3] == [{}, {}]
    # (b) sweeps are not mirror images: the mismatched ends fail
    assert set(bad[3]) == {-30.0, 30.0} and set(bad[4]) == {-30.0, 30.0}


def test_fit_check_is_a_likelihood_ratio_against_the_truth():
    ses = [0.1] * 8
    assert _fit_failures("f", True, 1e-9, ses, -100.0, -109.0) == []
    # stopped short of the maximum, or far above what chance allows
    assert _fit_failures("f", True, 1e-9, ses, -100.0, -99.0) == [
        "f: likelihood ratio -2 against the truth"]
    assert _fit_failures("f", True, 1e-9, ses, -100.0, -140.0) == [
        "f: likelihood ratio 80 against the truth"]
    assert _fit_failures("f", False, 1e-3, [float("nan")] * 8, -100.0,
                         -101.0) == [
        "f: not converged, score norm 1.00e-03, standard errors not finite"]


def test_failed_operation_is_counted_not_raised(monkeypatch, tmp_path):
    class Failing:
        name = "fit"

        def __init__(self, seed, workdir):
            pass

        def set_up(self):
            pass

        def run_pass(self, index, cli):
            out, seconds, failures = workloads._guarded(
                "boom", lambda: 1 / 0)
            return Pass([Op("ok", 0.5), Op("boom", seconds, 1, failures),
                         Op("rows", 0.5, 3, ["rows: det <= 0"]),
                         self.cli_op(cli)], [0.5])

        def cli_op(self, cli):
            return Op("cli", 0.25)

        def finish(self):
            return [Op("run check", 0.0, failures=["run check: off"])]

        def einfo_digits(self, reference):
            return 12.0

    monkeypatch.setitem(workloads.WORKLOADS, "fit", Failing)
    record, result = run.run_workload("fit", 1, 0.0, False, 0.1,
                                      str(tmp_path))
    # one pass of 4 calls covering 6 operations, and one run-level check
    assert result["attempted"] == 7 and result["failed"] == 3
    assert result["correct"] is False
    assert record["failed_frac"] == pytest.approx(3 / 7)
    assert record["failures"][0].startswith("boom: ZeroDivisionError")
    assert record["failures"][-1] == "run check: off"


@pytest.fixture
def small(monkeypatch):
    """The workloads shrunk to run in seconds: same points and checks,
    fewer draws, looser scan tolerance, a narrower (b) grid."""
    monkeypatch.setattr(workloads, "FIT_N", 3000)
    monkeypatch.setattr(workloads, "MC_N", 20_000)
    monkeypatch.setattr(workloads, "SCAN_A_TOL",
                        {"rel_tol": 1e-5, "abs_tol": 1e-12,
                         "max_evals": 1_000_000})
    monkeypatch.setattr(workloads, "SCAN_B_GRID", (-2.0, 0.0, 2.0))


@pytest.mark.parametrize("name", ["fit", "scan", "mc_check"])
def test_smoke_traced(small, name, tmp_path):
    record, result = run.run_workload(name, 7, 0.0, True, 0.1,
                                      str(tmp_path), str(tmp_path))
    assert record["passes"] == 1 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared(
        "per_layer")
    assert metrics["bench.op_s_traced"]["value"] > 0.0
    assert record["missing_wrap_targets"] == []
    assert threading.active_count() == 1
    if name == "fit":
        assert result["failed"] == 0, record["failures"]
        assert metrics["likelihood.fit_mle.kernel_calls"]["value"] > 10
        assert metrics["cli.self_s"]["value"] > 0.0
    elif name == "scan":
        # 15 grid points and the (b) sweep the CLI re-runs
        assert metrics["expected_info.det_scan.points"]["value"] == 18
        assert 0.0 < metrics[
            "expected_info.det_scan.parallel_efficiency"]["value"] <= 1.0
        assert 0.0 < metrics["expectations.box_check.evals_frac"][
            "value"] < 1.0
    else:
        assert result["failed"] == 0, record["failures"]
        # 3 points, then two `esn2 check --level fast`, each drawing 6
        # tiny samples and taking 3 observed informations
        assert metrics["validation.sample_esn2.calls"]["value"] == 3 + 12
        assert metrics["likelihood.observed_info.calls"]["value"] == 300 + 6
        # one pooled oracle check per point
        assert [op["label"] for op in record["ops"][-3:]] == [
            f"mc[{k}] oracle" for k in range(3)]


def test_smoke_untraced_end_to_end_metrics(small, tmp_path):
    record, result = run.run_workload("mc_check", 7, 0.0, False, 0.1,
                                      str(tmp_path))
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _declared("end_to_end")
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    assert result["metrics"]["einfo_digits"]["value"] > 4.0

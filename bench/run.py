"""esn2 benchmark: the fit, scan and mc_check workloads, end to end or traced.

    python3 bench/run.py --workload fit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root or anywhere else; the package is loaded from
src/ next to this directory, never from an installed copy.  --workload all
runs each workload in its own process, one after another, so that each
peak_rss_mb is that workload's own.  Each run times `import esn2.cli` in
five fresh interpreters and sets up its inputs three times (setup_s is the
fastest import plus the median set-up), then makes passes over the
workload until the next pass would end after --seconds, then makes the
checks that need the whole run and checks the expected information against
the stored reference.  op_s and cli_s are 20%-trimmed means of the run's
op samples and of its command-line calls, one per pass (two on mc_check).

stdout: per workload, one JSON line with the full record (provenance, op_s and cli_s
under their per-workload names, every failure), then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is traced and the metrics
are the per-layer ones, and the spans are written to .bench_out/.  stderr
gets the same metrics as a table.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(HERE, "reference", "einfo_ref.json")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TRIM = 0.2

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "cli_s": "s",
                    "einfo_digits": "digits", "peak_rss_mb": "MB"}
# what op_s and cli_s measure on each workload, under their own names
WORKLOAD_NAMES = {"fit": ("fit_s", "cli_fit_s"),
                  "scan": ("scan_s", "cli_det_scan_s"),
                  "mc_check": ("mc_check_s", "cli_check_s")}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def trimmed_mean(values, share=TRIM):
    """Mean after dropping int(share * n) values from each end: robust to
    the rare very slow fit, and unlike the median it does not jump between
    the two modes of the fits' cost."""
    values = sorted(values)
    cut = int(share * len(values))
    return statistics.fmean(values[cut:len(values) - cut])


def load_reference(expected_points):
    """{point: matrix} from the stored reference; refuses a reference whose
    points are not exactly the workloads' points."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE_PATH}: {exc}") from None
    stored = {tuple(float(v) for v in e["dp"]): np.array(e["matrix"])
              for e in record["points"]}
    if set(stored) != set(expected_points):
        raise BenchError(
            "stored reference points do not match the workloads; "
            "regenerate with bench/make_reference.py")
    return stored


def provenance(seed):
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    ei = sys.modules["esn2.expected_info"]
    threads = (ei._thread_count(3) if hasattr(ei, "_thread_count")
               else "unknown")
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "det_scan_threads": threads,
            "esn2_threads_env": os.environ.get("ESN2_THREADS"),
            "commit": commit, "seed": seed}


def fresh_import_seconds():
    """Fastest wall time of `import esn2.cli` in a fresh interpreter; it
    pulls in numpy, scipy.stats, click and every esn2 module.

    The minimum, not the median: the import's time drifts with the load on
    the host, and the fastest of several is the least disturbed by it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import esn2.cli"], cwd=ROOT,
                       env=env, check=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return min(times)


def run_workload(name, seed, seconds, trace, import_s, workdir,
                 spans_dir=OUT_DIR):
    """One workload: set-up, timed passes, reference check.

    import_s is the import share of setup_s; a traced run writes its spans
    under spans_dir.  Returns (record, result), result being the object
    the last line of output holds."""
    import tracing
    from points import reference_points
    from workloads import WORKLOADS, CliRunner

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        reference = load_reference(reference_points())
        workload = WORKLOADS[name](seed, workdir)
        workload.set_up()
        setups.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    missing = tracer.install(tracing.esn2_targets(tracer)) if trace else []
    cli = CliRunner(ROOT, tracer)
    passes = []
    t_start = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.op = f"{name}/pass{len(passes)}"
            t0 = time.perf_counter()
            passes.append((workload.run_pass(len(passes), cli),
                           time.perf_counter() - t0))
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(t for _, t in passes)
            if elapsed + typical > seconds:
                break
        measured_s = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_checks = workload.finish()
    digits = workload.einfo_digits(reference)

    ops = [op for p, _ in passes for op in p.ops] + run_checks
    attempted = sum(op.attempted for op in ops)
    failures = [f for op in ops for f in op.failures]
    op_samples = [s for p, _ in passes for s in p.op_samples]
    op_s = trimmed_mean(op_samples)
    cli_s = trimmed_mean([op.seconds for p, _ in passes
                          for op in p.ops[-p.cli_calls:]])
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "op_s": op_s,
        "cli_s": cli_s,
        "einfo_digits": digits,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    op_name, cli_name = WORKLOAD_NAMES[name]
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "passes": len(passes), "measured_s": measured_s,
        "pass_s": [t for _, t in passes], "op_samples_s": op_samples,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "setup_runs_s": setups, "import_s": import_s,
        "named": {op_name: op_s, cli_name: cli_s,
                        "failed_frac": len(failures) / attempted},
        "ops": [{"label": op.label, "seconds": op.seconds,
                 "attempted": op.attempted, "failed": len(op.failures)}
                for op in ops],
    }
    if trace:
        layers = tracing.layer_metrics(tracer.spans, len(passes))
        layers["cli.import_s"] = import_s
        layers["bench.op_s_traced"] = op_s
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in layers.items()}
        record["missing_wrap_targets"] = missing
        record["spans"] = len(tracer.spans)
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"spans_{name}_{seed}.jsonl")
        tracer.dump(path)
        record["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    record["end_to_end"] = end_to_end
    return record, {"correct": not failures, "attempted": attempted,
                    "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit", "scan", "mc_check", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")

    if not os.path.isfile(os.path.join(SRC, "esn2", "__init__.py")):
        print(f"bench: no esn2 package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import esn2.cli  # noqa: F401  provenance() reads the loaded package
    import_s = fresh_import_seconds()

    name = args.workload
    prov = provenance(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            record, result = run_workload(name, args.seed, args.seconds,
                                          args.trace, import_s, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    record["provenance"] = prov
    print(json.dumps({"record": record}), flush=True)
    for key, m in result["metrics"].items():
        print(f"{name:9s} {key:44s} {m['value']:12.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{name:9s} failed {result['failed']} of {result['attempted']} "
          "operations", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload, each in its own process, so that each peak_rss_mb
    is that workload's own; the last line merges their results under
    `<workload>.<metric>`."""
    results = []
    for name in ("fit", "scan", "mc_check"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            return proc.returncode
        record_line, result_line = proc.stdout.strip().splitlines()[-2:]
        print(record_line, flush=True)
        results.append((name, json.loads(result_line)))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}.{k}": v for n, r in results
                    for k, v in r["metrics"].items()}}), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())

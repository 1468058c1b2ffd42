"""Run the benchmark over several seeds and summarise, optionally into a
BENCH_*.json record.

    python3 bench/baseline.py --workloads fit,scan,mc_check --seeds 1-10 \
        [--trace-seed 1] [--held-out 101] [--out bench/results/BENCH_x.json]

Each run is `bench/run.py` in its own process, one after another.  For each
workload and end-to-end metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median, to be compared with the metric's bound
in BENCHMARK.json.  With --trace-seed it adds one traced run per workload
and the tracing overhead (traced over untraced op_s, minus one); with
--held-out it adds one untraced run per workload on that seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    record["wall_s"] = wall
    return record, result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="fit,scan,mc_check")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"benchmark": spec, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            record, result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "record": record, "result": result})
            print(f"{workload} seed {seed}: wall {record['wall_s']:.1f}s "
                  f"correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        stats = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = summarise(values)
            stats[name]["bound"] = bounds[name]
            s = stats[name]
            print(f"  {workload:8s} {name:13s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})",
                  file=sys.stderr, flush=True)
        entry = {"end_to_end": stats,
                 "wall_s": summarise([r["record"]["wall_s"] for r in runs]),
                 "runs": runs}
        if args.trace_seed is not None:
            record, result = run_once(workload, args.trace_seed, seconds, 1)
            untraced = [r for r in runs if r["seed"] == args.trace_seed]
            base = (untraced[0]["result"]["metrics"]["op_s"]["value"]
                    if untraced else stats["op_s"]["median"])
            traced_op = result["metrics"]["bench.op_s_traced"]["value"]
            entry["traced"] = {"seed": args.trace_seed, "record": record,
                               "result": result,
                               "tracing_overhead": traced_op / base - 1.0}
        if args.held_out is not None:
            record, result = run_once(workload, args.held_out, seconds, 0)
            entry["held_out"] = {"seed": args.held_out, "record": record,
                                 "result": result}
        summary["workloads"][workload] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()

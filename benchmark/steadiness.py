#!/usr/bin/env python3
"""How steady is each end-to-end metric? Runs every workload of
BENCHMARK.json once per seed with the benchmark's own command, then prints,
per (workload, metric), the median over the runs and the distance between
the first and third quartile as a share of it (statistics.quantiles, n=4) —
the spread the bounds in BENCHMARK.json were derived from (README.md,
"Bounds").

    python3 benchmark/steadiness.py [--seeds 1-10] [--workloads a,b] [--json out.json]

Run from the repository root. Exits 1 if a run fails or a check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    values = {}  # (workload, metric) -> [value per seed]
    ok = True
    for name in names:
        for seed in seeds:
            cmd = manifest["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            run = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - started
            if run.returncode != 0:
                print(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for metric, m in result["metrics"].items():
                values.setdefault((name, metric), []).append(m["value"])
            print(f"{name} seed {seed}: {wall:.1f} s wall, "
                  f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)

    print(f"{'workload':<15} {'metric':<18} {'median':>12} {'spread':>8} {'bound':>7}  bound/3")
    for (name, metric), v in values.items():
        if len(v) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2
        verdict = "ok" if spread <= bounds[metric] / 3 or metric == "setup_s" else "WIDE"
        print(f"{name:<15} {metric:<18} {q2:>12.4f} {spread:>7.1%} {bounds[metric]:>7.0%}  {verdict}")
    if args.json:
        json.dump({f"{w}/{m}": v for (w, m), v in values.items()}, open(args.json, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

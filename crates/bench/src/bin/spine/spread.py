#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance rule computes it.

Runs `BENCHMARK.json`'s command ten times per workload, each time with
another seed, and prints for every end-to-end metric the median and the
interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`), beside the metric's bound.

    python3 crates/bench/src/bin/spine/spread.py [--first-seed N] [--json OUT]

Run it from the repository root. `--json` writes what `baseline.json`
holds: the spreads plus the host the numbers were taken on.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time


def main():
    args = sys.argv[1:]
    first = int(args[args.index("--first-seed") + 1]) if "--first-seed" in args else 1
    out_path = args[args.index("--json") + 1] if "--json" in args else None
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(first, first + 10))
    baseline = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        values, walls = {}, []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            run = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - started)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout[-800:]}{run.stderr[-800:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {statistics.median(walls):.1f} s per run (max {max(walls):.1f} s)")
        baseline[workload] = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else (
                "  > bound/3" if spread <= bounds[name] else "  > BOUND")
            print(f"  {name:12s} median {median:14.4f}   iqr/median {spread:.4f}   bound {bounds[name]}{flag}")
            baseline[workload][name] = {"median": median, "iqr_share": spread, "values": series}
    if out_path:
        cpu = next((l.split(":")[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "unknown")
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        doc = {
            "host": {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(), "rustc": rustc},
            "parent_commit": commit,
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "end_to_end": baseline,
        }
        json.dump(doc, open(out_path, "w"), indent=1)
        print(f"wrote {out_path}")


if __name__ == "__main__":
    main()

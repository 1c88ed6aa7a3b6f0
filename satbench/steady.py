#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly on one commit and reports spread.

    python3 satbench/steady.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

For each workload it runs satbench/run.py once per seed (--trace 0), then
reports per end-to-end metric the median and the inter-quartile range as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. It also reruns the first seed and flags
any sim_* or wire_bytes_per_op value that differs between the two runs of
that seed: the simulator is deterministic, so they must repeat exactly. Exits
1 when a run is incorrect, the failed share differs between runs, a spread
exceeds its bound, or a simulated value does not repeat.

Two sets of runs are compared by their medians against the same bounds. A
spread above a third of its bound passes but is marked "tight": the medians
of two such sets can drift apart by a good share of the bound by chance.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_PREFIXES = ("sim_", "wire_bytes_per_op")


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if got.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    lines = got.stdout.strip().splitlines()
    machine = next((l for l in lines if l.startswith("machine: ")), "machine: {}")
    return json.loads(machine[len("machine: "):]), json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    config = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            machine, result = run(workload, seed, args.seconds)
            results.append(result)
        _, again = run(workload, seeds[0], args.seconds)
        print("\n%s  (%d seeds, %d s runs)  machine: %s" %
              (workload, len(seeds), args.seconds, json.dumps(
                  {k: machine.get(k) for k in ("cpu", "nproc", "compiler", "build_type",
                                               "commit")})))
        shares = {r["failed"] / r["attempted"] for r in results + [again]}
        if not all(r["correct"] for r in results + [again]) or len(shares) != 1:
            print("  INCORRECT run or unequal failed share: %s" % sorted(shares))
            ok = False
        print("  %-24s %14s %8s %8s  %s" % ("metric", "median", "iqr", "bound", "repeat"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            repeat = ""
            if name.startswith(EXACT_PREFIXES):
                same = again["metrics"][name]["value"] == results[0]["metrics"][name]["value"]
                repeat = "exact" if same else "DIFFERS"
                ok = ok and same
            flag = ""
            if iqr > bound:
                flag = "  > bound"
                ok = False
            elif iqr > bound / 3:
                flag = "  tight"
            print("  %-24s %14.6g %7.2f%% %7.0f%%  %s%s" %
                  (name, median, 100 * iqr, 100 * bound, repeat, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

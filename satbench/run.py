#!/usr/bin/env python3
"""Builds the benchmark binary against this checkout's program and runs it.

    python3 satbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The satbench binary and the program's library are
built from source into .bench_build/satbench (CMake; build output goes to
stderr). The run prints a machine descriptor line, the binary's run record,
and as its last line one JSON object with the keys correct, attempted, failed
and metrics. With --trace 1 the per-layer metrics and their sample counts are
also written to .bench_build/satbench-out/. Exits non-zero without a result
when the program's sources are missing, the build fails or the run does.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "satbench")
OUT = os.path.join(ROOT, ".bench_build", "satbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("satbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "satbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    return os.environ.get("SATBENCH_COMMIT", "unknown (not a git checkout)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--layers-out",
                os.path.join(OUT, "layers_%s_seed%d.json" % (args.workload, args.seed))]
    try:
        got = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        sys.stderr.write(got.stdout)
        fail("satbench exited with %d" % got.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("satbench printed no result line")

    record = {}
    for line in lines[:-1]:
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    machine = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": record.get("compiler", "unknown"),
        "build_type": record.get("build_type", "unknown"),
        "commit": commit(),
        "seed": args.seed,
    }
    print("machine: " + json.dumps(machine))
    print("\n".join(lines))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the fieldrep benchmark from source and runs one workload.

    python3 perfbench/run.py --workload read_ooc --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, and so do the span dumps of traced
runs. The database lives in memfd files (anonymous tmpfs), so a run
writes to no other directory. With --trace 0 the last line of standard output is the result
with every end-to-end metric of BENCHMARK.json; with --trace 1 it holds
every per-layer metric, taken from a traced run, and
trace.overhead_share, which compares the traced run with an untraced run
of the same seed. The line before it holds the run's context (host, build,
host-drift probe, op counts).
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # after the build, for all runs of the program together
ROUNDS = 5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    build_dir = os.path.join(target_dir, "perfbench-cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "fieldrep_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "fieldrep_perfbench")


def run_once(binary, args, extra, deadline):
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % " ".join(cmd))
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no result from " + " ".join(cmd))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "db", "database.h")):
        fail("fieldrep sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(target_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if args.trace == 0:
        result = run_once(binary, args, ["--rounds=%d" % ROUNDS], deadline)
        runs = [result]
        values = result["e2e"]
        wanted = spec["end_to_end"]
    else:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, args.workload + ".tsv")  # one file per workload, overwritten
        plain = run_once(binary, args, ["--rounds=1"], deadline)
        result = run_once(binary, args, ["--rounds=1", "--trace", "--spans=" + spans],
                          deadline)
        runs = [plain, result]
        values = dict(result["layers"])
        values["trace.overhead_share"] = (
            1 - result["e2e"]["ops_per_s"] / plain["e2e"]["ops_per_s"])
        result["context"]["spans_file"] = os.path.relpath(spans, ROOT)
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("run did not report " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"context": result["context"]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": int(sum(r["attempted"] for r in runs)),
        "failed": int(sum(r["failed"] for r in runs)),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

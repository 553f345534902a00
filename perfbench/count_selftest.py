#!/usr/bin/env python3
"""Self-test of the benchmark's count metrics.

    python3 perfbench/count_selftest.py

Runs every workload at a tiny size (|S| = 2000, 3000 timed ops) twice with
the same seed and asserts that every count metric is bit-identical, then
once with another seed and asserts that the drawn keys change while the
op-mix shares stay within sampling error. Every run must also pass its
own correctness check. Exits 0 when all checks pass.
"""
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

WORKLOADS = ["read_ooc", "update_fanout"]
E2E_COUNTS = ["io_pages_per_op", "space_amp"]
# Layer metrics that are counts (not times). The pool's latch and
# single-flight waits are left out: with executor workers they depend on
# thread timing by nature.
LAYER_COUNT_PREFIXES = ["wal.", "replication.", "storage.", "costmodel."]
LAYER_COUNT_EXTRA = [
    "query.rows_per_query", "query.heads_scanned_per_row",
    "query.replica_row_share", "query.parallel_ranges_per_query",
    "index.fetches_per_query", "thread_pool.tasks_per_query",
    "db.lock_acquisitions_per_op", "db.lock_conflicts_per_op",
]
NOT_COUNTS = {
    "storage.pool_latch_waits_per_op", "storage.pool_single_flight_waits_per_op",
    "storage.device_read_us_per_op", "storage.device_write_us_per_op",
    "storage.device_busy_share", "wal.append_us_per_commit",
    "wal.sync_us_per_commit", "wal.checkpoint_us",
}


def run_tiny(binary, workload, seed):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--s-count=2000", "--ops=3000", "--rounds=1", "--trace"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True,
                         timeout=run.RUN_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])


def counts(result):
    picked = {name: result["e2e"][name] for name in E2E_COUNTS}
    for name, value in result["layers"].items():
        if name in NOT_COUNTS:
            continue
        if any(name.startswith(p) for p in LAYER_COUNT_PREFIXES) or name in LAYER_COUNT_EXTRA:
            picked[name] = value
    picked["op_counts"] = result["context"]["op_counts"]
    return picked


def main():
    target_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = run.build(target_dir)
    failures = []
    for workload in WORKLOADS:
        first = run_tiny(binary, workload, 7)
        second = run_tiny(binary, workload, 7)
        other = run_tiny(binary, workload, 8)
        for r in (first, second, other):
            if not r["correct"] or r["failed"] != 0:
                failures.append("%s: run failed its correctness check" % workload)
        a, b = counts(first), counts(second)
        for name in sorted(a):
            if a[name] != b[name]:
                failures.append("%s: %s differs between equal seeds: %r vs %r"
                                % (workload, name, a[name], b[name]))
        if first["context"]["ops_digest"] == other["context"]["ops_digest"]:
            failures.append("%s: another seed drew the same keys" % workload)
        n = other["attempted"]
        for op, share in other["context"]["op_shares"].items():
            seen = other["context"]["op_counts"][op] / n
            allowed = 4 * math.sqrt(share * (1 - share) / n) + 1e-12
            if abs(seen - share) > allowed:
                failures.append("%s: %s share %.4f is not within %.4f of %.4f"
                                % (workload, op, seen, allowed, share))
        print("%-14s %d count metrics identical across equal seeds" % (workload, len(a)))
    for f in failures:
        print("FAIL " + f)
    print("count self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

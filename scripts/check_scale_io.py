#!/usr/bin/env python3
"""Compares a fresh scale_io JSON against the committed seed.

Usage: scripts/check_scale_io.py NEW_JSON [SEED_JSON]

The *logical* I/O counters (fetches / hits / disk_reads / disk_writes per
phase) are deterministic for a given preset + seed, and identical for any
read-ahead window — the buffer pool's charge-on-first-fetch rule
guarantees it. Wall-clock metrics vary run to run and are not compared. Exit code 1 on any mismatch.
"""

import json
import sys

LOGICAL_SUFFIXES = ("fetches", "hits", "disk_reads", "disk_writes", ".ops")
SHAPE_KEYS = ("s_count", "f", "objects", "data_pages", "pool_frames",
              "window", "zipf_theta")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == "scale_io", f"{path}: not a scale_io result"
    return doc["metrics"]


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    new = load(sys.argv[1])
    seed = load(sys.argv[2] if len(sys.argv) > 2 else "BENCH_scale_io.json")

    checked = 0
    failures = []
    for key in seed:
        logical = key in SHAPE_KEYS or any(
            key.endswith(s) for s in LOGICAL_SUFFIXES)
        if not logical:
            continue
        checked += 1
        if key not in new:
            failures.append(f"missing key {key}")
        elif new[key] != seed[key]:
            failures.append(f"{key}: seed={seed[key]} new={new[key]}")
    for line in failures:
        print(f"MISMATCH {line}")
    if not failures:
        print(f"ok: {checked} logical counters match the committed seed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

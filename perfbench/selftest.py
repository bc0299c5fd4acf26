"""Determinism check: two runs with one seed must count exactly the same.

Run from the repository root::

    python3 perfbench/selftest.py [--seed 7] [--seconds 3]

For every workload, the untraced and the traced run are each made twice
with the same seed, the second time under another ``PYTHONHASHSEED``.  The
check fails unless these repeat exactly: operations attempted and failed,
snapshot and WAL bytes (except ``mediator_reads``' WAL, see below), and
every per-layer count and ratio of counts (view entries, maintenance and
coalescing counters, intern-table figures, calls per query, checkpoint
bytes, replayed batches).  Timings are not compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("tc_churn", "interval_batches", "mediator_reads")
#: Ratios that divide by a time, so they are not expected to repeat.
TIMED_RATIOS = {"maintenance.recompute_ratio", "perfbench.trace_overhead_ratio"}
#: ``Mediator.open`` takes no clock, so this workload's WAL records carry
#: wall-clock timestamps, and the digits they print with vary by a byte.
#: The other workloads stamp transactions from a counter.
WALL_CLOCK_WAL = {("mediator_reads", "wal_bytes_per_request")}


def counted(workload: str, result: dict) -> dict:
    """The parts of a result that must repeat exactly."""
    fields = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, metric in result["metrics"].items():
        untimed = metric["unit"] in ("count", "B", "ratio") and name not in TIMED_RATIOS
        if untimed and (workload, name) not in WALL_CLOCK_WAL:
            fields[name] = metric["value"]
    return fields


def run(workload: str, seed: int, seconds: int, trace: int, hash_seed: str) -> dict:
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args(argv)
    mismatches = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = counted(workload, run(workload, args.seed, args.seconds, trace, "1"))
            second = counted(workload, run(workload, args.seed, args.seconds, trace, "2"))
            for name in sorted(first):
                if first[name] != second.get(name):
                    mismatches += 1
                    print(f"MISMATCH {workload} trace={trace} {name}: "
                          f"{first[name]!r} != {second.get(name)!r}")
            print(f"{workload} trace={trace}: {len(first)} fields compared")
    print("deterministic" if not mismatches else f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

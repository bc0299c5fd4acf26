"""End-to-end benchmark of durable materialized mediated-view maintenance.

Run from the repository root::

    python3 perfbench/run.py --workload tc_churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run drives one workload through the public library surface (durable
``open_scheduler`` / ``Mediator.open``, ``submit`` + ``flush``, ``query``,
``checkpoint``, reopening the data directory) as a closed loop with one
client, checks every answer against an independent oracle, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
the metrics -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``.  ``--workload all`` runs every
workload both ways, each in its own process, and prints one table.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Data directories and span files live here, inside the checkout.
WORK_DIR = ROOT / ".perfbench_data"
NAMES = ("tc_churn", "interval_batches", "mediator_reads")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_one(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = Tracer() if traced else None
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        if tracer is not None:
            harness.install_wrappers(tracer)
        try:
            record = harness.Run(workload, seconds, scratch, tracer).play()
        finally:
            if tracer is not None:
                tracer.unwrap()
        if tracer is not None:
            metrics = harness.per_layer(workload, record, tracer)
            spans = WORK_DIR / f"spans-{name}-{seed}.jsonl"
            tracer.write(spans)
            notes = [f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}"]
        else:
            metrics, notes = harness.end_to_end(workload, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(record.failures.values())
    for note in notes:
        print(f"# {note}")
    print(
        f"# {record.cycles} cycles; failed operations by kind: "
        f"{json.dumps(record.failures, sort_keys=True)}"
    )
    return {
        "correct": failed == 0,
        "attempted": record.attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stderr)
                print(f"{name} trace={trace}: failed with code {completed.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(
                f"\n== {name} ({'traced' if trace else 'untraced'}): "
                f"attempted {result['attempted']}, failed {result['failed']}, "
                f"correct {str(result['correct']).lower()}"
            )
            for line in lines[:-1]:
                print(line)
            for key, metric in result["metrics"].items():
                print(f"  {key:36s} {metric['value']:>14.4f} {metric['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

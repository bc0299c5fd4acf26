"""Counter-regression gate over ``BENCH_smoke.json`` snapshots.

Wall-clock numbers vary with hardware; the operation counters
(``derivation_attempts``, ``solver_calls``, ...) are deterministic, so a PR
that quietly decays a delta join back into a Cartesian product, or starts
issuing per-pair solver calls again, is visible as a counter jump even on a
different machine.  This script diffs the counters of a freshly-run (or
supplied) snapshot against the committed baseline and exits nonzero when any
counter regressed by more than the threshold (default 20%).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py                # run now, diff against BENCH_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py --current new.json
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.1

The tier-1 suite runs the same comparison via
``tests/test_bench_regression.py``, so ``pytest`` alone already enforces the
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

#: The counters the gate watches.  Timings and entry counts are ignored.
#: ``domain_calls`` and ``ground_evaluations`` are what one mediator read
#: pays (the ``mediator_query`` family).
GATED_COUNTERS = (
    "derivation_attempts",
    "solver_calls",
    "domain_calls",
    "ground_evaluations",
)

#: Counters below this value are exempt from the percentage check (a jump
#: from 2 to 3 is +50% but meaningless); the absolute slack also absorbs it.
ABSOLUTE_SLACK = 5


def iter_counters(results: Dict[str, dict]) -> Iterator[Tuple[str, int]]:
    """Flatten a snapshot's ``results`` into ``(dotted key, value)`` pairs."""
    for family in sorted(results):
        data = results[family]
        if not isinstance(data, dict):
            continue
        for counter in GATED_COUNTERS:
            value = data.get(counter)
            if isinstance(value, int):
                yield f"{family}.{counter}", value
        for algorithm in sorted(data):
            payload = data[algorithm]
            if not isinstance(payload, dict):
                continue
            stats = payload.get("stats")
            if not isinstance(stats, dict):
                continue
            for counter in GATED_COUNTERS:
                value = stats.get(counter)
                if isinstance(value, int):
                    yield f"{family}.{algorithm}.{counter}", value


def compare_snapshots(
    baseline: dict, current: dict, threshold: float = 0.2
) -> List[Tuple[str, int, Optional[int]]]:
    """Return ``(key, baseline value, current value)`` for every regression.

    A counter regresses when it exceeds both the percentage threshold and an
    absolute slack over the baseline.  A counter present in the baseline but
    **missing from the current run** is reported as a regression with
    ``None`` as the current value: a silently vanished counter usually means
    a family was renamed or an algorithm stopped reporting its stats, and
    the gate must say so clearly instead of letting the coverage rot (or
    crashing with a ``KeyError``).  Whole families missing from the current
    snapshot are exempt -- the tier-1 gate deliberately skips the slow
    external family -- as are keys only the current side has (new families
    have no baseline to hold them to yet).
    """
    base_counters = dict(iter_counters(baseline.get("results", {})))
    current_counters = dict(iter_counters(current.get("results", {})))
    current_families = {
        family
        for family, data in current.get("results", {}).items()
        if isinstance(data, dict)
    }
    regressions: List[Tuple[str, int, Optional[int]]] = []
    for key, base_value in sorted(base_counters.items()):
        current_value = current_counters.get(key)
        if current_value is None:
            if key.split(".", 1)[0] in current_families:
                regressions.append((key, base_value, None))
            continue
        allowed = max(base_value * (1.0 + threshold), base_value + ABSOLUTE_SLACK)
        if current_value > allowed:
            regressions.append((key, base_value, current_value))
    return regressions


def check_interning_family(snapshot: dict) -> List[str]:
    """Shape gate for the ``constraint_interning`` smoke family; returns problems.

    Intern-table deltas depend on what the process interned before the
    family ran (warm weak tables turn misses into hits), so the gate holds
    the *direction* of every number, not its exact value:

    * the identity fast paths actually fired (``identity_hits`` > 0) -- a
      refactor that silently stops short-circuiting pointer-identical
      subsumptions/subtractions re-inflates counted solver calls;
    * the per-node canonical and satisfiability memos were hit;
    * term/constraint construction actually shared structure
      (``hit_ratio`` at least 0.2 -- ~0.3 cold, higher warm);
    * the coalescer's cancellation spent **zero** solver calls: the mixed
      batch's insert-then-delete pair is pointer-identical, so any counted
      call there means the identity check regressed.
    """
    problems: List[str] = []
    family = snapshot.get("results", {}).get("constraint_interning")
    if not isinstance(family, dict):
        return ["constraint_interning family missing from the snapshot"]
    intern = family.get("intern")
    if not isinstance(intern, dict):
        return ["constraint_interning.intern block missing"]
    events = intern.get("events", {})
    if intern.get("identity_hits", 0) < 1:
        problems.append(
            "identity fast paths never fired (identity_hits == 0): "
            "pointer-identical subsumptions/subtractions are paying "
            "solver calls again"
        )
    if events.get("canonical_hits", 0) < 1:
        problems.append(
            "per-node canonical memo never hit (canonical_hits == 0)"
        )
    if events.get("sat_node_hits", 0) + events.get("simplify_node_hits", 0) < 1:
        problems.append(
            "per-node solver memos never hit (sat_node_hits + "
            "simplify_node_hits == 0)"
        )
    ratio = intern.get("hit_ratio")
    if not isinstance(ratio, (int, float)) or ratio < 0.2:
        problems.append(
            f"intern-table hit ratio {ratio!r} below the 0.2 floor: "
            "construction is not sharing structure"
        )
    coalesce = family.get("coalesce", {})
    if coalesce.get("cancelled", 0) < 1:
        problems.append(
            "the mixed batch's insert-then-delete pair did not cancel"
        )
    if coalesce.get("solver_calls", 0) != 0:
        problems.append(
            "coalescing the identity-cancellable batch spent "
            f"{coalesce.get('solver_calls')} solver call(s); the identity "
            "short-circuit should have spent none"
        )
    return problems


def check_serve_snapshot(snapshot: dict) -> List[str]:
    """Shape gate for a ``BENCH_serve.json`` snapshot; returns problems.

    Wall-clock throughput is machine-dependent, but the *relationship* the
    serving layer exists for is not: over the same latency-dominated update
    stream, the pipelined configuration (concurrent disjoint-group batches)
    must beat the serialized baseline on updates/sec, must have actually
    overlapped commits (``concurrent_commits``), and both runs must converge
    to the identical final view.  A snapshot violating any of these says the
    concurrency restructuring regressed -- whatever the hardware.
    """
    problems: List[str] = []
    family = snapshot.get("results", {}).get("serve_mixed_load")
    if not isinstance(family, dict):
        return ["serve_mixed_load family missing from the serve snapshot"]
    for mode in ("serialized", "pipelined"):
        data = family.get(mode)
        if not isinstance(data, dict):
            problems.append(f"serve_mixed_load.{mode} missing")
            continue
        for key in ("updates_per_second", "read_p99_ms"):
            value = data.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"serve_mixed_load.{mode}.{key} must be a positive "
                    f"number, got {value!r}"
                )
    if problems:
        return problems
    serialized = family["serialized"]
    pipelined = family["pipelined"]
    if pipelined["updates_per_second"] <= serialized["updates_per_second"]:
        problems.append(
            "pipelined updates/sec must beat the serialized baseline "
            f"({pipelined['updates_per_second']} <= "
            f"{serialized['updates_per_second']})"
        )
    if pipelined.get("concurrent_commits", 0) < 1:
        problems.append(
            "pipelined run never committed batches concurrently "
            "(concurrent_commits == 0): admission is over-serializing"
        )
    if serialized.get("concurrent_commits", 0) != 0:
        problems.append(
            "serialized baseline reported concurrent commits; it is no "
            "longer a baseline"
        )
    if family.get("final_state_match") is not True:
        problems.append(
            "final views of the serialized and pipelined runs differ: the "
            "concurrent pipeline is not maintenance-equivalent"
        )
    return problems


def check_persist_snapshot(snapshot: dict) -> List[str]:
    """Shape gate for a ``BENCH_persist.json`` snapshot; returns problems.

    Absolute timings are machine-dependent, but the relationship the
    durability layer exists for is not: cold start from the newest
    snapshot plus a short WAL-tail replay must beat recomputing the view
    from the whole update stream, the checkpoints must actually have
    written bytes and *reused* at least one unchanged shard (the
    dirty-only rewrite), at least one journaled tail batch must have been
    replayed (else the WAL path went untested), and both recovery paths
    must land on the identical view.
    """
    problems: List[str] = []
    family = snapshot.get("results", {}).get("persist_cold_start")
    if not isinstance(family, dict):
        return ["persist_cold_start family missing from the persist snapshot"]
    for key in ("cold_start_seconds", "recompute_seconds"):
        value = family.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(
                f"persist_cold_start.{key} must be a positive number, "
                f"got {value!r}"
            )
    if problems:
        return problems
    if family["cold_start_seconds"] >= family["recompute_seconds"]:
        problems.append(
            "cold start from the snapshot must beat full recompute "
            f"({family['cold_start_seconds']}s >= "
            f"{family['recompute_seconds']}s): checkpointing buys nothing"
        )
    if family.get("state_match") is not True:
        problems.append(
            "cold start and recompute landed on different views: recovery "
            "is not maintenance-equivalent"
        )
    if not isinstance(family.get("checkpoint_bytes"), int) or family["checkpoint_bytes"] <= 0:
        problems.append(
            "checkpoint_bytes must be a positive integer, got "
            f"{family.get('checkpoint_bytes')!r}"
        )
    if family.get("replayed_batches", 0) < 1:
        problems.append(
            "cold start replayed no WAL-tail batches: the replay path "
            "went unexercised"
        )
    if family.get("shards_reused", 0) < 1:
        problems.append(
            "second checkpoint reused no shards: the dirty-only rewrite "
            "is rewriting everything"
        )
    if not isinstance(family.get("view_entries"), int) or family["view_entries"] <= 0:
        problems.append(
            f"view_entries must be a positive integer, got "
            f"{family.get('view_entries')!r}"
        )
    return problems


def check_obs_snapshot(snapshot: dict) -> List[str]:
    """Shape gate for a ``BENCH_obs.json`` snapshot; returns problems.

    Absolute throughput is machine-dependent, but the contract the
    observability layer makes is not: over the identical latency-dominated
    update stream, the ``REPRO_OBS=1`` configuration must stay within the
    overhead budget of the uninstrumented run (default 10%), the enabled
    run's traces must verify clean (every applied batch a complete
    drain -> commit span tree -- low overhead bought by dropping spans is a
    regression, not a win), and both exporters must report positive drain
    rates.
    """
    problems: List[str] = []
    results = snapshot.get("results", {})
    family = results.get("obs_overhead")
    if not isinstance(family, dict):
        return ["obs_overhead family missing from the obs snapshot"]
    for mode in ("disabled", "enabled"):
        data = family.get(mode)
        if not isinstance(data, dict):
            problems.append(f"obs_overhead.{mode} missing")
            continue
        value = data.get("updates_per_second")
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(
                f"obs_overhead.{mode}.updates_per_second must be a positive "
                f"number, got {value!r}"
            )
    if problems:
        return problems
    disabled = family["disabled"]["updates_per_second"]
    enabled_data = family["enabled"]
    enabled = enabled_data["updates_per_second"]
    budget = family.get("budget_fraction")
    if not isinstance(budget, (int, float)) or not 0 < budget < 1:
        problems.append(
            f"obs_overhead.budget_fraction must be in (0, 1), got {budget!r}"
        )
        budget = 0.10
    if enabled < disabled * (1.0 - budget):
        overhead = (disabled - enabled) / disabled
        problems.append(
            f"enabled throughput lost {overhead:.1%} vs disabled "
            f"({enabled} < {disabled} updates/s, budget {budget:.0%}): "
            "instrumentation is no longer near-zero-overhead"
        )
    if enabled_data.get("trace_problems", None) != 0:
        problems.append(
            "enabled run's traces did not verify clean "
            f"(trace_problems={enabled_data.get('trace_problems')!r}); see "
            "trace_problems_detail in the snapshot"
        )
    if not isinstance(enabled_data.get("traces_complete"), int) or (
        enabled_data["traces_complete"] < 1
    ):
        problems.append(
            "enabled run produced no complete traces "
            f"(traces_complete={enabled_data.get('traces_complete')!r}): "
            "the tracing path went unexercised"
        )
    exporters = results.get("obs_exporters")
    if not isinstance(exporters, dict):
        problems.append("obs_exporters family missing from the obs snapshot")
        return problems
    for key in ("file_events_per_second", "ring_events_per_second"):
        value = exporters.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(
                f"obs_exporters.{key} must be a positive number, got {value!r}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_smoke.json"),
        help="committed snapshot to compare against",
    )
    parser.add_argument(
        "--serve-baseline",
        default=str(REPO_ROOT / "BENCH_serve.json"),
        help="committed serve snapshot to shape-check ('' skips)",
    )
    parser.add_argument(
        "--serve-current",
        default=None,
        help="freshly-run serve snapshot to shape-check as well",
    )
    parser.add_argument(
        "--only-serve",
        action="store_true",
        help="skip the counter gate; check only the serve snapshots",
    )
    parser.add_argument(
        "--persist-baseline",
        default=str(REPO_ROOT / "BENCH_persist.json"),
        help="committed persist snapshot to shape-check ('' skips)",
    )
    parser.add_argument(
        "--persist-current",
        default=None,
        help="freshly-run persist snapshot to shape-check as well",
    )
    parser.add_argument(
        "--only-persist",
        action="store_true",
        help="skip the counter and serve gates; check only the persist snapshots",
    )
    parser.add_argument(
        "--obs-baseline",
        default=str(REPO_ROOT / "BENCH_obs.json"),
        help="committed observability snapshot to shape-check ('' skips)",
    )
    parser.add_argument(
        "--obs-current",
        default=None,
        help="freshly-run observability snapshot to shape-check as well",
    )
    parser.add_argument(
        "--only-obs",
        action="store_true",
        help="skip the other gates; check only the observability snapshots",
    )
    parser.add_argument(
        "--current",
        default=None,
        help="snapshot to check; omitted = run the smoke families now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative regression budget (0.2 = +20%%)",
    )
    args = parser.parse_args(argv)

    failed = False
    if not args.only_serve and not args.only_persist and not args.only_obs:
        baseline = json.loads(Path(args.baseline).read_text())
        if args.current is not None:
            current = json.loads(Path(args.current).read_text())
        else:
            from benchmarks.smoke import run_smoke

            current = {"results": run_smoke(include_external=False)}

        for label, snapshot in (("committed", baseline), ("fresh", current)):
            problems = check_interning_family(snapshot)
            if not problems:
                print(f"interning gate ({label}): OK")
                continue
            failed = True
            print(f"interning gate ({label}): {len(problems)} problem(s)")
            for problem in problems:
                print(f"  {problem}")

        regressions = compare_snapshots(baseline, current, args.threshold)
        checked = len(dict(iter_counters(baseline.get("results", {}))))
        if not regressions:
            print(f"counter regression gate: OK ({checked} counters within budget)")
        else:
            failed = True
            print(f"counter regression gate: {len(regressions)} regression(s) over "
                  f"{args.threshold:.0%} budget")
            for key, base_value, current_value in regressions:
                if current_value is None:
                    print(f"  {key}: {base_value} -> MISSING (counter present in the "
                          "baseline but absent from the fresh run; re-baseline "
                          "consciously if the family/algorithm was renamed)")
                    continue
                growth = (current_value - base_value) / base_value if base_value else float("inf")
                print(f"  {key}: {base_value} -> {current_value} (+{growth:.0%})")

    if not args.only_persist and not args.only_obs:
        serve_paths = []
        if args.serve_baseline:
            serve_paths.append(("committed", Path(args.serve_baseline)))
        if args.serve_current:
            serve_paths.append(("fresh", Path(args.serve_current)))
        for label, path in serve_paths:
            if not path.exists():
                failed = True
                print(f"serve gate ({label}): {path} does not exist")
                continue
            problems = check_serve_snapshot(json.loads(path.read_text()))
            if not problems:
                print(f"serve gate ({label}): OK ({path.name})")
                continue
            failed = True
            print(f"serve gate ({label}): {len(problems)} problem(s) in {path.name}")
            for problem in problems:
                print(f"  {problem}")

    if not args.only_serve and not args.only_obs:
        persist_paths = []
        if args.persist_baseline:
            persist_paths.append(("committed", Path(args.persist_baseline)))
        if args.persist_current:
            persist_paths.append(("fresh", Path(args.persist_current)))
        for label, path in persist_paths:
            if not path.exists():
                failed = True
                print(f"persist gate ({label}): {path} does not exist")
                continue
            problems = check_persist_snapshot(json.loads(path.read_text()))
            if not problems:
                print(f"persist gate ({label}): OK ({path.name})")
                continue
            failed = True
            print(f"persist gate ({label}): {len(problems)} problem(s) in {path.name}")
            for problem in problems:
                print(f"  {problem}")

    if not args.only_serve and not args.only_persist:
        obs_paths = []
        if args.obs_baseline:
            obs_paths.append(("committed", Path(args.obs_baseline)))
        if args.obs_current:
            obs_paths.append(("fresh", Path(args.obs_current)))
        for label, path in obs_paths:
            if not path.exists():
                failed = True
                print(f"obs gate ({label}): {path} does not exist")
                continue
            problems = check_obs_snapshot(json.loads(path.read_text()))
            if not problems:
                print(f"obs gate ({label}): OK ({path.name})")
                continue
            failed = True
            print(f"obs gate ({label}): {len(problems)} problem(s) in {path.name}")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

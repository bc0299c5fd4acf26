"""The closed-loop run: one client, no think time, fixed operation counts.

A run is a fixed number of equal episodes.  Each episode sets up a durable
scheduler from an empty data directory (``setups`` times, keeping the last
one), then plays a fixed number of cycles; each cycle submits and flushes
the workload's update batches and reads the published view once.  Every
``checkpoint_every`` cycles it forces a checkpoint; one cycle after the
middle checkpoint it reopens ``reopens`` untimed copies of the data
directory, one by one, so each replays a WAL tail of exactly one cycle.
Set-up, checkpoint and restart are therefore medians of samples spread
across the run, and no episode carries the history (view growth, heap
size) of the ones before it.

Every timed operation is preceded by a speed probe: a fixed piece of
pure-Python work that shares no code with the library.  The shared machine
this benchmark was built on drifts between a fast and a slow mode every few
seconds (the probe's median per 5-second window ranged 7.7-12.9 ms on one
run), so the end-to-end timings are reported at a reference speed: each
wall-clock sample times ``PROBE_REFERENCE_S`` over the median of the nine
probes around it.  The raw wall-clock medians are printed alongside.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.constraints import ConstraintSolver
from repro.constraints.intern import intern_stats
from repro.datalog.fixpoint import compute_tp_fixpoint
from repro.domains.base import Domain
from repro.persist.snapshot import SnapshotStore
from repro.persist.wal import WriteAheadLog

from tracing import Tracer

#: A latency tail is the sample with this many samples above it.
TAIL_BEYOND = 10
#: Cycles journaled between the middle checkpoint and the reopens.
TAIL_CYCLES = 1
PROBE_ITERATIONS = 20000
#: What one probe takes at the reference speed (about this machine's own
#: median): timings are reported as if every probe had taken this long.
PROBE_REFERENCE_S = 0.005
#: Probes on each side of a sample that set its speed.
PROBE_WINDOW = 4


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table: Dict[Tuple[int, str], int] = {}
        for i in range(PROBE_ITERATIONS):
            key = (i % 251, "k")
            table[key] = table.get(key, 0) + i
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: the ``(n - 10)``-th smallest of ``n``
    samples, which is the ``100 * (n - 10) / n`` percentile.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


@dataclass
class Timing:
    """One timed operation."""

    seconds: float
    #: Index of the speed probe taken just before the operation.
    probe: int
    cycle: int = -1
    shape: str = ""
    requests: int = 0


@dataclass
class RunRecord:
    """Everything a run measured, before it is turned into metrics."""

    cycles: int = 0
    probes: List[float] = field(default_factory=list)
    setups: List[Timing] = field(default_factory=list)
    updates: List[Timing] = field(default_factory=list)
    queries: List[Timing] = field(default_factory=list)
    checkpoints: List[Timing] = field(default_factory=list)
    restarts: List[Timing] = field(default_factory=list)
    checkpoint_infos: list = field(default_factory=list)
    loads: List[float] = field(default_factory=list)
    replayed: List[int] = field(default_factory=list)
    batch_stats: list = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    wal_bytes: int = 0
    requests_journaled: int = 0
    #: ``(snapshot bytes, view entries)`` at the end of each episode.
    stores: List[Tuple[int, int]] = field(default_factory=list)
    view_entries: int = 0
    ground_instances: int = 0
    queried_entries: int = 0
    answer_tuples: int = 0
    auto_checkpoints: int = 0
    #: Intern-table hits and misses over the cycles (set-ups excluded).
    intern: Dict[str, int] = field(default_factory=dict)
    intern_table_size: int = 0
    peak_rss_mb: float = 0.0

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def scaled(self, timing: Timing) -> float:
        """*timing* in seconds at the reference speed."""
        low = max(0, timing.probe - PROBE_WINDOW)
        nearby = self.probes[low : timing.probe + PROBE_WINDOW + 1]
        return timing.seconds * PROBE_REFERENCE_S / median(nearby)


class Run:
    """One run of one workload; ``tracer`` is set only for the traced run."""

    def __init__(self, workload, seconds: int, scratch: Path, tracer: Optional[Tracer]):
        self.workload = workload
        self.scratch = scratch
        self.tracer = tracer
        self.record = RunRecord()
        self.last_answer: Dict[str, frozenset] = {}
        per_episode = max(
            4, round(seconds * workload.cycles_per_second / workload.episodes)
        )
        self.record.cycles = per_episode * workload.episodes

    def probe(self) -> int:
        self.record.probes.append(probe())
        return len(self.record.probes) - 1

    # -- timed operations ------------------------------------------------
    def setup(self, data_dir: Path):
        """Empty directory -> ready durable scheduler with a first snapshot.

        Sets up ``workload.setups`` times, each from an empty directory, and
        keeps the last scheduler; the others are dropped with their data.
        """
        for attempt in range(self.workload.setups):
            last = attempt == self.workload.setups - 1
            target = data_dir if last else data_dir.with_name(f"{data_dir.name}-{attempt}")
            gc.collect()
            index = self.probe()
            started = perf_counter()
            scheduler = self.workload.open(target)
            scheduler.checkpoint()
            self.record.setups.append(Timing(perf_counter() - started, index))
            if not last:
                del scheduler
                shutil.rmtree(target)
        return scheduler

    def update(self, scheduler, batch, cycle: int, traced: bool) -> None:
        record = self.record
        record.attempted += 1
        wal = scheduler.durability.wal
        wal_before = wal.size_bytes()
        checkpoints_before = scheduler.durability.stats.checkpoints
        ok = False
        result = None
        index = self.probe()
        started = perf_counter()
        try:
            if traced:
                result = self._traced_flush(scheduler, batch)
            else:
                batch.submit(scheduler)
                result = scheduler.flush()
            ok = result.ok
        except Exception:  # a failed operation is counted, never fatal
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - started
        record.updates.append(Timing(elapsed, index, cycle, batch.shape, batch.requests))
        if not ok:
            record.fail("update")
        if result is not None:
            record.batch_stats.append(result.stats)
        # An automatic checkpoint inside the flush prunes WAL segments,
        # which would make the size delta meaningless: skip that batch.
        if scheduler.durability.stats.checkpoints == checkpoints_before:
            record.wal_bytes += wal.size_bytes() - wal_before
            record.requests_journaled += batch.requests

    def _traced_flush(self, scheduler, batch):
        """``submit`` + ``flush`` with the flush's three stages spanned."""
        tracer = self.tracer
        tracer.begin_operation("update")
        root = tracer.open("stream.update")
        try:
            batch.submit(scheduler)
            transactions = tracer.call("persist.drain", scheduler.drain)
            prepared = tracer.call("stream.prepare", scheduler.prepare_batch, transactions)
            return tracer.call("maintenance.apply", scheduler.apply_prepared, prepared)
        finally:
            tracer.close(root)

    def read(self, scheduler, cycle: Optional[int], kind: str = "query") -> None:
        """One read of the published view, checked against the oracle."""
        record = self.record
        record.attempted += 1
        answer = None
        index = self.probe()
        started = perf_counter()
        try:
            if self.tracer is not None and self.tracer.active:
                self.tracer.begin_operation(kind)
                answer = self.tracer.call("datalog.query", self.workload.read, scheduler)
            else:
                answer = self.workload.read(scheduler)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - started
        if cycle is not None:
            record.queries.append(Timing(elapsed, index, cycle))
        if answer != self.workload.expected():
            record.fail(kind)
        if answer is not None:
            self.last_answer = answer

    def checkpoint(self, scheduler) -> None:
        index = self.probe()
        started = perf_counter()
        info = self._call("checkpoint", "persist.checkpoint", scheduler.checkpoint)
        self.record.checkpoints.append(Timing(perf_counter() - started, index))
        self.record.checkpoint_infos.append(info)

    def restart(self, live_dir: Path, episode: int) -> None:
        """Reopen untimed copies of the live data directory, one by one."""
        copies = [
            self.scratch / f"restart-{episode}-{n}" for n in range(self.workload.reopens)
        ]
        for copy in copies:
            shutil.copytree(live_dir, copy)
        for copy in copies:
            self._reopen(copy)

    def _reopen(self, copy: Path) -> None:
        if self.tracer is not None:
            started = perf_counter()
            SnapshotStore(copy).load_current()
            self.record.loads.append(perf_counter() - started)
        reopened = None
        index = self.probe()
        started = perf_counter()
        try:
            reopened = self._call("restart", "persist.restart", self.workload.open, copy)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        self.record.restarts.append(Timing(perf_counter() - started, index))
        if reopened is None:
            self.record.attempted += 1
            self.record.fail("restart")
        else:
            self.record.replayed.append(getattr(reopened, "_replayed_batches", 0))
            self.read(reopened, None, kind="restart")
        del reopened
        shutil.rmtree(copy)

    def _call(self, kind: str, name: str, function, *args):
        """A checkpoint or restart, spanned as its own operation when traced."""
        tracer = self.tracer
        if tracer is None:
            return function(*args)
        tracer.begin_operation(kind)
        tracer.active = True
        try:
            return tracer.call(name, function, *args)
        finally:
            tracer.active = False

    # -- the closed loop -------------------------------------------------
    def play(self) -> RunRecord:
        workload, record = self.workload, self.record
        per_episode = record.cycles // workload.episodes
        checkpoint_at = list(range(1, per_episode, workload.checkpoint_every))
        restart_at = checkpoint_at[(len(checkpoint_at) - 1) // 2] + TAIL_CYCLES
        cycle = 0
        for episode in range(workload.episodes):
            live_dir = self.scratch / f"episode-{episode}"
            workload.reset()
            scheduler = self.setup(live_dir)
            detach = workload.attach(scheduler)
            checkpoints_before = scheduler.durability.stats.checkpoints
            intern_before = intern_stats()
            for step in range(per_episode):
                # Reopen before a checkpoint due at the same step, so the
                # WAL tail is exactly TAIL_CYCLES cycles.
                if step == restart_at:
                    self.restart(live_dir, episode)
                if step in checkpoint_at:
                    self.checkpoint(scheduler)
                self.play_cycle(scheduler, cycle)
                cycle += 1
            intern_after = intern_stats()
            for key in ("hits", "misses"):
                record.intern[key] = (
                    record.intern.get(key, 0) + intern_after[key] - intern_before[key]
                )
            record.auto_checkpoints += (
                scheduler.durability.stats.checkpoints
                - checkpoints_before
                - len(checkpoint_at)
            )
            self._store_size(scheduler, live_dir)
            if episode == workload.episodes - 1:
                self._final_state(scheduler)
            detach()
            del scheduler
            shutil.rmtree(live_dir)
        record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return record

    def play_cycle(self, scheduler, cycle: int) -> None:
        """One cycle: the workload's update batches, then one read."""
        tracer = self.tracer
        # The traced run traces every other cycle; the untraced ones give
        # the overhead baseline within the same process.
        traced = tracer is not None and cycle % 2 == 0
        if tracer is not None:
            tracer.active = traced
        for batch in self.workload.cycle():
            self.update(scheduler, batch, cycle, traced)
        self.read(scheduler, cycle)
        if tracer is not None:
            tracer.active = False

    def _store_size(self, scheduler, live_dir: Path) -> None:
        """Bytes of a fresh snapshot of the episode's final view (untimed)."""
        scheduler.checkpoint()
        manifest_name = (live_dir / "CURRENT").read_text().strip()
        manifest_path = live_dir / "snapshots" / manifest_name
        manifest = json.loads(manifest_path.read_text())
        size = manifest_path.stat().st_size + sum(
            (live_dir / "shards" / shard["file"]).stat().st_size
            for shard in manifest["shards"].values()
        )
        self.record.stores.append((size, len(scheduler.view)))

    def _final_state(self, scheduler) -> None:
        """Size of the last episode's final view (untimed)."""
        record = self.record
        gc.collect()
        record.intern_table_size = intern_stats()["size"]
        view = scheduler.view
        record.view_entries = len(view)
        universe = self.workload.universe
        record.ground_instances = sum(
            len(scheduler.query(predicate, universe)) for predicate in view.predicates()
        )
        record.queried_entries = sum(
            len(view.entries_for(predicate)) for predicate in self.workload.read_predicates
        )
        record.answer_tuples = sum(len(answer) for answer in self.last_answer.values())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(workload, record: RunRecord) -> Tuple[Dict[str, tuple], List[str]]:
    """The end-to-end metrics, plus notes on sample counts for the log."""
    scaled = record.scaled
    timed = [t for t in record.updates if t.shape == workload.timed_shape]
    update_tail, update_pct = tail([scaled(t) for t in timed])
    query_tail, query_pct = tail([scaled(t) for t in record.queries])
    metrics = {
        "setup_s": (median(map(scaled, record.setups)), "s"),
        "update_p50_ms": (median(map(scaled, timed)) * 1e3, "ms"),
        "update_tail_ms": (update_tail * 1e3, "ms"),
        "requests_per_s": (_request_rate(record), "1/s"),
        "query_p50_ms": (median(map(scaled, record.queries)) * 1e3, "ms"),
        "query_tail_ms": (query_tail * 1e3, "ms"),
        "checkpoint_s": (median(map(scaled, record.checkpoints)), "s"),
        "restart_s": (median(map(scaled, record.restarts)), "s"),
        "store_bytes_per_entry": (
            median(size / entries for size, entries in record.stores),
            "B",
        ),
        "wal_bytes_per_request": (record.wal_bytes / record.requests_journaled, "B"),
        "peak_rss_mb": (record.peak_rss_mb, "MB"),
    }

    def raw(timings) -> float:
        return median(t.seconds for t in timings) * 1e3

    notes = [
        f"update percentiles over {len(timed)} '{workload.timed_shape}' batches "
        f"(of {len(record.updates)}); tail = p{update_pct:.1f}",
        f"query percentiles over {len(record.queries)} reads; tail = p{query_pct:.1f}",
        f"setup x{len(record.setups)}, checkpoint x{len(record.checkpoints)}, "
        f"restart x{len(record.restarts)} (medians)",
        f"speed probe median {median(record.probes) * 1e3:.3f} ms "
        f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms); raw wall-clock medians: "
        f"update {raw(timed):.3f} ms, query {raw(record.queries):.3f} ms, "
        f"setup {raw(record.setups):.3f} ms, checkpoint {raw(record.checkpoints):.3f} ms, "
        f"restart {raw(record.restarts):.3f} ms",
    ]
    return metrics, notes


def per_layer(workload, record: RunRecord, tracer: Tracer) -> Dict[str, tuple]:
    """The per-layer metrics of the traced run (raw wall clock)."""
    stats = record.batch_stats
    batches = max(1, len(stats))
    totals = [batch.totals() for batch in stats]

    def per_batch(attribute: str) -> float:
        return sum(getattr(total, attribute) for total in totals) / batches

    unit_ms = median(sum(unit.seconds for unit in batch.units) * 1e3 for batch in stats)
    materialize_s = median(
        _timed(lambda: compute_tp_fixpoint(workload.program, workload.solver()))
        for _ in range(3)
    )
    analyze_ms = median(_timed(workload.analyze) * 1e3 for _ in range(5))
    coalesce = [batch.coalesce for batch in stats]
    submitted = sum(report.submitted for report in coalesce)
    dropped = sum(
        report.deduplicated + report.cancelled + report.narrowed + report.subsumed
        for report in coalesce
    )
    useful = sum(
        total.removed_entries + total.replaced_entries + total.rederived_entries
        for total in totals
    )
    attempts = sum(total.derivation_attempts for total in totals)
    hits, misses = record.intern["hits"], record.intern["misses"]
    infos = [info for info in record.checkpoint_infos if info is not None]
    written = sum(info.shards_written for info in infos)
    reused = sum(info.shards_reused for info in infos)
    traced_queries = max(1, tracer.operations.count("query"))

    def calls_per_query(name: str) -> float:
        return len(tracer.durations(name, "query")) / traced_queries

    traced_cycles = max(1, len({t.cycle for t in record.queries if t.cycle % 2 == 0}))
    self_seconds = tracer.self_seconds_by_layer(("update", "query"))
    metrics = {
        "analysis.analyze_ms": (analyze_ms, "ms"),
        "datalog.materialize_s": (materialize_s, "s"),
        "datalog.view_entries": (record.view_entries, "count"),
        "datalog.entries_per_instance": (
            record.view_entries / max(1, record.ground_instances),
            "ratio",
        ),
        "datalog.entries_per_result": (
            record.queried_entries / max(1, record.answer_tuples),
            "ratio",
        ),
        "stream.prepare_ms": (median(tracer.durations("stream.prepare")) * 1e3, "ms"),
        "stream.coalesce_drop_ratio": (dropped / max(1, submitted), "ratio"),
        "stream.coalesce_solver_calls": (
            sum(report.solver_calls for report in coalesce) / batches,
            "count",
        ),
        "stream.shard_checkouts": (
            sum(batch.shard_checkouts for batch in stats) / batches,
            "count",
        ),
        "maintenance.apply_ms": (median(tracer.durations("maintenance.apply")) * 1e3, "ms"),
        "maintenance.unit_ms": (unit_ms, "ms"),
        "maintenance.derivation_attempts": (per_batch("derivation_attempts"), "count"),
        "maintenance.solver_calls": (per_batch("solver_calls"), "count"),
        "maintenance.index_probes": (per_batch("index_probes"), "count"),
        "maintenance.quick_rejects": (per_batch("quick_rejects"), "count"),
        "maintenance.support_probes": (per_batch("support_probes"), "count"),
        "maintenance.useful_ratio": (useful / max(1, attempts), "ratio"),
        "maintenance.recompute_ratio": (unit_ms / 1e3 / materialize_s, "ratio"),
        "constraints.intern_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "constraints.intern_table_size": (record.intern_table_size, "count"),
        "constraints.sat_calls_per_query": (
            calls_per_query("constraints.is_satisfiable"),
            "count",
        ),
        "constraints.ground_evals_per_query": (
            calls_per_query("constraints.evaluate_ground"),
            "count",
        ),
        "domains.calls_per_query": (calls_per_query("domains.call"), "count"),
        "domains.call_ms_per_query": (
            sum(tracer.durations("domains.call", "query")) * 1e3 / traced_queries,
            "ms",
        ),
        "persist.journal_ms": (median(tracer.durations("persist.drain")) * 1e3, "ms"),
        "persist.checkpoint_bytes": (
            sum(info.bytes_written for info in infos) / max(1, len(infos)),
            "B",
        ),
        "persist.shards_reused_ratio": (reused / max(1, written + reused), "ratio"),
        "persist.auto_checkpoints": (record.auto_checkpoints, "count"),
        "persist.load_s": (median(record.loads), "s"),
        "persist.replay_batches": (median(record.replayed), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_cycle"] = (
            self_seconds.get(layer, 0.0) * 1e3 / traced_cycles,
            "ms",
        )
    metrics["perfbench.trace_overhead_ratio"] = (_overhead(record), "ratio")
    return metrics


#: Layers the traced run spans, by module under ``src/repro/``.
LAYERS = ("stream", "persist", "maintenance", "datalog", "constraints", "domains")


def _request_rate(record: RunRecord) -> float:
    """Median over cycles of requests per second inside the cycle's update
    operations (reference speed).

    One rate over the whole run is a mean, which a few stalled flushes
    (fsync, full collections) moved by 20-34% between runs of five seeds.
    """
    cycles: Dict[int, List[float]] = {}
    for timing in record.updates:
        cycle = cycles.setdefault(timing.cycle, [0, 0.0])
        cycle[0] += timing.requests
        cycle[1] += record.scaled(timing)
    return median(requests / seconds for requests, seconds in cycles.values())


def _timed(function) -> float:
    started = perf_counter()
    function()
    return perf_counter() - started


def _overhead(record: RunRecord) -> float:
    """Median traced cycle time over median untraced cycle time."""
    per_cycle: Dict[int, float] = {}
    for timing in record.updates + record.queries:
        per_cycle[timing.cycle] = per_cycle.get(timing.cycle, 0.0) + record.scaled(timing)
    traced = [seconds for cycle, seconds in per_cycle.items() if cycle % 2 == 0]
    untraced = [seconds for cycle, seconds in per_cycle.items() if cycle % 2 == 1]
    return median(traced) / median(untraced)


def install_wrappers(tracer: Tracer) -> None:
    """Span the public methods the traced run looks inside."""
    tracer.wrap(Domain, "call", "domains.call")
    tracer.wrap(ConstraintSolver, "is_satisfiable", "constraints.is_satisfiable")
    tracer.wrap(ConstraintSolver, "evaluate_ground", "constraints.evaluate_ground")
    tracer.wrap(WriteAheadLog, "append", "persist.wal_append")
    tracer.wrap(SnapshotStore, "write_checkpoint", "persist.write_checkpoint")
    tracer.wrap(SnapshotStore, "load_current", "persist.load_current")

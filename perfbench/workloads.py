"""The three benchmark workloads: generated inputs, update cycles, oracles.

Each workload owns one random generator seeded from ``--seed``; the program
under test only ever receives the requests and rules generated here.  Every
answer the program gives is compared with an oracle that shares no code
with the maintenance engine:

* ``tc_churn`` -- plain-Python reachability over the live edge set;
* ``interval_batches`` -- integer set arithmetic over the generated
  intervals, deleted points and ``g_i`` facts;
* ``mediator_reads`` -- the scenario's ``expected_suspects()`` ground truth
  with the current ``empl_abc`` rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
from typing import Callable, Dict, List, Set, Tuple

from repro.analysis import analyze_program
from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.mediator.mediator import Mediator
from repro.persist import open_scheduler
from repro.stream import StreamOptions, attach_changelog
from repro.workloads import (
    LAW_ENFORCEMENT_RULES,
    make_interval_join_program,
    make_law_enforcement_scenario,
    make_random_graph_edges,
    make_transitive_closure_program,
)


@dataclasses.dataclass
class Batch:
    """One update operation: ``submit`` logs its requests, then one flush."""

    shape: str
    requests: int
    submit: Callable[[object], None]


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics.

    ``cycles_per_second`` turns ``--seconds`` into a fixed cycle count, so a
    run does the same work on any machine (costs depend on history: the
    views and snapshots grow as the stream goes on).  The cycles are split
    into ``episodes``, each starting from a fresh set-up; an episode forces
    a checkpoint every ``checkpoint_every`` cycles and reopens ``reopens``
    copies of its data directory.  These counts are set per workload from
    how much each measurement costs and how much it spread between runs.
    """

    name = ""
    deletion_algorithm = "stdel"
    cycles_per_second: float
    episodes: int
    #: Set-ups timed per episode, each from an empty directory.
    setups = 1
    checkpoint_every: int
    reopens: int
    #: Update shape the latency percentiles are taken over (one shape per
    #: percentile: pooling two cost modes makes the median jump).
    timed_shape = ""
    #: Predicates one read queries, and the universe the read grounds over.
    read_predicates: Tuple[str, ...] = ()
    universe = None

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        # Transaction timestamps land in the WAL; a counter instead of the
        # wall clock keeps the WAL bytes identical between runs of a seed.
        ticks = itertools.count(1_700_000_000)
        self.clock = lambda: float(next(ticks))

    def stream_options(self) -> StreamOptions:
        # Pinned: the default worker count follows REPRO_STREAM_MAX_WORKERS.
        return StreamOptions(max_workers=1, deletion_algorithm=self.deletion_algorithm)

    # -- program lifecycle --------------------------------------------
    def open(self, data_dir):
        """Open (or recover) a durable scheduler over *data_dir*."""
        return open_scheduler(
            data_dir, self.program, options=self.stream_options(), clock=self.clock
        )

    def reset(self) -> None:
        """Start an episode: return the oracle to the program's initial
        state (or, where a workload draws one per episode, a new program)."""

    def attach(self, scheduler) -> Callable[[], None]:
        """Hook the live scheduler to the workload's external sources;
        returns the callable that unhooks it."""
        return lambda: None

    def analyze(self):
        return analyze_program(self.program)

    def solver(self) -> ConstraintSolver:
        return ConstraintSolver()

    # -- the stream ------------------------------------------------------
    def cycle(self) -> List[Batch]:
        raise NotImplementedError

    def read(self, scheduler) -> Dict[str, frozenset]:
        return {
            predicate: scheduler.query(predicate, self.universe)
            for predicate in self.read_predicates
        }

    def expected(self) -> Dict[str, frozenset]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# tc_churn
# ----------------------------------------------------------------------

#: Target view size: the T_P view keeps one entry per derivation, so a
#: random 80-node, 240-edge DAG ranges from ~2k to ~8k entries by seed.
#: Graphs are drawn until the size lands within 3% of this target, so the
#: seed changes the graph and the churn but not the work per cycle.
TC_TARGET_ENTRIES = 3234
TC_TOLERANCE = 0.03
TC_NODES = 80
TC_EDGES = 240
#: Edges held out at once before the oldest is reinserted.
TC_HELD_OUT = 5
#: Golden-ratio step of the low-discrepancy sequence that picks which edge
#: a cycle deletes (see :meth:`TcChurn.cycle`).
GOLDEN = 0.6180339887498949
#: The targets span this range of per-edge view entries (every seeded
#: graph has edges all through it; above it the graphs differ).
TC_WEIGHT_RANGE = (2.0, 150.0)


def derivation_count(edges) -> int:
    """Entries of the T_P view: one per edge plus one per directed walk."""
    successors: Dict[str, List[str]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    walks: Dict[str, int] = {}

    def walks_from(node: str) -> int:
        if node not in walks:
            walks[node] = sum(1 + walks_from(nxt) for nxt in successors.get(node, ()))
        return walks[node]

    nodes = {node for edge in edges for node in edge}
    return len(edges) + sum(walks_from(node) for node in nodes)


def walks_through(edges) -> Dict[Tuple[str, str], int]:
    """Per edge, how many directed walks (view entries) use it."""
    successors: Dict[str, List[str]] = {}
    predecessors: Dict[str, List[str]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
        predecessors.setdefault(target, []).append(source)
    out: Dict[str, int] = {}
    into: Dict[str, int] = {}

    def walks_from(node: str) -> int:
        if node not in out:
            out[node] = sum(1 + walks_from(nxt) for nxt in successors.get(node, ()))
        return out[node]

    def walks_to(node: str) -> int:
        if node not in into:
            into[node] = sum(1 + walks_to(prev) for prev in predecessors.get(node, ()))
        return into[node]

    return {
        (source, target): (1 + walks_to(source)) * (1 + walks_from(target))
        for source, target in edges
    }


def reachable_pairs(edges) -> frozenset:
    """The transitive closure of *edges*, by depth-first search."""
    successors: Dict[str, Set[str]] = {}
    for source, target in edges:
        successors.setdefault(source, set()).add(target)
    pairs = set()
    for start in successors:
        seen: Set[str] = set()
        stack = [start]
        while stack:
            for nxt in successors.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        pairs.update((start, node) for node in seen)
    return frozenset(pairs)


def edge_atom(edge):
    return parse_constrained_atom(f"edge(X, Y) <- X = '{edge[0]}' & Y = '{edge[1]}'")


class TcChurn(Workload):
    """Recursive transitive closure under StDel: delete and reinsert edges."""

    name = "tc_churn"
    deletion_algorithm = "stdel"
    cycles_per_second = 1.0
    episodes = 3
    checkpoint_every = 2
    reopens = 3
    timed_shape = "delete"
    read_predicates = ("path",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        while True:
            edges = make_random_graph_edges(
                TC_NODES, TC_EDGES, self.rng.randrange(1 << 30)
            )
            size = derivation_count(edges)
            if abs(size - TC_TARGET_ENTRIES) <= TC_TOLERANCE * TC_TARGET_ENTRIES:
                break
        self.program = make_transitive_closure_program(edges).program
        self.edges = edges

    def reset(self) -> None:
        self.live: List[Tuple[str, str]] = list(self.edges)
        self.held_out: List[Tuple[str, str]] = []
        self.reinserted: List[Tuple[str, str]] = []
        self.step = 0

    def cycle(self) -> List[Batch]:
        """Delete one live edge; reinsert the oldest once five are out.

        Which edge: step ``k`` aims at ``low * (high / low) ** frac(k *
        golden ratio)`` view entries removed and takes the live edge whose
        count of dependent entries is closest on a log scale.  Every
        seed's churn then covers the same mix of cheap and costly
        deletions, so the seed changes the graph but not the cost mix.
        Every other step picks only among edges reinserted earlier (a
        flapping link) when there are any: deleting a reinserted edge again
        is what exposes the StDel reinsertion defect (see the README), so
        the stream does it on purpose rather than by chance.
        """
        self.step += 1
        flapping = [edge for edge in self.reinserted if edge in self.live]
        pool = flapping if flapping and self.step % 2 == 0 else self.live
        weight = walks_through(self.live)
        low, high = TC_WEIGHT_RANGE
        target = math.log(low) + math.log(high / low) * ((self.step * GOLDEN) % 1.0)
        edge = min(pool, key=lambda edge: (abs(math.log(weight[edge]) - target), edge))
        self.live.remove(edge)
        self.held_out.append(edge)
        batches = [_single("delete", DeletionRequest(edge_atom(edge)))]
        if len(self.held_out) >= TC_HELD_OUT:
            back = self.held_out.pop(0)
            self.live.append(back)
            if back not in self.reinserted:
                self.reinserted.append(back)
            batches.append(_single("reinsert", InsertionRequest(edge_atom(back))))
        return batches

    def expected(self):
        return {"path": reachable_pairs(self.live)}


def _single(shape: str, request) -> Batch:
    return Batch(shape, 1, lambda scheduler: scheduler.submit(request))


# ----------------------------------------------------------------------
# interval_batches
# ----------------------------------------------------------------------

IV_PAIRS = 4
IV_UNIVERSE = range(0, 600)
_BOUNDS = re.compile(r"^X >= (-?\d+) & X <= (-?\d+)$")


class IntervalBatches(Workload):
    """Non-recursive interval joins under DRed, 14-request batches.

    Every episode draws its own program from the seeded generator, so one
    run averages over ``episodes`` programs: the snapshot bytes per entry
    and the update cost differ by up to 8% and 18% between programs that
    pass the size filter below.
    """

    name = "interval_batches"
    deletion_algorithm = "dred"
    cycles_per_second = 0.8
    episodes = 4
    checkpoint_every = 2
    reopens = 2
    timed_shape = "batch"
    read_predicates = ("top",) + tuple(f"pair{i}" for i in range(IV_PAIRS))
    universe = IV_UNIVERSE

    def reset(self) -> None:
        while True:
            spec = make_interval_join_program(
                ground_facts=150,
                intervals_per_predicate=12,
                pairs=IV_PAIRS,
                width=400,
                seed=self.rng.randrange(1 << 30),
            )
            intervals = _intervals(spec.program)
            if _typical(intervals, spec.base_facts["g0"]):
                break
        self.program = spec.program
        self.iv = [
            {point for low, high in spans for point in range(low, high + 1)}
            & set(IV_UNIVERSE)
            for spans in intervals
        ]
        self.g = [
            {value for (value,) in spec.base_facts[f"g{i}"]} for i in range(IV_PAIRS + 1)
        ]

    def _fresh_fact(self, taken: Set[Tuple[int, int]]) -> Tuple[int, int]:
        while True:
            index = self.rng.randrange(len(self.g))
            value = self.rng.choice(IV_UNIVERSE)
            if value not in self.g[index] and (index, value) not in taken:
                taken.add((index, value))
                return index, value

    def cycle(self) -> List[Batch]:
        requests = []
        taken: Set[Tuple[int, int]] = set()
        deleted = []
        for _ in range(4):
            index = self.rng.randrange(len(self.iv))
            point = self.rng.choice(sorted(self.iv[index]))
            self.iv[index].discard(point)
            deleted.append((index, point))
        for index, point in deleted:
            requests.append(DeletionRequest(_unary(f"iv{index}", point)))
        inserted = [self._fresh_fact(taken) for _ in range(4)]
        cancelled = [self._fresh_fact(taken) for _ in range(2)]
        for index, value in cancelled:
            requests.append(InsertionRequest(_unary(f"g{index}", value)))
        for index, value in inserted:
            requests.append(InsertionRequest(_unary(f"g{index}", value)))
            self.g[index].add(value)
        for index, value in cancelled:
            requests.append(DeletionRequest(_unary(f"g{index}", value)))
        # Verbatim duplicates of one deletion and one insertion.
        requests.append(DeletionRequest(_unary(f"iv{deleted[0][0]}", deleted[0][1])))
        requests.append(InsertionRequest(_unary(f"g{inserted[0][0]}", inserted[0][1])))

        def submit(scheduler) -> None:
            for request in requests:
                scheduler.submit(request)

        return [Batch("batch", len(requests), submit)]

    def expected(self):
        iv, g = self.iv, self.g
        answer = {"top": _ground((g[0] & iv[0]) & iv[0])}
        for i in range(IV_PAIRS):
            answer[f"pair{i}"] = _ground(iv[i] & iv[i + 1])
        return answer


#: Seeded programs vary a lot in how much the reads return, so programs are
#: drawn until three sizes land near the generator's medians (measured over
#: 200 seeds): the summed overlap width of the ``pair_i`` entries (what a
#: read enumerates), their number, and the number of ``top`` entries.
IV_TARGETS = ((3440, 0.04), (134, 0.08), (340, 0.15))


def _intervals(program) -> List[List[Tuple[int, int]]]:
    """The ``(low, high)`` bounds of each ``iv_i`` fact clause."""
    intervals: List[List[Tuple[int, int]]] = [[] for _ in range(IV_PAIRS + 1)]
    for clause in program.clauses:
        predicate = clause.head.predicate
        match = _BOUNDS.match(str(clause.constraint))
        if predicate.startswith("iv") and not clause.body and match:
            low, high = (int(group) for group in match.groups())
            intervals[int(predicate[2:])].append((low, high))
    return intervals


def _typical(intervals, g0_facts) -> bool:
    width = pairs = 0
    for left, right in zip(intervals, intervals[1:]):
        for a_low, a_high in left:
            for b_low, b_high in right:
                overlap = min(a_high, b_high) - max(a_low, b_low) + 1
                if overlap > 0:
                    pairs += 1
                    width += overlap
    top = sum(
        1
        for (value,) in g0_facts
        for low, high in intervals[0]
        if low <= value <= high
        for other_low, other_high in intervals[0]
        if other_low <= value <= other_high
    )
    return all(
        abs(size - target) <= tolerance * target
        for size, (target, tolerance) in zip((width, pairs, top), IV_TARGETS)
    )


def _unary(predicate: str, value: int):
    return parse_constrained_atom(f"{predicate}(X) <- X = {value}")


def _ground(values: Set[int]) -> frozenset:
    return frozenset((value,) for value in values)


# ----------------------------------------------------------------------
# mediator_reads
# ----------------------------------------------------------------------


#: Source changes per cycle, flushed together as one update.  The flush's
#: WAL append and fsync take about 0.6 ms, and the update tail follows the
#: disk's hiccups, which the speed probe cannot see.  With one change per
#: flush, five seeds spread the update tail by 39-56%; with five, one run in
#: five still had a tail 1.7 times the others'.  Twenty changes make the
#: fsync a smaller share of the update; the read still dominates each cycle.
MR_CHANGES_PER_CYCLE = 20


class MediatorReads(Workload):
    """The paper's Section 1 mediator: source changes, then a query."""

    name = "mediator_reads"
    cycles_per_second = 2.6
    episodes = 9
    #: A set-up takes about 15 ms, so each episode times five.
    setups = 5
    checkpoint_every = 2
    reopens = 2
    timed_shape = "source_changes"
    read_predicates = ("suspect",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scenario = make_law_enforcement_scenario(
            num_people=10, photo_count=6, seed=seed
        )
        scenario = self.scenario
        self.domains = (
            scenario.facextract,
            scenario.facedb,
            scenario.paradox,
            scenario.dbase,
            scenario.spatialdb,
        )
        self.employees = set(scenario.abc_employees)
        self.candidates = sorted(p for p in scenario.people if p != scenario.kingpin)
        self.table = scenario.dbase.database.table("empl_abc")
        self.program = scenario.mediator.program

    def open(self, data_dir):
        mediator = Mediator.open(
            data_dir,
            domains=self.domains,
            rules=LAW_ENFORCEMENT_RULES,
            stream_options=self.stream_options(),
        )
        return mediator.durable_scheduler

    def attach(self, scheduler) -> Callable[[], None]:
        return attach_changelog(
            scheduler.log, self.scenario.dbase.database.change_log, source="dbase"
        )

    def analyze(self):
        return analyze_program(self.program, self.scenario.mediator.registry)

    def solver(self) -> ConstraintSolver:
        return ConstraintSolver(self.scenario.mediator.registry)

    def cycle(self) -> List[Batch]:
        """Toggle random employees; each toggle is one logged change."""
        people = [self.rng.choice(self.candidates) for _ in range(MR_CHANGES_PER_CYCLE)]
        self.employees.symmetric_difference_update(
            {person for person in people if people.count(person) % 2}
        )

        def submit(scheduler) -> None:
            for person in people:
                if self.table.select_eq("name", person):
                    self.table.delete_eq("name", person)
                else:
                    self.table.insert((person, "analyst"))

        return [Batch("source_changes", MR_CHANGES_PER_CYCLE, submit)]

    def expected(self):
        current = dataclasses.replace(
            self.scenario, abc_employees=tuple(sorted(self.employees))
        )
        return {"suspect": frozenset(current.expected_suspects())}


WORKLOADS = {
    workload.name: workload for workload in (TcChurn, IntervalBatches, MediatorReads)
}

"""Unit tests for the workload generators."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint
from repro.errors import WorkloadError
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.workloads import (
    deletion_stream,
    ground_request_atom,
    insertion_stream,
    make_chain_program,
    make_cycle_graph_edges,
    make_interval_program,
    make_law_enforcement_scenario,
    make_layered_program,
    make_path_graph_edges,
    make_random_graph_edges,
    make_transitive_closure_program,
    mixed_stream,
)


@pytest.fixture
def solver():
    return ConstraintSolver()


class TestSyntheticPrograms:
    def test_layered_program_shape(self, solver):
        spec = make_layered_program(base_facts=4, layers=2, predicates_per_layer=2, fanin=2)
        assert len(spec.base_predicates) == 2
        assert len(spec.top_predicates) == 2
        view = compute_tp_fixpoint(spec.program, solver)
        for predicate in spec.base_predicates:
            assert len(view.instances_for(predicate, solver)) == 4

    def test_layered_program_is_deterministic(self):
        first = make_layered_program(seed=3)
        second = make_layered_program(seed=3)
        assert str(first.program) == str(second.program)

    def test_layered_views_are_duplicate_free(self, solver):
        spec = make_layered_program(base_facts=3, layers=1, predicates_per_layer=1, fanin=1)
        view = compute_tp_fixpoint(spec.program, solver)
        assert view.is_duplicate_free(solver)

    def test_layered_program_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            make_layered_program(base_facts=0)

    def test_chain_program(self, solver):
        spec = make_chain_program(base_facts=3, depth=4)
        view = compute_tp_fixpoint(spec.program, solver)
        assert view.instances_for("p4", solver) == {(0,), (1,), (2,)}

    def test_transitive_closure_on_path(self, solver):
        spec = make_transitive_closure_program(make_path_graph_edges(3))
        view = compute_tp_fixpoint(spec.program, solver)
        paths = view.instances_for("path", solver)
        assert ("n0", "n3") in paths and len(paths) == 6

    def test_cycle_edges(self):
        edges = make_cycle_graph_edges(3)
        assert ("n2", "n0") in edges

    def test_random_graph_acyclic(self):
        edges = make_random_graph_edges(6, 8, seed=1, acyclic=True)
        assert all(int(a[1:]) < int(b[1:]) for a, b in edges)

    def test_interval_program(self, solver):
        spec = make_interval_program(predicates=3, intervals_per_predicate=2, width=10, seed=1)
        view = compute_tp_fixpoint(spec.program, solver)
        assert view.entries_for("top")
        # Interval programs intentionally create overlapping (duplicate) entries.
        assert not view.is_duplicate_free(solver)

    def test_invalid_graph_parameters(self):
        with pytest.raises(WorkloadError):
            make_cycle_graph_edges(1)
        with pytest.raises(WorkloadError):
            make_transitive_closure_program(())


class TestUpdateStreams:
    def test_ground_request_atom(self):
        atom = ground_request_atom("p", ("a", 2))
        assert atom.bound_tuple() == ("a", 2)
        assert atom.predicate == "p"

    def test_deletion_stream_targets_existing_base_facts(self):
        spec = make_layered_program(base_facts=5)
        requests = deletion_stream(spec, 3, seed=1)
        assert len(requests) == 3
        for request in requests:
            assert isinstance(request, DeletionRequest)
            predicate = request.atom.predicate
            assert request.atom.bound_tuple() in spec.base_facts[predicate]

    def test_deletion_stream_is_deterministic_and_bounded(self):
        spec = make_layered_program(base_facts=4)
        assert deletion_stream(spec, 2, seed=5) == deletion_stream(spec, 2, seed=5)
        with pytest.raises(WorkloadError):
            deletion_stream(spec, 1000, seed=0)

    def test_insertion_stream_creates_fresh_facts(self):
        spec = make_layered_program(base_facts=4)
        requests = insertion_stream(spec, 3, seed=2)
        assert len(requests) == 3
        for request in requests:
            assert isinstance(request, InsertionRequest)
            assert request.atom.bound_tuple() not in spec.base_facts[request.atom.predicate]

    def test_mixed_stream(self):
        spec = make_layered_program(base_facts=5)
        stream = mixed_stream(spec, deletions=2, insertions=3, seed=0)
        assert len(stream.requests) == 5
        assert len(stream.deletions()) == 2
        assert len(stream.insertions()) == 3

    def test_unknown_predicate_filter(self):
        spec = make_layered_program(base_facts=4)
        with pytest.raises(WorkloadError):
            insertion_stream(spec, 1, predicate="nope")


class TestLawEnforcementScenario:
    def test_scenario_is_deterministic(self):
        first = make_law_enforcement_scenario(num_people=8, seed=3)
        second = make_law_enforcement_scenario(num_people=8, seed=3)
        assert first.expected_suspects() == second.expected_suspects()
        assert first.abc_employees == second.abc_employees

    def test_scenario_parameters_respected(self):
        scenario = make_law_enforcement_scenario(num_people=9, photo_count=5, seed=1)
        assert len(scenario.people) == 9
        assert scenario.kingpin in scenario.people
        assert len(scenario.face_scenario.appearances["surveillancedata"]) == 5

    def test_minimum_population(self):
        with pytest.raises(WorkloadError):
            make_law_enforcement_scenario(num_people=2)

    def test_mediated_view_matches_ground_truth(self):
        scenario = make_law_enforcement_scenario(num_people=9, photo_count=5, seed=11)
        view = scenario.mediator.materialize(operator="wp")
        assert set(view.query("suspect")) == set(scenario.expected_suspects())

    def test_kingpin_subset(self):
        scenario = make_law_enforcement_scenario(num_people=9, seed=2)
        assert set(scenario.expected_kingpin_suspects()) <= set(scenario.expected_suspects())


class CountingEvaluator:
    """Counts every ground call that reaches the mediator's registry."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.calls = Counter()

    def evaluate_call(self, domain, function, args):
        self.calls[(domain, function, tuple(args))] += 1
        return self.registry.evaluate_call(domain, function, args)

    def has_domain(self, domain):
        return self.registry.has_domain(domain)


class TestPerReadDomainCalls:
    """A read pays each distinct domain call once, and only for that read."""

    def scenario(self):
        return make_law_enforcement_scenario(num_people=10, photo_count=6, seed=4)

    def test_one_suspect_read_issues_each_distinct_call_once(self):
        scenario = self.scenario()
        view = scenario.mediator.materialize()
        counting = CountingEvaluator(scenario.mediator.registry)
        answers = view.view.instances_for("suspect", solver=ConstraintSolver(counting))
        assert answers == frozenset(scenario.expected_suspects())
        assert counting.calls, "the read must consult the sources"
        repeated = {call: n for call, n in counting.calls.items() if n > 1}
        assert repeated == {}

    def test_source_change_between_reads_reaches_the_next_read(self):
        scenario = self.scenario()
        view = scenario.mediator.materialize()
        solver = ConstraintSolver(scenario.mediator.registry)
        before = view.view.instances_for("suspect", solver=solver)
        assert before == frozenset(scenario.expected_suspects())
        _, fired = sorted(before)[0]
        table = scenario.dbase.database.table("empl_abc")
        assert table.delete_eq("name", fired) == 1
        after_firing = view.view.instances_for("suspect", solver=solver)
        assert after_firing == {pair for pair in before if pair[1] != fired}
        table.insert((fired, "analyst"))
        assert view.view.instances_for("suspect", solver=solver) == before


class TestStreamBatches:
    def test_batches_are_deterministic(self):
        from repro.workloads import make_layered_program, stream_batches

        spec = make_layered_program(base_facts=8, layers=2, seed=1)
        first = stream_batches(spec, 2, deletions=2, insertions=2, seed=5,
                               duplicates=1, cancellations=1)
        second = stream_batches(spec, 2, deletions=2, insertions=2, seed=5,
                                duplicates=1, cancellations=1)
        assert [[str(r) for r in b.requests] for b in first] == [
            [str(r) for r in b.requests] for b in second
        ]

    def test_deletions_are_distinct_across_batches(self):
        from repro.maintenance import DeletionRequest
        from repro.workloads import make_layered_program, stream_batches

        spec = make_layered_program(base_facts=8, layers=2, seed=1)
        batches = stream_batches(spec, 3, deletions=2, insertions=0, seed=4)
        deleted = [
            str(r.atom)
            for batch in batches
            for r in batch.requests
            if isinstance(r, DeletionRequest) and "5000" not in str(r.atom)
        ]
        assert len(deleted) == len(set(deleted)) == 6

    def test_cancellation_pair_orders_insert_before_delete(self):
        from repro.maintenance import DeletionRequest, InsertionRequest
        from repro.workloads import make_layered_program, stream_batches

        spec = make_layered_program(base_facts=6, layers=1, seed=2)
        for seed in range(5):
            batch = stream_batches(
                spec, 1, deletions=1, insertions=1, seed=seed, cancellations=1
            )[0]
            pair_atoms = [
                (index, type(r).__name__)
                for index, r in enumerate(batch.requests)
                if str(r.atom).startswith(("a", "b", "l")) and "50000" in str(r.atom)
            ]
            # The cancelling pair targets the 5_000_000+ value range: the
            # insertion must precede the deletion of the same atom.
            kinds = [kind for _, kind in sorted(pair_atoms)]
            assert kinds == ["InsertionRequest", "DeletionRequest"]

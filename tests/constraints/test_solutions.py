"""Unit tests for solution enumeration."""

from __future__ import annotations

import pytest

from repro.constraints import (
    ConstraintSolver,
    FALSE,
    TRUE,
    Variable,
    compare,
    conjoin,
    enumerate_solutions,
    equals,
    equivalent_on_universe,
    member,
    negate,
    not_equals,
    solution_set,
)
from repro.domains import Domain, DomainRegistry, make_arithmetic_domain
from repro.errors import EvaluationError, SolverError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def domain_solver():
    phone = Domain("phone")
    phone.register("names", lambda: {"ann", "bob", "cid"})
    phone.register("number_of", lambda name: {f"+1-{name}"} if name != "cid" else set())
    phone.register("has_number", lambda: {"ann", "bob"})
    return ConstraintSolver(DomainRegistry([phone, make_arithmetic_domain()]))


class TestBasicEnumeration:
    def test_equality_binding(self, solver):
        assert solution_set(equals(X, 3), [X]) == {(3,)}

    def test_equality_through_chain(self, solver):
        constraint = conjoin(equals(X, Y), equals(Y, "v"))
        assert solution_set(constraint, [X, Y]) == {("v", "v")}

    def test_bounded_interval(self, solver):
        constraint = conjoin(compare(X, ">=", 2), compare(X, "<=", 4))
        assert solution_set(constraint, [X]) == {(2,), (3,), (4,)}

    def test_strict_interval_bounds(self, solver):
        constraint = conjoin(compare(X, ">", 2), compare(X, "<", 5))
        assert solution_set(constraint, [X]) == {(3,), (4,)}

    def test_universe_fallback(self, solver):
        assert solution_set(compare(X, ">=", 8), [X], universe=range(0, 11)) == {
            (8,), (9,), (10,),
        }

    def test_no_universe_for_unbounded_raises(self, solver):
        with pytest.raises(SolverError):
            solution_set(compare(X, ">=", 8), [X])

    def test_false_has_no_solutions(self, solver):
        assert solution_set(FALSE, [X]) == frozenset()

    def test_true_uses_universe(self, solver):
        assert solution_set(TRUE, [X], universe=[1, 2]) == {(1,), (2,)}

    def test_disequality_filters(self, solver):
        constraint = conjoin(compare(X, ">=", 0), compare(X, "<=", 3), not_equals(X, 2))
        assert solution_set(constraint, [X]) == {(0,), (1,), (3,)}

    def test_multiple_variables_cross_product(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 1),
            compare(Y, ">=", 5), compare(Y, "<=", 6),
        )
        assert solution_set(constraint, [X, Y]) == {(0, 5), (0, 6), (1, 5), (1, 6)}

    def test_inter_variable_comparison(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 3),
            compare(Y, ">=", 0), compare(Y, "<=", 3),
            compare(X, "<", Y),
        )
        solutions = solution_set(constraint, [X, Y])
        assert all(x < y for x, y in solutions)
        assert (0, 1) in solutions and (2, 3) in solutions

    def test_duplicate_projections_deduplicated(self, solver):
        # Y ranges over two values but is projected away.
        constraint = conjoin(equals(X, 1), compare(Y, ">=", 0), compare(Y, "<=", 1))
        assert solution_set(constraint, [X]) == {(1,)}

    def test_enumerate_returns_dicts(self, solver):
        assignments = list(enumerate_solutions(equals(X, 2), [X]))
        assert assignments == [{X: 2}]


class TestNegationSemantics:
    def test_negation_removes_solutions(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 4), negate(equals(X, 2))
        )
        assert solution_set(constraint, [X]) == {(0,), (1,), (3,), (4,)}

    def test_negation_local_variables_are_universal(self, solver):
        # not(Z = 6 & Z = X): no value of Z may witness the inner conjunction.
        constraint = conjoin(
            compare(X, ">=", 5),
            compare(X, "<=", 8),
            negate(conjoin(equals(Z, 6), equals(Z, X))),
        )
        assert solution_set(constraint, [X]) == {(5,), (7,), (8,)}

    def test_negation_of_conjunction(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 1),
            compare(Y, ">=", 0), compare(Y, "<=", 1),
            negate(conjoin(equals(X, 1), equals(Y, 1))),
        )
        assert solution_set(constraint, [X, Y]) == {(0, 0), (0, 1), (1, 0)}


class TestMembershipEnumeration:
    def test_finite_membership_candidates(self, domain_solver):
        assert solution_set(member(X, "phone", "names"), [X], solver=domain_solver) == {
            ("ann",), ("bob",), ("cid",),
        }

    def test_chained_membership(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"), member(Y, "phone", "number_of", X)
        )
        assert solution_set(constraint, [X, Y], solver=domain_solver) == {
            ("ann", "+1-ann"), ("bob", "+1-bob"),
        }

    def test_membership_intersection(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"), member(X, "arith", "between", 0, 5)
        )
        assert solution_set(constraint, [X], solver=domain_solver) == frozenset()

    def test_arithmetic_between(self, domain_solver):
        constraint = member(X, "arith", "between", 2, 4)
        assert solution_set(constraint, [X], solver=domain_solver) == {(2,), (3,), (4,)}

    def test_negative_membership(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"),
            member(X, "phone", "has_number").negated(),
        )
        # Only 'cid' has no phone number.
        assert solution_set(constraint, [X], solver=domain_solver) == {("cid",)}


class TestPerEnumerationCallMemo:
    """Each ground call is evaluated once per enumeration, never across."""

    @staticmethod
    def counting_solver(function):
        calls = []
        source = Domain("src")

        def counted(*args):
            calls.append(args)
            return function(len(calls), *args)

        source.register("f", counted)
        return ConstraintSolver(DomainRegistry([source])), calls

    def test_one_call_per_distinct_arguments(self):
        solver, calls = self.counting_solver(lambda n, x: {x, x + 1})
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 2),
            member(Y, "src", "f", X), member(Y, "src", "f", X),
        )
        assert solution_set(constraint, [X, Y], solver=solver) == {
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
        }
        assert sorted(calls) == [(0,), (1,), (2,)]

    def test_memo_does_not_outlive_the_enumeration(self):
        # The source answers {n}: the n-th call it has ever served.
        solver, calls = self.counting_solver(lambda n: {n})
        constraint = member(X, "src", "f")
        assert solution_set(constraint, [X], solver=solver) == {(1,)}
        assert solution_set(constraint, [X], solver=solver) == {(2,)}
        assert len(calls) == 2

    def test_every_occurrence_sees_one_answer(self):
        # Candidates and the exact leaf check read the same call; a source
        # that drifts between them must not make the candidate vanish.
        solver, _ = self.counting_solver(lambda n: {n})
        assert solution_set(member(X, "src", "f"), [X], solver=solver) == {(1,)}

    def test_failures_are_not_cached(self):
        def flaky(n, x):
            if n == 1:
                raise RuntimeError("source down")
            return {x}

        solver, calls = self.counting_solver(flaky)
        constraint = conjoin(equals(X, 4), member(Y, "src", "f", X))
        with pytest.raises(EvaluationError):
            solution_set(constraint, [X, Y], solver=solver)
        assert solution_set(constraint, [X, Y], solver=solver) == {(4, 4)}
        assert len(calls) == 2


class TestEquivalenceOnUniverse:
    def test_equivalent(self, solver):
        left = conjoin(compare(X, ">=", 3), compare(X, "<=", 3))
        assert equivalent_on_universe(left, equals(X, 3), [X], range(0, 10), solver)

    def test_not_equivalent(self, solver):
        assert not equivalent_on_universe(
            compare(X, ">=", 3), equals(X, 3), [X], range(0, 10), solver
        )

    def test_max_solutions_guard(self, solver):
        with pytest.raises(SolverError):
            list(
                enumerate_solutions(
                    TRUE, [X, Y], solver=solver, universe=range(100), max_solutions=10
                )
            )

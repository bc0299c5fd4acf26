"""Property-based tests for the constraint solver and simplifier.

Strategy: generate random conjunctions (optionally with one negated
conjunction) over a small pool of variables and small integer constants, and
check the solver's answers against brute-force evaluation over a finite
universe.  Because the constraint language is interpreted over an unbounded
numeric domain while the brute force uses a finite slice, the checks are
directional where they must be:

* brute-force satisfiable on the slice  =>  solver must say satisfiable;
* solver says entailed                   =>  brute force must find no
  counterexample on the slice;
* simplification must preserve the solution set on the slice exactly.

A second family mixes in positive and negative memberships over a small
finite test domain and checks solution enumeration itself against an
exhaustive oracle that shares no code with the solver: every assignment of
the slice, evaluated literal by literal in plain Python.
"""

from __future__ import annotations

import itertools
import operator

from hypothesis import given, settings, strategies as st

from repro.constraints import (
    Comparison,
    Conjunction,
    Constant,
    ConstraintSolver,
    FalseConstraint,
    Membership,
    NegatedConjunction,
    TrueConstraint,
    Variable,
    canonical_form,
    compare,
    conjoin,
    member,
    negate,
    simplify,
    solution_set,
)
from repro.domains import Domain, DomainRegistry, IntensionalResultSet

VARIABLES = (Variable("X"), Variable("Y"), Variable("Z"))
UNIVERSE = tuple(range(0, 6))
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

solver = ConstraintSolver()


@st.composite
def comparisons(draw):
    left = draw(st.sampled_from(VARIABLES))
    operator = draw(st.sampled_from(OPERATORS))
    if draw(st.booleans()):
        right = draw(st.sampled_from(VARIABLES))
    else:
        right = draw(st.integers(min_value=0, max_value=5))
    return compare(left, operator, right)


@st.composite
def conjunctions(draw, max_size=4):
    parts = draw(st.lists(comparisons(), min_size=1, max_size=max_size))
    return conjoin(*parts)


@st.composite
def constraints_with_negation(draw):
    """A positive conjunction plus one negated conjunction.

    The inner conjuncts only use variables that also occur positively, so the
    library's quantification convention (variables occurring only inside a
    negation are quantified inside it) coincides with the brute-force
    evaluation over free variables.
    """
    positive = draw(conjunctions(max_size=3))
    used = sorted(positive.variables(), key=lambda v: v.name)
    if not used:
        return positive
    inner_parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        left = draw(st.sampled_from(used))
        operator = draw(st.sampled_from(OPERATORS))
        right_is_var = draw(st.booleans())
        right = draw(st.sampled_from(used)) if right_is_var else draw(
            st.integers(min_value=0, max_value=5)
        )
        inner_parts.append(compare(left, operator, right))
    return conjoin(positive, negate(conjoin(*inner_parts)))


def brute_force_solutions(constraint):
    return solution_set(constraint, list(VARIABLES), solver=solver, universe=UNIVERSE)


@settings(max_examples=120, deadline=None)
@given(conjunctions())
def test_brute_force_sat_implies_solver_sat(constraint):
    if brute_force_solutions(constraint):
        assert solver.is_satisfiable(constraint)


@settings(max_examples=120, deadline=None)
@given(conjunctions())
def test_solver_unsat_implies_no_finite_solutions(constraint):
    if not solver.is_satisfiable(constraint):
        assert not brute_force_solutions(constraint)


@settings(max_examples=100, deadline=None)
@given(constraints_with_negation())
def test_negated_constraints_sat_consistency(constraint):
    if brute_force_solutions(constraint):
        assert solver.is_satisfiable(constraint)


@settings(max_examples=100, deadline=None)
@given(conjunctions())
def test_simplify_preserves_solutions(constraint):
    simplified = simplify(constraint, solver)
    assert brute_force_solutions(simplified) == brute_force_solutions(constraint)


@settings(max_examples=80, deadline=None)
@given(constraints_with_negation())
def test_simplify_preserves_solutions_with_negations(constraint):
    simplified = simplify(constraint, solver)
    assert brute_force_solutions(simplified) == brute_force_solutions(constraint)


@settings(max_examples=80, deadline=None)
@given(conjunctions())
def test_simplify_with_redundancy_dropping_preserves_solutions(constraint):
    simplified = simplify(constraint, solver, drop_redundant_comparisons=True)
    assert brute_force_solutions(simplified) == brute_force_solutions(constraint)


@settings(max_examples=100, deadline=None)
@given(conjunctions(), comparisons())
def test_entailment_has_no_finite_counterexample(context, fact):
    if solver.entails(context, fact):
        context_solutions = brute_force_solutions(context)
        fact_solutions = brute_force_solutions(fact)
        assert context_solutions <= fact_solutions


@settings(max_examples=100, deadline=None)
@given(conjunctions())
def test_canonical_form_is_idempotent_and_solution_preserving(constraint):
    canonical = canonical_form(constraint)
    assert canonical_form(canonical) == canonical
    assert brute_force_solutions(canonical) == brute_force_solutions(constraint)


@settings(max_examples=60, deadline=None)
@given(conjunctions(), conjunctions())
def test_conjoin_is_intersection(left, right):
    combined = conjoin(left, right)
    assert brute_force_solutions(combined) == (
        brute_force_solutions(left) & brute_force_solutions(right)
    )


# ---------------------------------------------------------------------------
# Enumeration against an exhaustive oracle, with memberships
# ---------------------------------------------------------------------------

#: The test domain's functions, as plain Python: every finite result lies in
#: the slice, so enumeration and the exhaustive oracle range over the same
#: values.
FINITE_FUNCTIONS = {
    "evens": lambda: {0, 2, 4},
    "upto": lambda n: set(range(0, n + 1)),
    "succ": lambda n: {(n + 1) % 6},
    "pair": lambda m, n: {m, n},
    "nothing": lambda: set(),
}
#: Intensional (not enumerable) functions: membership only.
INTENSIONAL_FUNCTIONS = {"thirds": lambda value: value % 3 == 0}
ARITY = {"evens": 0, "upto": 1, "succ": 1, "pair": 2, "nothing": 0, "thirds": 0}

finite = Domain("fin")
for _name, _function in FINITE_FUNCTIONS.items():
    finite.register(_name, _function)
finite.register(
    "thirds",
    lambda: IntensionalResultSet(INTENSIONAL_FUNCTIONS["thirds"], description="thirds"),
)
domain_solver = ConstraintSolver(DomainRegistry([finite]))

COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _value(term, assignment):
    return term.value if isinstance(term, Constant) else assignment[term]


def holds(constraint, assignment):
    """Plain-Python truth of *constraint* under a total *assignment*."""
    if isinstance(constraint, TrueConstraint):
        return True
    if isinstance(constraint, FalseConstraint):
        return False
    if isinstance(constraint, Conjunction):
        return all(holds(part, assignment) for part in constraint.parts)
    if isinstance(constraint, NegatedConjunction):
        return not all(holds(part, assignment) for part in constraint.parts)
    if isinstance(constraint, Comparison):
        return COMPARE[constraint.op](
            _value(constraint.left, assignment), _value(constraint.right, assignment)
        )
    assert isinstance(constraint, Membership)
    element = _value(constraint.element, assignment)
    args = [_value(arg, assignment) for arg in constraint.call.args]
    name = constraint.call.function
    if name in INTENSIONAL_FUNCTIONS:
        member_ = INTENSIONAL_FUNCTIONS[name](element)
    else:
        member_ = element in FINITE_FUNCTIONS[name](*args)
    return member_ == constraint.positive


def exhaustive_solutions(constraint):
    return frozenset(
        values
        for values in itertools.product(UNIVERSE, repeat=len(VARIABLES))
        if holds(constraint, dict(zip(VARIABLES, values)))
    )


@st.composite
def memberships(draw, pool=VARIABLES):
    name = draw(st.sampled_from(sorted(ARITY)))
    args = [
        draw(st.sampled_from(pool)) if draw(st.booleans())
        else draw(st.integers(min_value=0, max_value=5))
        for _ in range(ARITY[name])
    ]
    literal = member(draw(st.sampled_from(pool)), "fin", name, *args)
    return literal if draw(st.integers(0, 3)) else literal.negated()


@st.composite
def literals(draw, pool=VARIABLES):
    if draw(st.booleans()):
        return draw(memberships(pool))
    left = draw(st.sampled_from(pool))
    right = draw(st.sampled_from(pool)) if draw(st.booleans()) else draw(
        st.integers(min_value=0, max_value=5)
    )
    return compare(left, draw(st.sampled_from(OPERATORS)), right)


@st.composite
def constraints_with_memberships(draw):
    """Comparisons and (negative) memberships, optionally with a negated
    conjunction over variables that also occur positively."""
    positive = conjoin(*draw(st.lists(literals(), min_size=1, max_size=5)))
    used = tuple(sorted(positive.variables(), key=lambda v: v.name))
    if not used or not draw(st.booleans()):
        return positive
    inner = draw(st.lists(literals(used), min_size=1, max_size=2))
    return conjoin(positive, negate(conjoin(*inner)))


@settings(max_examples=300, deadline=None)
@given(constraints_with_memberships())
def test_enumeration_matches_exhaustive_oracle(constraint):
    enumerated = solution_set(
        constraint, list(VARIABLES), solver=domain_solver, universe=UNIVERSE
    )
    assert enumerated == exhaustive_solutions(constraint)

"""Enumerating the solutions of a constraint.

The paper's semantics of a constrained atom ``A(X̄) <- φ`` is its set of
instances ``[A(X̄) <- φ] = {A(X̄)θ | θ is a solution of φ}``.  Tests, the
query layer and the examples need to *materialize* these instance sets (over
finite domains, or clipped to a caller-supplied universe when a constraint
like ``Y >= X`` has infinitely many solutions).

Enumeration is a backtracking search:

1. at every step the "cheapest" still-unassigned variable is picked -- one
   pinned by an equality first, then one whose finite DCA result set can be
   evaluated under the partial assignment (this is what makes chained domain
   calls such as the law-enforcement mediator's
   ``in(A, paradox:select_eq(...)) & in(P, spatialdb:locateaddress(A, ...))``
   enumerable), then one with a bounded integer interval, then one drawing
   from the caller-supplied universe;
2. candidate values are filtered eagerly against the conjuncts that the
   binding has just made fully ground (the conjuncts over the bound
   variable; every other ground conjunct was checked at a shallower depth);
3. complete assignments are checked with the solver's exact ground
   evaluator, so negated conjunctions and negative memberships are honoured.

Because negations and memberships only ever *remove* solutions, generating
candidates from the positive conjuncts alone is complete.

One enumeration evaluates each ground domain call at most once: the
solver's evaluator is wrapped in a memo that lives as long as the
enumeration, so every occurrence of a call within one read sees one answer,
and the next read asks the sources again.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.constraints.ast import (
    FLIPPED_OPERATOR,
    Comparison,
    Constraint,
    DomainCall,
    FalseConstraint,
    Membership,
    NegatedConjunction,
)
from repro.constraints.interfaces import CallEvaluator, ResultSetLike
from repro.constraints.solver import ConstraintSolver
from repro.constraints.terms import Constant, Term, Variable
from repro.errors import SolverError

#: Widest integer interval that is enumerated without an explicit universe.
DEFAULT_MAX_INTERVAL_WIDTH = 10_000

#: Default cap on the number of solutions produced by one enumeration.
DEFAULT_MAX_SOLUTIONS = 1_000_000


def enumerate_solutions(
    constraint: Constraint,
    variables: Sequence[Variable],
    solver: Optional[ConstraintSolver] = None,
    universe: Optional[Iterable[object]] = None,
    max_interval_width: int = DEFAULT_MAX_INTERVAL_WIDTH,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
) -> Iterator[Dict[Variable, object]]:
    """Yield assignments (dicts) of *variables* that satisfy *constraint*.

    Raises :class:`~repro.errors.SolverError` when a variable's candidate set
    cannot be determined and no *universe* was supplied, or when more than
    *max_solutions* assignments would be produced.
    """
    solver = solver or ConstraintSolver()
    if isinstance(constraint, FalseConstraint):
        return
    if solver.evaluator is not None:
        # A local of this generator: it dies with the enumeration.
        solver = solver.with_evaluator(_CallMemo(solver.evaluator))
    wanted = list(dict.fromkeys(variables))
    # Auxiliary constraint variables must be assigned too (they are
    # existentially quantified); include them in the search but project them
    # away from the yielded assignments.  Variables occurring *only* inside
    # negated conjunctions are excluded: the ground evaluator treats them as
    # quantified inside the negation (``not(ψ)`` holds iff ψ has no witness).
    positively_occurring: set = set()
    for part in constraint.conjuncts():
        if not isinstance(part, NegatedConjunction):
            positively_occurring.update(part.variables())
    auxiliary = sorted(
        positively_occurring - set(wanted), key=lambda v: v.name
    )
    search_vars = wanted + auxiliary
    universe_values = list(universe) if universe is not None else None

    produced = 0
    seen: set = set()
    plan = _Plan(constraint, solver, universe_values, max_interval_width)
    for assignment in _search(plan, search_vars, {}):
        projected = {var: assignment[var] for var in wanted}
        key = tuple(projected[var] for var in wanted)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        if produced > max_solutions:
            raise SolverError(
                f"solution enumeration exceeded {max_solutions} assignments"
            )
        yield projected


def solution_set(
    constraint: Constraint,
    variables: Sequence[Variable],
    solver: Optional[ConstraintSolver] = None,
    universe: Optional[Iterable[object]] = None,
    max_interval_width: int = DEFAULT_MAX_INTERVAL_WIDTH,
) -> FrozenSet[Tuple[object, ...]]:
    """Return the set of solution tuples, ordered like *variables*."""
    wanted = list(dict.fromkeys(variables))
    tuples = set()
    for assignment in enumerate_solutions(
        constraint,
        wanted,
        solver=solver,
        universe=universe,
        max_interval_width=max_interval_width,
    ):
        tuples.add(tuple(assignment[var] for var in wanted))
    return frozenset(tuples)


def equivalent_on_universe(
    left: Constraint,
    right: Constraint,
    variables: Sequence[Variable],
    universe: Iterable[object],
    solver: Optional[ConstraintSolver] = None,
) -> bool:
    """Check that two constraints admit the same solutions over *universe*.

    This is the semantic comparison used by the correctness tests: the paper's
    theorems state equality of instance sets ``[·]``, not syntactic equality.
    """
    universe_values = list(universe)
    left_solutions = solution_set(left, variables, solver=solver, universe=universe_values)
    right_solutions = solution_set(right, variables, solver=solver, universe=universe_values)
    return left_solutions == right_solutions


# ---------------------------------------------------------------------------
# Per-enumeration call memo
# ---------------------------------------------------------------------------


class _CallMemo:
    """One enumeration's memo over a :class:`CallEvaluator`.

    Each ground call ``domain:function(args)`` reaches the wrapped evaluator
    at most once; every later occurrence -- in candidate generation, in the
    partial checks and in the leaf's exact evaluation -- gets the same
    result set.  Failures are not cached: an exception propagates on every
    occurrence, exactly as it would without the memo.
    """

    __slots__ = ("_evaluator", "_results")

    def __init__(self, evaluator: CallEvaluator) -> None:
        self._evaluator = evaluator
        self._results: Dict[Tuple[str, str, Tuple[object, ...]], ResultSetLike] = {}

    def evaluate_call(
        self, domain: str, function: str, args: Tuple[object, ...]
    ) -> ResultSetLike:
        key = (domain, function, args)
        try:
            return self._results[key]
        except KeyError:
            pass
        result = self._evaluator.evaluate_call(domain, function, args)
        self._results[key] = result
        return result

    def has_domain(self, domain: str) -> bool:
        return self._evaluator.has_domain(domain)

    @property
    def version(self) -> object:
        # Forwarded so the enumeration's solver gates its external memo the
        # way the caller's would; ``None`` for tokenless evaluators.
        return getattr(self._evaluator, "version", None)


# ---------------------------------------------------------------------------
# Backtracking search
# ---------------------------------------------------------------------------


class _ConjunctIndex:
    """The constraint's top-level conjuncts, indexed by variable.

    The search consults these lists at every node instead of rescanning
    every conjunct for every unassigned variable.  The index is a pure
    function of the constraint, so it is memoized on the interned node's
    ``_index`` slot and shared by every enumeration of that node -- every
    read of a view entry after the first.  Readers must not mutate it.
    """

    __slots__ = ("conjuncts", "has_ground", "touching", "pins", "bounds", "calls")

    def __init__(self, constraint: Constraint) -> None:
        self.conjuncts = constraint.conjuncts()
        self.has_ground = any(not part.variables() for part in self.conjuncts)
        #: Conjuncts mentioning each variable, in constraint order: binding
        #: a variable can only make these ground.
        self.touching: Dict[Variable, List[Constraint]] = {}
        #: Terms a variable is equated to by positive equalities.
        self.pins: Dict[Variable, List[Term]] = {}
        #: ``(op, term)`` for every comparison oriented as ``variable op term``.
        self.bounds: Dict[Variable, List[Tuple[str, Term]]] = {}
        #: Calls of the positive DCA-atoms over each variable.
        self.calls: Dict[Variable, List[DomainCall]] = {}
        for part in self.conjuncts:
            for variable in part.variables():
                self.touching.setdefault(variable, []).append(part)
            if isinstance(part, Comparison):
                left, op, right = part.left, part.op, part.right
                if isinstance(left, Variable):
                    self.bounds.setdefault(left, []).append((op, right))
                    if op == "=":
                        self.pins.setdefault(left, []).append(right)
                if isinstance(right, Variable):
                    self.bounds.setdefault(right, []).append((FLIPPED_OPERATOR[op], left))
                    if op == "=":
                        self.pins.setdefault(right, []).append(left)
            elif (
                isinstance(part, Membership)
                and part.positive
                and isinstance(part.element, Variable)
            ):
                self.calls.setdefault(part.element, []).append(part.call)

    @staticmethod
    def of(constraint: Constraint) -> "_ConjunctIndex":
        index = constraint._index
        if index is None:
            index = _ConjunctIndex(constraint)
            object.__setattr__(constraint, "_index", index)
        return index

    def root_checks(self, variable: Variable) -> Sequence[Constraint]:
        """Conjuncts to check after the first binding: the variable-free ones
        and those over *variable*, in constraint order."""
        if not self.has_ground:
            return self.touching.get(variable, ())
        return [
            part
            for part in self.conjuncts
            if not part.variables() or variable in part.variables()
        ]


class _Plan:
    """What one enumeration's search reads: the index, the inputs, and the
    finite call results already ordered into candidate lists."""

    __slots__ = (
        "constraint",
        "index",
        "solver",
        "universe",
        "max_interval_width",
        "calls",
        "_finite",
    )

    def __init__(
        self,
        constraint: Constraint,
        solver: ConstraintSolver,
        universe: Optional[List[object]],
        max_interval_width: int,
    ) -> None:
        self.constraint = constraint
        self.index = _ConjunctIndex.of(constraint)
        self.solver = solver
        self.universe = universe
        self.max_interval_width = max_interval_width
        #: The index's calls restricted to domains the evaluator knows.
        self.calls: Dict[Variable, List[DomainCall]] = {}
        evaluator = solver.evaluator
        if evaluator is not None:
            for variable, calls in self.index.calls.items():
                known = [call for call in calls if evaluator.has_domain(call.domain)]
                if known:
                    self.calls[variable] = known
        self._finite: Dict[
            Tuple[str, str, Tuple[object, ...]],
            Optional[Tuple[List[object], FrozenSet[object]]],
        ] = {}

    def finite_values(
        self, call: DomainCall, args: Tuple[object, ...]
    ) -> Optional[Tuple[List[object], FrozenSet[object]]]:
        """The ordered values and value set of a finite ground call, or
        ``None`` when its result cannot be enumerated; computed once per
        call and enumeration."""
        key = (call.domain, call.function, args)
        try:
            return self._finite[key]
        except KeyError:
            pass
        result = self.solver.evaluator.evaluate_call(call.domain, call.function, args)
        values: Optional[Tuple[List[object], FrozenSet[object]]] = None
        if result.is_finite():
            members = frozenset(result.iter_values())
            values = (sorted(members, key=_sort_key), members)
        self._finite[key] = values
        return values


def _search(
    plan: _Plan,
    unassigned: List[Variable],
    partial: Dict[Variable, object],
) -> Iterator[Dict[Variable, object]]:
    if not unassigned:
        if plan.solver.evaluate_ground(plan.constraint, partial):
            yield dict(partial)
        return

    variable, candidates = _pick_variable(plan, unassigned, partial)
    remaining = [var for var in unassigned if var != variable]
    # Only the conjuncts over *variable* can have just become ground; the
    # ones ground before this binding were checked at an earlier depth.
    index = plan.index
    checks = index.root_checks(variable) if not partial else index.touching.get(variable, ())
    for value in candidates:
        partial[variable] = value
        if _partial_consistent(checks, partial, plan.solver):
            yield from _search(plan, remaining, partial)
        del partial[variable]


def _pick_variable(
    plan: _Plan,
    unassigned: List[Variable],
    partial: Dict[Variable, object],
) -> Tuple[Variable, List[object]]:
    """Choose the next variable and its candidate values.

    Preference: equality-pinned variables, then finite membership sets, then
    bounded integer intervals, then the universe.  Raises
    :class:`SolverError` when nothing applies and no universe is available.
    """
    best: Optional[Tuple[int, int, Variable, List[object]]] = None
    for variable in unassigned:
        pinned = _pinned_value(variable, plan, partial)
        if pinned is not _NO_VALUE:
            return variable, [pinned]
        membership_values = _membership_candidates(variable, plan, partial)
        if membership_values is not None:
            candidate = (1, len(membership_values), variable, membership_values)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
            continue
        interval = _integer_interval(variable, plan, partial)
        if interval is not None and interval[1] - interval[0] + 1 <= plan.max_interval_width:
            values = list(range(interval[0], interval[1] + 1))
            candidate = (2, len(values), variable, values)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
    if best is not None:
        return best[2], best[3]
    variable = unassigned[0]
    if plan.universe is None:
        raise SolverError(
            f"cannot enumerate candidate values for variable {variable}; "
            "supply a universe"
        )
    return variable, list(plan.universe)


class _NoValue:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no value>"


_NO_VALUE = _NoValue()


def _resolve(term: Term, partial: Dict[Variable, object]) -> object:
    if isinstance(term, Constant):
        return term.value
    return partial.get(term, _NO_VALUE)


def _pinned_value(
    variable: Variable, plan: _Plan, partial: Dict[Variable, object]
) -> object:
    """Value forced on *variable* by a positive equality, if any."""
    for other in plan.index.pins.get(variable, ()):
        value = _resolve(other, partial)
        if value is not _NO_VALUE:
            return value
    return _NO_VALUE


def _membership_candidates(
    variable: Variable, plan: _Plan, partial: Dict[Variable, object]
) -> Optional[List[object]]:
    """Finite candidate values from positive DCA-atoms over *variable*.

    The first finite call's ordered values, filtered by every other finite
    call's value set; the caller must not mutate the returned list.
    """
    calls = plan.calls.get(variable)
    if not calls:
        return None
    ordered: Optional[List[object]] = None
    others: List[FrozenSet[object]] = []
    for call in calls:
        args = tuple(_resolve(arg, partial) for arg in call.args)
        if any(arg is _NO_VALUE for arg in args):
            continue
        values = plan.finite_values(call, args)
        if values is None:
            continue
        if ordered is None:
            ordered = values[0]
        else:
            others.append(values[1])
    if ordered is None or not others:
        return ordered
    return [value for value in ordered if all(value in other for other in others)]


def _integer_interval(
    variable: Variable, plan: _Plan, partial: Dict[Variable, object]
) -> Optional[Tuple[int, int]]:
    """Bounded integer interval implied by comparisons on *variable*."""
    low: float = -math.inf
    high: float = math.inf
    for op, term in plan.index.bounds.get(variable, ()):
        value = _resolve(term, partial)
        if value is _NO_VALUE or isinstance(value, bool):
            continue
        if not isinstance(value, (int, float)):
            continue
        if op == "=":
            low = max(low, float(value))
            high = min(high, float(value))
        elif op == "<":
            bound = math.ceil(value) - 1 if float(value).is_integer() else math.floor(value)
            high = min(high, bound)
        elif op == "<=":
            high = min(high, math.floor(value))
        elif op == ">":
            bound = math.floor(value) + 1 if float(value).is_integer() else math.ceil(value)
            low = max(low, bound)
        elif op == ">=":
            low = max(low, math.ceil(value))
    if low == -math.inf or high == math.inf:
        return None
    if low > high:
        return (0, -1)  # empty interval
    return (int(low), int(high))


def _partial_consistent(
    parts: Sequence[Constraint], partial: Dict[Variable, object], solver: ConstraintSolver
) -> bool:
    """Evaluate those of *parts* that are fully ground under *partial*."""
    for part in parts:
        if not all(var in partial for var in part.variables()):
            # Not ground yet.  This defers a negation whose inner variables
            # are never bound by the search to the leaf's full evaluation.
            continue
        if isinstance(part, NegatedConjunction):
            if not solver.evaluate_ground(part, partial):
                return False
            continue
        try:
            if not solver.evaluate_ground(part, partial):
                return False
        except SolverError:
            # A membership over an unknown domain: leave it to the caller.
            continue
    return True


def _sort_key(value: object) -> Tuple[str, str]:
    return (type(value).__name__, repr(value))

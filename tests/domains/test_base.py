"""Unit tests for the domain abstraction and registry."""

from __future__ import annotations

import pytest

from repro.constraints import FrozenResultSet
from repro.domains import Domain, DomainRegistry, IntensionalResultSet, coerce_result
from repro.errors import EvaluationError, UnknownDomainError, UnknownFunctionError


class TestCoerceResult:
    def test_bool_maps_to_true_singleton_or_empty(self):
        assert coerce_result(True).contains(True)
        assert coerce_result(False).is_empty()

    def test_none_is_empty(self):
        assert coerce_result(None).is_empty()

    def test_collections_become_finite_sets(self):
        assert set(coerce_result([1, 2, 2]).iter_values()) == {1, 2}
        assert set(coerce_result((1,)).iter_values()) == {1}
        assert set(coerce_result({"a"}).iter_values()) == {"a"}

    def test_scalar_becomes_singleton(self):
        result = coerce_result("value")
        assert result.contains("value") and result.size_hint() == 1

    def test_generator_is_consumed(self):
        assert set(coerce_result(iter(range(3))).iter_values()) == {0, 1, 2}

    def test_result_sets_pass_through(self):
        existing = FrozenResultSet([1])
        assert coerce_result(existing) is existing


class _DuckResultSet:
    """Implements the ``ResultSetLike`` protocol without inheriting anything."""

    def contains(self, value):
        return value == "duck"

    def is_finite(self):
        return True

    def is_empty(self):
        return False

    def iter_values(self):
        return iter(["duck"])

    def size_hint(self):
        return 1


class _ListResultSet(list, _DuckResultSet):
    """A list subclass that is also a result set: it must pass through."""


_FROZEN = FrozenResultSet([7])
_INTENSIONAL = IntensionalResultSet(lambda value: value == 1)
_DUCK = _DuckResultSet()
_LIST_RESULT = _ListResultSet([1, 2])
_SAME = object()


@pytest.mark.parametrize(
    "make_value, expected",
    [
        (lambda: {1, 2}, {1, 2}),
        (lambda: frozenset({1, 2}), {1, 2}),
        (lambda: [1, 2, 2], {1, 2}),
        (lambda: (1,), {1}),
        (lambda: True, {True}),
        (lambda: False, set()),
        (lambda: None, set()),
        (lambda: _FROZEN, _SAME),
        (lambda: _INTENSIONAL, _SAME),
        (lambda: _DUCK, _SAME),
        (lambda: _LIST_RESULT, _SAME),
        (lambda: (value for value in range(3)), {0, 1, 2}),
        (lambda: "value", {"value"}),
        (lambda: 42, {42}),
    ],
    ids=[
        "set", "frozenset", "list", "tuple", "true", "false", "none",
        "frozen-result-set", "intensional", "duck-typed", "list-subclass-result-set",
        "generator", "str", "scalar",
    ],
)
def test_coerce_result_by_input_kind(make_value, expected):
    value = make_value()
    result = coerce_result(value)
    if expected is _SAME:
        assert result is value
    else:
        assert type(result) is FrozenResultSet
        assert result == FrozenResultSet(expected)


class TestIntensionalResultSet:
    def test_membership_and_emptiness(self):
        evens = IntensionalResultSet(lambda v: isinstance(v, int) and v % 2 == 0)
        assert evens.contains(4) and not evens.contains(3)
        assert not evens.is_finite()
        assert not evens.is_empty()
        assert evens.size_hint() is None

    def test_membership_errors_are_false(self):
        picky = IntensionalResultSet(lambda v: v > 10)
        assert not picky.contains("string")

    def test_sample_enumeration(self):
        sampled = IntensionalResultSet(lambda v: True, sample=lambda: range(3))
        assert list(sampled.iter_values()) == [0, 1, 2]
        unsampled = IntensionalResultSet(lambda v: True)
        with pytest.raises(EvaluationError):
            unsampled.iter_values()


class TestDomain:
    def test_register_and_call(self):
        domain = Domain("d")
        domain.register("f", lambda x: {x * 2})
        assert set(domain.call("f", (3,)).iter_values()) == {6}

    def test_unknown_function(self):
        domain = Domain("d")
        with pytest.raises(UnknownFunctionError):
            domain.call("missing", ())

    def test_arity_check(self):
        domain = Domain("d")
        domain.register("f", lambda x: {x}, arity=1)
        with pytest.raises(EvaluationError):
            domain.call("f", (1, 2))

    def test_exception_wrapped(self):
        domain = Domain("d")
        domain.register("boom", lambda: 1 / 0)
        with pytest.raises(EvaluationError):
            domain.call("boom", ())

    def test_function_names_and_has_function(self):
        domain = Domain("d")
        domain.register("b", lambda: set())
        domain.register("a", lambda: set())
        assert domain.function_names() == ("a", "b")
        assert domain.has_function("a") and not domain.has_function("z")

    def test_empty_name_rejected(self):
        with pytest.raises(EvaluationError):
            Domain("")


class TestDomainRegistry:
    def test_register_and_evaluate(self):
        domain = Domain("d")
        domain.register("f", lambda: {1})
        registry = DomainRegistry([domain])
        assert registry.has_domain("d")
        assert set(registry.evaluate_call("d", "f", ()).iter_values()) == {1}

    def test_unknown_domain(self):
        registry = DomainRegistry()
        assert not registry.has_domain("d")
        with pytest.raises(UnknownDomainError):
            registry.evaluate_call("d", "f", ())
        with pytest.raises(UnknownDomainError):
            registry.unregister("d")

    def test_unregister(self):
        domain = Domain("d")
        registry = DomainRegistry([domain])
        registry.unregister("d")
        assert not registry.has_domain("d")

    def test_domain_names_and_contains(self):
        registry = DomainRegistry([Domain("b"), Domain("a")])
        assert registry.domain_names() == ("a", "b")
        assert "a" in registry

    def test_call_caching(self):
        calls = []
        domain = Domain("d")
        domain.register("f", lambda: calls.append(1) or {1})
        registry = DomainRegistry([domain], cache_calls=True)
        registry.evaluate_call("d", "f", ())
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 1
        registry.invalidate_cache()
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 2

    def test_no_caching_by_default(self):
        calls = []
        domain = Domain("d")
        domain.register("f", lambda: calls.append(1) or {1})
        registry = DomainRegistry([domain])
        registry.evaluate_call("d", "f", ())
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 2
        assert not registry.caches_calls


class TestVersionTokens:
    """The registry version token changes on every tracked source change."""

    def test_registration_changes_bump_the_token(self):
        registry = DomainRegistry()
        tokens = {registry.version}
        domain = Domain("d")
        registry.register(domain)
        tokens.add(registry.version)
        domain.register("f", lambda: {1})
        tokens.add(registry.version)
        domain.register("f", lambda: {2})  # re-registration = behaviour change
        tokens.add(registry.version)
        registry.unregister("d")
        tokens.add(registry.version)
        assert len(tokens) == 5

    def test_invalidate_cache_bumps_the_token(self):
        registry = DomainRegistry([Domain("d")])
        before = registry.version
        registry.invalidate_cache()
        assert registry.version != before

    def test_clock_advance_changes_versioned_domain_token(self):
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain])
        before = registry.version
        clock.advance()
        assert registry.version != before

    def test_set_behavior_changes_token_even_without_clock_advance(self):
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain])
        before = registry.version
        domain.set_behavior("f", 0, lambda: {2})  # already in force at time 0
        assert registry.version != before

    def test_relational_mutation_changes_token(self):
        from repro.domains import make_relational_domain

        domain = make_relational_domain(
            "crm", {"t": (("k",), [("a",)])}
        )
        registry = DomainRegistry([domain])
        before = registry.version
        domain.database.insert("t", ("b",))
        assert registry.version != before

    def test_quick_reject_defaults_to_false(self):
        domain = Domain("d")
        domain.register("f", lambda: {1})
        registry = DomainRegistry([domain])
        assert not registry.quick_reject("d", "f", (), 2)
        assert not registry.quick_reject("missing", "f", (), 2)
        assert not registry.quick_reject("d", "missing", (), 2)

    def test_quick_reject_consults_registered_hook(self):
        domain = Domain("d")
        domain.register(
            "f", lambda: {1}, quick_reject=lambda args, value: value != 1
        )
        registry = DomainRegistry([domain])
        assert registry.quick_reject("d", "f", (), 2)
        assert not registry.quick_reject("d", "f", (), 1)

    def test_quick_reject_swallows_hook_errors(self):
        def broken(args, value):
            raise RuntimeError("boom")

        domain = Domain("d")
        domain.register("f", lambda: {1}, quick_reject=broken)
        registry = DomainRegistry([domain])
        assert not registry.quick_reject("d", "f", (), 2)

    def test_call_cache_is_version_gated(self):
        # Regression: with cache_calls=True a tracked source change bumped
        # the version token (clearing the solver's memo) but the registry's
        # own call cache kept serving the stale result set.
        from repro.constraints import ConstraintSolver, Variable, conjoin, equals, member
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain], cache_calls=True)
        solver = ConstraintSolver(registry)
        X = Variable("X")
        constraint = conjoin(member(X, "v", "f"), equals(X, 1))
        assert solver.is_satisfiable(constraint)
        domain.set_behavior("f", 0, lambda: {2})  # tracked change, no clock tick
        assert not solver.is_satisfiable(constraint)

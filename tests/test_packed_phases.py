"""The packed path as the default, and the packed hand-off between phases.

With no config every public entry point runs the interned packed-id
closure (:class:`~repro.engine.parallel.PackedClosure`).  The decomposed
and separable drivers hand each phase's packed result
(:class:`~repro.storage.domain.PackedRelation`) straight to the next
phase: the initial relation is interned once, the result decoded once,
and a phase whose rules add a value to the domain re-packs its input
arithmetically.  Rows and per-phase Theorem-3.1 counts must equal the
interpreted reference run phase by phase.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import (
    Database,
    EqualitySelection,
    EvalConfig,
    EvaluationStatistics,
    LiveEngine,
    PositionEqualitySelection,
    QueryEngine,
    RecursiveQueryEngine,
    Relation,
    solve,
)
from repro.core.planner import Strategy
from repro.datalog.parser import parse_rule
from repro.engine.decomposed import decomposed_closure
from repro.engine.parallel import PackedClosure
from repro.engine.reference import seminaive_closure_interpreted
from repro.engine.seminaive import seminaive_closure
from repro.engine.separable import separable_evaluate
from repro.exceptions import EvaluationError
from repro.storage.domain import Domain, PackedRelation
from repro.storage.selection import Selection, TrueSelection

TC = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)
TWO_SIDED = (
    "path(X, Y) :- edge(X, U), path(U, Y).\n"
    "path(X, Y) :- path(X, V), hop(V, Y).\n"
    "path(X, Y) :- base(X, Y)."
)
SEPARABLE = (
    "reach(X, Y) :- left(X, U), reach(U, Y).\n"
    "reach(X, Y) :- reach(X, V), right(V, Y).\n"
    "reach(X, Y) :- start(X, Y)."
)

LEFT = parse_rule("p(X, Y) :- e(X, U), p(U, Y).")
RIGHT = parse_rule("p(X, Y) :- p(X, V), f(V, Y).")
#: A head constant no EDB relation holds: the phase running this rule
#: grows the domain past the previous phase's packing base.
GROW = parse_rule("p(X, 99) :- p(X, Y).")


def chain(name, count, offset=0):
    return Relation.of(name, 2, [(offset + i, offset + i + 1)
                                 for i in range(count)])


def two_sided_db():
    return Database.of(chain("edge", 6), chain("hop", 6, offset=3),
                       Relation.of("base", 2, [(i, i) for i in range(10)]))


def separable_db():
    return Database.of(chain("left", 6), chain("right", 6, offset=2),
                       Relation.of("start", 2, [(i, i) for i in range(9)]))


def phase_db():
    return Database.of(chain("e", 5), chain("f", 5, offset=1))


INITIAL = Relation.of("p", 2, [(i, i) for i in range(7)])


class Ascending(Selection):
    """A selection without a packed form: tested through value rows."""

    def matches(self, row):
        return row[0] < row[-1]

    def positions(self):
        return frozenset({0})


@pytest.fixture
def closures(monkeypatch):
    """Every PackedClosure built during the test, with its packing base."""
    built = []
    original = PackedClosure.__init__

    def init(self, evaluator, initial):
        original(self, evaluator, initial)
        built.append(self)

    monkeypatch.setattr(PackedClosure, "__init__", init)
    return built


@pytest.fixture
def decodes(monkeypatch):
    """Counts of PackedRelation.decode and PackedRelation.from_relation."""
    counts = {"decode": 0, "from_relation": 0}
    decode = PackedRelation.decode
    from_relation = PackedRelation.from_relation.__func__

    def counted_decode(self):
        counts["decode"] += 1
        return decode(self)

    def counted_from_relation(cls, relation, domain):
        counts["from_relation"] += 1
        return from_relation(cls, relation, domain)

    monkeypatch.setattr(PackedRelation, "decode", counted_decode)
    monkeypatch.setattr(PackedRelation, "from_relation",
                        classmethod(counted_from_relation))
    return counts


def signature(statistics):
    return (statistics.derivations, statistics.duplicates,
            statistics.iterations, statistics.initial_size,
            statistics.result_size)


def reference_phases(phases, initial, database, between=None):
    """The interpreted loop over *phases* in order; (result, counts)."""
    current = initial
    counts = {}
    for index, (name, rules) in enumerate(phases):
        if index == 1 and between is not None:
            current = between(current)
        stats = EvaluationStatistics()
        current = seminaive_closure_interpreted(rules, current, database, stats)
        counts[name] = signature(stats)
    return current, counts


class TestDefaultReachesPackedClosure:
    def test_solve(self, closures):
        closure = solve(TC, Database.of(chain("edge", 4)))
        assert len(closure) == 10
        assert len(closures) == 1

    def test_recursive_query_engine_decomposed(self, closures):
        result = RecursiveQueryEngine().query(TWO_SIDED, "path", two_sided_db())
        assert result.plan.strategy == Strategy.DECOMPOSED
        assert len(closures) == 2

    def test_recursive_query_engine_separable(self, closures):
        result = RecursiveQueryEngine().query(
            SEPARABLE, "reach", separable_db(),
            selection=EqualitySelection(0, 1))
        assert result.plan.strategy == Strategy.SEPARABLE
        assert len(closures) == 2

    def test_query_engine_magic_tier(self, closures):
        answer = QueryEngine(two_sided_db(), TWO_SIDED).ask(
            "path(2, Y)?", strategy="magic")
        assert answer.strategy == "magic"
        assert closures

    def test_live_engine_cold_build(self, closures):
        async def scenario():
            engine = await LiveEngine(TC, Database.of(chain("edge", 4))).start()
            await engine.close()

        asyncio.run(scenario())
        assert closures

    def test_rows_executor_stays_available(self, closures):
        solve(TC, Database.of(chain("edge", 4)), config="rows")
        assert not closures


class TestPackedHandOff:
    @pytest.mark.parametrize("groups", [
        [(LEFT,), (RIGHT,)],
        [(GROW,), (LEFT,), (RIGHT,)],
        [(LEFT,), (GROW,), (RIGHT,)],
        [(LEFT, GROW), (RIGHT,)],
    ], ids=["two", "grow-last", "grow-middle", "grow-mixed"])
    def test_decomposed_matches_reference_phase_by_phase(self, groups, closures,
                                                         decodes):
        statistics = EvaluationStatistics()
        relation = decomposed_closure(groups, INITIAL, phase_db(), statistics)
        names = [f"phase-{index + 1}" for index in range(len(groups))]
        # ``phase-i`` labels group ``i``; the last group runs first.
        expected, counts = reference_phases(
            list(reversed(list(zip(names, groups)))), INITIAL, phase_db())
        assert relation.rows == expected.rows
        assert {name: signature(stats)
                for name, stats in statistics.phases.items()} == counts
        assert statistics.derivations == sum(c[0] for c in counts.values())
        assert decodes == {"decode": 1, "from_relation": 1}
        assert len(closures) == len(groups)

    def test_a_phase_that_adds_a_constant_grows_the_base(self, closures):
        decomposed_closure([(GROW,), (LEFT,)], INITIAL, phase_db())
        first, second = closures
        assert second.base_k > first.base_k
        assert 99 in second.domain

    @pytest.mark.parametrize("push", [True, False])
    @pytest.mark.parametrize("selection", [
        EqualitySelection(0, 2),
        EqualitySelection(1, 99),
        EqualitySelection(0, "absent"),
        PositionEqualitySelection(0, 1),
        EqualitySelection(0, 1).conjoin(PositionEqualitySelection(0, 1)),
        TrueSelection(),
    ], ids=["constant", "grown-constant", "absent-constant", "columns",
            "conjunction", "true"])
    def test_separable_matches_reference_phase_by_phase(self, push, selection,
                                                        decodes):
        outer, inner = (LEFT,), (RIGHT, GROW)
        statistics = EvaluationStatistics()
        relation = separable_evaluate(outer, inner, selection, INITIAL,
                                      phase_db(), statistics,
                                      push_into_initial=push)
        phases = [("inner-closure", inner), ("outer-closure", outer)]
        expected, counts = reference_phases(
            phases, selection.apply(INITIAL) if push else INITIAL, phase_db(),
            None if push else selection.apply)
        assert relation.rows == expected.rows
        assert {name: signature(stats)
                for name, stats in statistics.phases.items()} == counts
        assert decodes == {"decode": 1, "from_relation": 1}

    def test_value_space_configs_agree(self):
        groups = [(GROW,), (LEFT,), (RIGHT,)]
        results = set()
        for spec in ("", "rows", "batch"):
            statistics = EvaluationStatistics()
            relation = decomposed_closure(
                groups, INITIAL, phase_db(), statistics,
                config=EvalConfig.from_spec(spec))
            results.add((relation.rows, signature(statistics)))
        assert len(results) == 1

    def test_packed_initial_from_another_domain_is_re_packed(self):
        packed = PackedRelation.from_relation(INITIAL, Domain(["x", "y"]))
        relation = seminaive_closure((LEFT,), packed, phase_db())
        expected = seminaive_closure_interpreted((LEFT,), INITIAL, phase_db())
        assert relation.decode().rows == expected.rows

    def test_packed_initial_needs_a_packed_config(self):
        database = phase_db()
        packed = PackedRelation.from_relation(INITIAL, database.domain())
        with pytest.raises(EvaluationError, match="packed"):
            seminaive_closure((LEFT,), packed, database,
                              config=EvalConfig(executor="rows"))


class TestPackedRelation:
    @pytest.mark.parametrize("rows", [
        [(1, "a"), (2, "b"), ("a", 1)],
        [(1,), ("x",)],
        [(1, 2, 3), (3, 2, 1), ("a", None, 2)],
        [()],
    ], ids=["binary", "unary", "ternary", "nullary"])
    def test_round_trip_and_rebase(self, rows):
        relation = Relation.of("r", len(rows[0]), rows)
        domain = Domain()
        packed = PackedRelation.from_relation(relation, domain)
        assert packed.decode() == relation
        for value in range(40):
            domain.intern(("grown", value))
        wider = PackedRelation(packed.name, packed.arity,
                               packed.rebased(len(domain)), len(domain),
                               domain)
        assert wider.decode() == relation

    @pytest.mark.parametrize("selection", [
        EqualitySelection(0, 1),
        EqualitySelection(2, 3),
        EqualitySelection(1, "missing"),
        PositionEqualitySelection(0, 2),
        EqualitySelection(1, 2).conjoin(PositionEqualitySelection(0, 1)),
        TrueSelection(),
        Ascending(),
    ], ids=["first", "last", "absent", "columns", "conjunction", "true",
            "value-rows"])
    def test_packed_selection_equals_value_selection(self, selection):
        relation = Relation.of("r", 3, [(a, b, c) for a in range(4)
                                         for b in range(4) for c in (1, 3)])
        packed = PackedRelation.from_relation(relation, Domain())
        assert selection.apply(packed).decode() == selection.apply(relation)

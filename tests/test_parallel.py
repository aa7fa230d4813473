"""Tests for the parallel batched executor (repro.engine.parallel).

The correctness bar: every backend (``serial``, ``threads``,
``processes``) must produce the identical result relation and identical
derivation/duplicate statistics as the plain serial compiled path, on
every scenario — and repeated runs of one backend must be byte-identical
and statistically identical (executor determinism).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.naive import naive_closure
from repro.engine.parallel import (
    EvalConfig,
    ParallelEvaluator,
    partition_tasks,
    split_relation,
)
from repro.engine.plan import compile_rule
from repro.engine.seminaive import seminaive_closure
from repro.engine.separable import separable_evaluate
from repro.engine.decomposed import decomposed_closure
from repro.engine.statistics import EvaluationStatistics
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.selection import EqualitySelection
from repro.workloads.graphs import layered_dag_edges
from repro.workloads.wide import wide_multirule_workload

BACKENDS = ["serial", "threads", "processes"]


#: The row-at-a-time executor, pinned explicitly: the parity tests below
#: compare every other executor against it, not against the default.
ROWS_CONFIG = EvalConfig(executor="rows")


def config_for(backend: str) -> EvalConfig | None:
    if backend == "serial":
        return None
    return EvalConfig(backend=backend, max_workers=2, partitions=3)


# ----------------------------------------------------------------------
# Scenario suite
# ----------------------------------------------------------------------


def scenario_two_sided_paths():
    """Prepend-edge / append-hop reachability over a chain."""
    rules = (
        parse_rule("path(X, Y) :- edge(X, U), path(U, Y)."),
        parse_rule("path(X, Y) :- path(X, V), hop(V, Y)."),
    )
    edge = Relation.of("edge", 2, [(i, i + 1) for i in range(12)])
    hop = Relation.of("hop", 2, [(i, i + 2) for i in range(11)])
    initial = Relation.of("path", 2, [(i, i) for i in range(13)])
    return rules, Database.of(edge, hop), initial


def scenario_same_generation():
    """Same-generation over a random layered DAG."""
    rules = (parse_rule("sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."),)
    rng = random.Random(5)
    up = layered_dag_edges(4, 6, fanout=2, name="up", rng=rng)
    down = Relation.of("down", 2, [(b, a) for a, b in up.rows])
    flat_rows = [(i, i) for i in range(6)]
    initial = Relation.of("sg", 2, flat_rows)
    return rules, Database.of(up, down), initial


def scenario_layered_tc():
    """Single-rule transitive closure over a layered DAG (dense deltas)."""
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    database = Database.of(
        layered_dag_edges(6, 8, fanout=2, name="edge", rng=random.Random(11))
    )
    initial = Relation.of(
        "path", 2, [(n, n) for n in sorted(database.active_domain())]
    )
    return rules, database, initial


def scenario_wide_multirule():
    """The wide multi-rule workload the benchmark uses."""
    return wide_multirule_workload(5, 8, num_rules=4, rng=random.Random(3))


SCENARIOS = {
    "two-sided-paths": scenario_two_sided_paths,
    "same-generation": scenario_same_generation,
    "layered-tc": scenario_layered_tc,
    "wide-multirule": scenario_wide_multirule,
}


def run_seminaive(scenario: str, backend: str):
    rules, database, initial = SCENARIOS[scenario]()
    # Fresh database so no run ever sees another run's warm index cache.
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    relation = seminaive_closure(
        rules, initial, database, statistics, config=config_for(backend)
    )
    return relation, statistics


def stats_signature(statistics: EvaluationStatistics):
    return (
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
        statistics.rule_applications,
        statistics.result_size,
        statistics.joins.tuples_emitted,
    )


# ----------------------------------------------------------------------
# Backend parity
# ----------------------------------------------------------------------


class TestBackendParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_seminaive_matches_serial(self, scenario, backend):
        serial_rel, serial_stats = run_seminaive(scenario, "serial")
        parallel_rel, parallel_stats = run_seminaive(scenario, backend)
        assert parallel_rel.rows == serial_rel.rows
        assert stats_signature(parallel_stats) == stats_signature(serial_stats)

    @pytest.mark.parametrize("backend", ["threads"])
    def test_naive_matches_serial(self, backend):
        rules, database, initial = scenario_layered_tc()

        def run(config):
            stats = EvaluationStatistics()
            relation = naive_closure(
                rules, initial, Database(dict(database.relations)), stats,
                config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(ROWS_CONFIG)
        parallel_rel, parallel_stats = run(config_for(backend))
        assert parallel_rel.rows == serial_rel.rows
        assert stats_signature(parallel_stats) == stats_signature(serial_stats)

    def test_decomposed_matches_serial(self, tc_rules):
        first, second = tc_rules
        q = Relation.of("q", 2, [(i, i + 1) for i in range(8)])
        r = Relation.of("r", 2, [(i, i + 1) for i in range(8)])
        initial = Relation.of("p", 2, [(0, 0), (3, 3)])

        def run(config):
            stats = EvaluationStatistics()
            relation = decomposed_closure(
                [(first,), (second,)], initial, Database.of(q, r), stats,
                config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(ROWS_CONFIG)
        threads_rel, threads_stats = run(config_for("threads"))
        assert threads_rel.rows == serial_rel.rows
        assert stats_signature(threads_stats) == stats_signature(serial_stats)

    def test_separable_matches_serial(self):
        outer = (parse_rule("reach(X, Y) :- left(X, U), reach(U, Y)."),)
        inner = (parse_rule("reach(X, Y) :- reach(X, V), right(V, Y)."),)
        left = Relation.of("left", 2, [(i, i + 1) for i in range(10)])
        right = Relation.of("right", 2, [(i, i + 1) for i in range(10)])
        initial = Relation.of("reach", 2, [(i, i) for i in range(11)])
        selection = EqualitySelection(0, 0)

        def run(config):
            stats = EvaluationStatistics()
            relation = separable_evaluate(
                outer, inner, selection, initial, Database.of(left, right),
                stats, config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(ROWS_CONFIG)
        threads_rel, threads_stats = run(config_for("threads"))
        assert threads_rel.rows == serial_rel.rows
        assert stats_signature(threads_stats) == stats_signature(serial_stats)

    def test_serial_config_is_plain_path(self):
        """EvalConfig('serial') matches config=None bit for bit, probes included."""
        rel_none, stats_none = run_seminaive("layered-tc", "serial")
        stats_cfg = EvaluationStatistics()
        rules, database, initial = scenario_layered_tc()
        rel_cfg = seminaive_closure(
            rules, initial, Database(dict(database.relations)), stats_cfg,
            config=EvalConfig(),
        )
        assert rel_cfg.rows == rel_none.rows
        assert stats_cfg.as_dict() == stats_none.as_dict()


# ----------------------------------------------------------------------
# Executor determinism
# ----------------------------------------------------------------------


class TestExecutorDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_three_runs_identical(self, scenario, backend):
        outcomes = []
        for _ in range(3):
            relation, statistics = run_seminaive(scenario, backend)
            canonical = repr(relation.sorted_rows()).encode()
            outcomes.append((canonical, stats_signature(statistics)))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# EvalConfig validation
# ----------------------------------------------------------------------


class TestEvalConfig:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(executor="gpu")
        with pytest.raises(ValueError):
            EvalConfig(backend="gpu")

    @pytest.mark.parametrize("field,value", [
        ("max_workers", 0),
        ("partitions", 0),
        ("min_partition_rows", 1),
    ])
    def test_bounds_rejected(self, field, value):
        with pytest.raises(ValueError):
            EvalConfig(**{field: value})

    def test_defaults_resolve(self):
        config = EvalConfig()
        assert not config.is_parallel()
        assert config.resolved_workers() >= 1
        assert config.resolved_partitions() == config.resolved_workers()

    def test_explicit_resolution(self):
        config = EvalConfig(backend="threads", max_workers=3)
        assert config.is_parallel()
        assert config.resolved_workers() == 3
        assert config.resolved_partitions() == 3
        assert EvalConfig(max_workers=2, partitions=5).resolved_partitions() == 5


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_split_relation_covers_and_disjoint(self):
        relation = Relation.of("d", 2, [(i, i + 1) for i in range(20)])
        parts = split_relation(relation, 4)
        assert 1 < len(parts) <= 4
        union = frozenset().union(*(part.rows for part in parts))
        assert union == relation.rows
        assert sum(len(part) for part in parts) == len(relation)

    def test_split_relation_small_or_single(self):
        relation = Relation.of("d", 1, [(1,)])
        assert split_relation(relation, 4) == [relation]
        assert split_relation(relation, 1) == [relation]

    def test_same_delta_rules_grouped_per_partition(self):
        plans = [
            compile_rule(parse_rule("p(X, Y) :- p(U, Y), q(X, U).")),
            compile_rule(parse_rule("p(X, Y) :- p(X, V), r(V, Y).")),
        ]
        delta = Relation.of("p", 2, [(i, i) for i in range(16)])
        tasks = partition_tasks(plans, {"p": delta}, partitions=4)
        # One task per partition, each carrying both plans.
        assert all(task.plan_indices == (0, 1) for task in tasks)
        assert 1 < len(tasks) <= 4
        covered = frozenset().union(
            *(task.overrides["p"].rows for task in tasks)
        )
        assert covered == delta.rows

    def test_nonlinear_delta_rule_is_not_partitioned(self):
        plans = [compile_rule(parse_rule("p(X, Y) :- p(X, U), p(U, Y)."))]
        delta = Relation.of("p", 2, [(i, i + 1) for i in range(16)])
        tasks = partition_tasks(plans, {"p": delta}, partitions=4)
        assert len(tasks) == 1
        assert tasks[0].partition_index == -1
        assert tasks[0].overrides["p"] is delta

    def test_small_delta_is_not_partitioned(self):
        plans = [compile_rule(parse_rule("p(X, Y) :- p(U, Y), q(X, U)."))]
        delta = Relation.of("p", 2, [(0, 0), (1, 1), (2, 2)])
        tasks = partition_tasks(plans, {"p": delta}, partitions=4,
                                min_partition_rows=8)
        assert len(tasks) == 1
        assert tasks[0].partition_index == -1

    def test_disjoint_delta_rules_form_separate_groups(self):
        plans = [
            compile_rule(parse_rule("a(X, Y) :- a(U, Y), q(X, U).")),
            compile_rule(parse_rule("b(X, Y) :- b(U, Y), q(X, U).")),
        ]
        overrides = {
            "a": Relation.of("a", 2, [(i, i) for i in range(8)]),
            "b": Relation.of("b", 2, [(i, i) for i in range(8)]),
        }
        tasks = partition_tasks(plans, overrides, partitions=2)
        groups = {task.plan_indices for task in tasks}
        assert groups == {(0,), (1,)}

    def test_rule_without_delta_runs_whole(self):
        plans = [compile_rule(parse_rule("p(X, Y) :- q(X, U), r(U, Y)."))]
        delta = Relation.of("s", 2, [(i, i) for i in range(16)])
        tasks = partition_tasks(plans, {"s": delta}, partitions=4)
        assert len(tasks) == 1
        assert tasks[0].overrides["s"] is delta


# ----------------------------------------------------------------------
# Shareability / pickling
# ----------------------------------------------------------------------


class TestShareability:
    def test_database_pickles_without_caches(self):
        edge = Relation.of("edge", 2, [(0, 1), (1, 2)])
        database = Database.of(edge)
        database.index("edge", 2, (0,))  # warm the cache
        clone = pickle.loads(pickle.dumps(database))
        assert clone.relations.keys() == database.relations.keys()
        assert clone.relation("edge", 2).rows == edge.rows
        # The clone has its own empty cache and working lock.
        assert clone.index("edge", 2, (0,)).lookup((0,)) == [(0, 1)]

    def test_evaluator_context_reusable_per_closure(self):
        rules, database, initial = scenario_layered_tc()
        plans = [compile_rule(rule, database) for rule in rules]
        config = EvalConfig(backend="threads", max_workers=2)
        with ParallelEvaluator(plans, database, config) as evaluator:
            stats = EvaluationStatistics()
            first = evaluator.execute_batch({"path": initial}, stats)
            second = evaluator.execute_batch({"path": initial}, stats)
        assert sorted(first) == sorted(second)
        assert stats.rule_applications == 2 * len(plans)

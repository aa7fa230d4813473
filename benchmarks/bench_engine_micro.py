"""Micro-benchmarks of the evaluation substrate (joins, fixpoints, CQ tests).

These are not paper artefacts; they calibrate the substrate so the
experiment-level numbers can be interpreted (e.g. cost per derivation).
"""

import random

from repro.cq.containment import is_equivalent
from repro.datalog.composition import power
from repro.datalog.parser import parse_rule
from repro.engine.conjunctive import evaluate_rule
from repro.engine.naive import naive_closure
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import seminaive_closure
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.graphs import layered_dag_edges, random_graph_edges

TC_RULE = parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y).")


def _dag_database(size=64):
    rng = random.Random(11)
    return Database.of(layered_dag_edges(size // 8, 8, fanout=2, name="edge", rng=rng))


def _identity(database):
    return Relation.of(
        "path", 2, [(node, node) for node in sorted(database.active_domain())]
    )


def test_conjunctive_join(benchmark):
    rng = random.Random(5)
    database = Database.of(random_graph_edges(80, 400, name="edge", rng=rng))
    rule = parse_rule("two(X, Z) :- edge(X, Y), edge(Y, Z).")
    relation = benchmark(lambda: evaluate_rule(rule, database))
    benchmark.extra_info["result_size"] = len(relation)


def test_seminaive_transitive_closure(benchmark):
    database = _dag_database()
    initial = _identity(database)
    config = EvalConfig(executor="rows")
    relation = benchmark(
        lambda: seminaive_closure((TC_RULE,), initial, database, config=config)
    )
    benchmark.extra_info["result_size"] = len(relation)


def test_seminaive_transitive_closure_vector(benchmark):
    """The same workload on the column-oriented batch executor.

    Together with ``test_seminaive_transitive_closure`` this records the
    interpreted → compiled → batch executor trajectory (the ``vector``
    series of ``bench_compiled.py`` / ``BENCH_engine.json``).
    """
    database = _dag_database()
    initial = _identity(database)
    config = EvalConfig(executor="batch")
    relation = benchmark(
        lambda: seminaive_closure((TC_RULE,), initial, database, config=config)
    )
    benchmark.extra_info["result_size"] = len(relation)


def test_naive_transitive_closure(benchmark):
    database = _dag_database(32)
    initial = _identity(database)
    relation = benchmark(lambda: naive_closure((TC_RULE,), initial, database))
    benchmark.extra_info["result_size"] = len(relation)


def test_rule_power_and_equivalence(benchmark):
    rule = parse_rule("p(X, Y) :- p(U, Y), q(X, U).")

    def work():
        fourth = power(rule, 4)
        return is_equivalent(fourth, power(rule, 4))

    assert benchmark(work)

"""IVM serving benchmark: maintained updates vs recompute-per-update.

The serving claim behind :mod:`repro.ivm` and :mod:`repro.serve`,
measured on the layered-DAG transitive-closure workload (the
``bench_engine_micro`` shape): once a closure is materialised, keeping
it live under single-edge deltas must be far cheaper than recomputing
the fixpoint per update.

Three phases per size:

* **build** — cold-start cost of the maintenance engine
  (``maintain_build_seconds``): the ordinary fixpoint plus one rule
  application to derive the support counters.
* **updates** — a cycle of single-edge delete/re-insert deltas applied
  through :meth:`~repro.ivm.MaterializedProgram.apply`
  (``maintained_update_seconds``, mean per delta) vs from-scratch
  recomputation of the closure per delta on the same schedule
  (``recompute_update_seconds``; warm plan cache, cold databases, on
  the ``rows`` executor — what a serving caller paid before
  maintenance existed).  The ``update_speedup`` ratio is gated
  in-script (machine-independent): at the largest size, maintenance
  must beat recompute by at least ``--min-update-speedup`` (default
  5x).  Recompute on the default ``interned`` executor is reported
  alongside, ungated (``recompute_interned_update_seconds``,
  ``update_speedup_interned``): maintained deletes still cost about
  as much as an interned recompute.
* **serving** — a live :class:`~repro.serve.LiveEngine` with one
  writer pumping delete/re-insert transactions while an interleaved
  reader asks ground point queries against the published snapshots:
  sustained update throughput (``updates_per_second``) and read-latency
  percentiles (``read_p50_seconds`` / ``read_p95_seconds`` /
  ``read_p99_seconds``).

After the update cycle the graph is back at its initial state and the
maintained closure plus its derived Theorem-3.1 counters must be
bit-identical to a cold recompute; any mismatch fails the run.
Results are written to ``BENCH_ivm.json``.

Usage::

    python benchmarks/bench_ivm.py             # full sizes
    python benchmarks/bench_ivm.py --quick     # CI smoke run
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import random
import sys
import time

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.engine.api import solve  # noqa: E402
from repro.engine.statistics import EvaluationStatistics  # noqa: E402
from repro.ivm import MaterializedProgram  # noqa: E402
from repro.query import Query  # noqa: E402
from repro.serve import LiveEngine  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.relation import Relation  # noqa: E402
from repro.workloads.graphs import layered_dag_edges  # noqa: E402

TC_PROGRAM = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)


def _workload(size: int) -> Database:
    """The ``bench_engine_micro`` DAG at *size* nodes."""
    rng = random.Random(11)
    return Database.of(
        layered_dag_edges(size // 8, 8, fanout=2, name="edge", rng=rng)
    )


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _update_schedule(database: Database, count: int) -> list[tuple]:
    """*count* single edges, drawn without replacement where possible."""
    rng = random.Random(23)
    edges = sorted(database.relation("edge").rows)
    if count <= len(edges):
        return rng.sample(edges, count)
    return [rng.choice(edges) for _ in range(count)]


def _maintained_updates(materialized: MaterializedProgram,
                        schedule: list[tuple]) -> float:
    """Mean seconds per single-edge delta through the maintenance engine."""
    start = time.perf_counter()
    for edge in schedule:
        materialized.apply(deletes={"edge": [edge]})
        materialized.apply(inserts={"edge": [edge]})
    elapsed = time.perf_counter() - start
    return elapsed / (2 * len(schedule))


def _recompute_updates(database: Database, schedule: list[tuple],
                       config: str) -> float:
    """Mean seconds per delta when every update recomputes from scratch."""
    relations = dict(database.relations)
    edge = relations["edge"]
    start = time.perf_counter()
    for removed in schedule:
        shrunk = Relation.from_canonical(
            "edge", 2, edge.rows - {removed})
        for generation in (shrunk, edge):
            relations["edge"] = generation
            solve(TC_PROGRAM, Database(dict(relations)), config=config)
    elapsed = time.perf_counter() - start
    return elapsed / (2 * len(schedule))


async def _serving_phase(database: Database, schedule: list[tuple],
                         reads_after: int) -> dict:
    """One writer pumping deltas, one reader timing snapshot queries."""
    engine = await LiveEngine(TC_PROGRAM, database).start()
    rng = random.Random(97)
    nodes = sorted(database.active_domain())
    queries = [Query.of("path", rng.choice(nodes), rng.choice(nodes))
               for _ in range(256)]
    latencies: list[float] = []
    writing = True

    async def writer() -> float:
        nonlocal writing
        start = time.perf_counter()
        for edge in schedule:
            async with engine.transaction() as session:
                session.delete("edge", edge)
            async with engine.transaction() as session:
                session.insert("edge", edge)
        elapsed = time.perf_counter() - start
        writing = False
        return elapsed

    async def reader() -> None:
        position = 0
        while writing:
            query = queries[position % len(queries)]
            position += 1
            start = time.perf_counter()
            engine.ask(query)
            latencies.append(time.perf_counter() - start)
            await asyncio.sleep(0)
        # Steady state: warm reads against the final generation.
        for _ in range(reads_after):
            query = queries[position % len(queries)]
            position += 1
            start = time.perf_counter()
            engine.ask(query)
            latencies.append(time.perf_counter() - start)

    write_seconds, _ = await asyncio.gather(writer(), reader())
    return {
        "updates_per_second": round(2 * len(schedule) / write_seconds, 1),
        "read_p50_seconds": round(_percentile(latencies, 0.50), 9),
        "read_p95_seconds": round(_percentile(latencies, 0.95), 9),
        "read_p99_seconds": round(_percentile(latencies, 0.99), 9),
        "reads": len(latencies),
        "final_generation": engine.generation,
    }


def run_benchmark(sizes, update_count, recompute_count, reads_after):
    results = []
    for size in sizes:
        database = _workload(size)

        start = time.perf_counter()
        materialized = MaterializedProgram(TC_PROGRAM, database)
        build_seconds = time.perf_counter() - start

        schedule = _update_schedule(database, update_count)
        maintained_seconds = _maintained_updates(materialized, schedule)
        recompute_seconds = _recompute_updates(
            database, schedule[:recompute_count], "rows")
        recompute_interned_seconds = _recompute_updates(
            database, schedule[:recompute_count], "interned")

        # The cycle deleted and re-inserted every edge it touched, so
        # the EDB is back at its initial state: the maintained result
        # and its derived counters must match a cold recompute exactly.
        cold_stats = EvaluationStatistics()
        cold = solve(TC_PROGRAM, database, statistics=cold_stats)
        live = materialized.closure("path")
        stats = materialized.statistics("path")
        match = (
            live.rows == cold.rows
            and stats.derivations == cold_stats.derivations
            and stats.duplicates == cold_stats.duplicates
            and stats.initial_size == cold_stats.initial_size
            and stats.result_size == cold_stats.result_size
        )

        serving = asyncio.run(
            _serving_phase(database, schedule, reads_after))

        entry = {
            "size": size,
            "edges": len(database.relation("edge").rows),
            "closure_size": len(cold.rows),
            "maintain_build_seconds": round(build_seconds, 6),
            "maintained_update_seconds": round(maintained_seconds, 6),
            "recompute_update_seconds": round(recompute_seconds, 6),
            "update_speedup": round(
                recompute_seconds / maintained_seconds, 1),
            "recompute_interned_update_seconds": round(
                recompute_interned_seconds, 6),
            "update_speedup_interned": round(
                recompute_interned_seconds / maintained_seconds, 1),
            "update_deltas": 2 * update_count,
            "results_match": match,
            **serving,
        }
        results.append(entry)
        print(
            f"size={size:4d}  build={build_seconds:7.4f}s  "
            f"maintained={maintained_seconds * 1e3:8.3f}ms/delta  "
            f"recompute={recompute_seconds * 1e3:8.3f}ms/delta  "
            f"speedup={entry['update_speedup']:7.1f}x  "
            f"(interned {entry['update_speedup_interned']:5.1f}x)  "
            f"updates/s={entry['updates_per_second']:7.1f}  "
            f"read_p50={entry['read_p50_seconds'] * 1e6:7.1f}us  "
            f"read_p99={entry['read_p99_seconds'] * 1e6:7.1f}us  "
            f"match={match}"
        )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke run: fewer sizes and deltas")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent.parent
                        / "BENCH_ivm.json")
    parser.add_argument("--min-update-speedup", type=float, default=5.0,
                        help="fail unless maintained single-edge deltas beat "
                             "per-update recomputation by this factor at the "
                             "largest size (the acceptance floor; the ratio "
                             "is machine-independent, so it is enforced in "
                             "quick mode too)")
    args = parser.parse_args(argv)

    # Quick mode keeps size 512: the acceptance criteria name single-edge
    # deltas on the TC-512 layered DAG.
    sizes = [128, 512] if args.quick else [128, 256, 512]
    update_count = 8 if args.quick else 24
    recompute_count = 3 if args.quick else 8
    reads_after = 64 if args.quick else 256

    results = run_benchmark(sizes, update_count, recompute_count,
                            reads_after)
    report = {
        "benchmark": "incremental maintenance: single-edge deltas, "
                     "maintained vs recompute-per-update, plus live "
                     "serving throughput and read-latency percentiles",
        "workload": "transitive closure over a layered DAG "
                    "(bench_engine_micro shape), exit-rule seeded",
        "program": TC_PROGRAM,
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not all(entry["results_match"] for entry in results):
        print("FAIL: maintained closure diverged from recompute",
              file=sys.stderr)
        return 1
    headline = results[-1]
    if headline["update_speedup"] < args.min_update_speedup:
        print(
            f"FAIL: maintained updates are only "
            f"{headline['update_speedup']}x recompute at size "
            f"{headline['size']}, below the {args.min_update_speedup}x "
            f"floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

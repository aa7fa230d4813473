"""Serial vs threads vs processes on the wide multi-rule scenario.

Runs the wide multi-rule workload (:mod:`repro.workloads.wide` — many
linear rules over disjoint ``link<i>``/``mark<i>`` EDB pairs, sharing
one recursive delta) at several sizes through the semi-naive driver
under three :class:`repro.engine.parallel.EvalConfig` backends:

* **serial** — the compiled single-threaded path (the PR-1 engine);
* **threads** — a thread pool sharing the parent database (GIL-bound on
  standard CPython, so this is a shareability/overhead check more than a
  speedup);
* **processes** — a process pool that receives the EDB once per worker
  and ships hash-partitioned deltas per iteration.

Every backend must produce the identical result relation and identical
derivation/duplicate statistics (the Theorem 3.1 accounting); any
mismatch fails the run regardless of mode.  The speedup floor is only
enforced on machines with at least two usable CPUs — on a single core a
parallel backend cannot beat serial, and the report records that
honestly.  Results are written to ``BENCH_parallel.json``.

Usage::

    python benchmarks/bench_parallel.py             # full sizes, 3 repeats
    python benchmarks/bench_parallel.py --quick     # CI smoke run
    python benchmarks/bench_parallel.py --quick --executor batch
                                                    # batch executor on
                                                    # every backend
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datalog.parser import parse_rule  # noqa: E402
from repro.engine.naive import naive_closure  # noqa: E402
from repro.engine.parallel import EvalConfig  # noqa: E402
from repro.engine.plan import clear_plan_cache  # noqa: E402
from repro.engine.seminaive import seminaive_closure  # noqa: E402
from repro.engine.statistics import EvaluationStatistics  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.relation import Relation  # noqa: E402
from repro.workloads.graphs import layered_dag_edges  # noqa: E402
from repro.workloads.wide import wide5_workload, wide_multirule_workload  # noqa: E402

NUM_RULES = 6
WIDTH = 16

#: The wide 5-ary side benchmark (per-entry ``wide5_*`` series): the
#: paper's wide-head rule shape, used to measure the interned executor's
#: multi-carry fused head and the incremental maintenance of a growing
#: override's interned columns/indexes (naive driver), plus the
#: shared-memory process exchange (``wide5_shm``) on the same shape.
WIDE5_WIDTH = 12
WIDE5_RULES = 4

#: The packed TC-512 series (``tc512_interned_*``): binary transitive
#: closure over a *wide* 512-node layered DAG — few iterations with fat
#: deltas, the profile where farming the packed grouped join out to
#: workers can actually pay.  The interned executor runs the whole
#: closure in packed-id space on every backend; ``threads`` shares the
#: parent's accumulator through the striped sink, ``processes``
#: exchanges deltas/results through shared-memory segments.
TC512_LAYERS = 8
TC512_WIDTH = 64
TC512_FANOUT = 8

#: The ≥2-CPU floor for ``tc512_speedup_processes``: the shared-memory
#: exchange must beat the serial packed closure outright.  This is the
#: single source for the full-mode gate below *and* is emitted into the
#: report as ``tc512_processes_floor`` so the CI gate
#: (``check_bench_regression.py --speedup-floor`` in
#: ``.github/workflows/ci.yml``) can be kept in sync with it.
TC512_PROCESSES_FLOOR = 1.02


def _configs(workers: int, executor: str) -> dict[str, EvalConfig]:
    return {
        "serial": EvalConfig(executor=executor),
        "threads": EvalConfig(executor=executor, backend="threads",
                              max_workers=workers),
        "processes": EvalConfig(executor=executor, backend="processes",
                                max_workers=workers),
    }


def _run_once(layers: int, config: EvalConfig | None):
    """One cold evaluation: fresh EDB/index cache, cold plan cache."""
    clear_plan_cache()
    rules, database, initial = wide_multirule_workload(
        layers, WIDTH, num_rules=NUM_RULES, rng=random.Random(7)
    )
    # Rebuild so repeated runs never share a warm index cache.
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    start = time.perf_counter()
    relation = seminaive_closure(rules, initial, database, statistics,
                                 config=config)
    elapsed = time.perf_counter() - start
    return elapsed, relation, statistics


def _stats_key(statistics: EvaluationStatistics) -> tuple[int, int, int, int]:
    return (
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
        statistics.result_size,
    )


def _run_wide5(layers, closure, config):
    """One cold wide 5-ary evaluation under *closure*/*config*."""
    clear_plan_cache()
    rules, database, initial = wide5_workload(
        layers, WIDE5_WIDTH, num_rules=WIDE5_RULES, rng=random.Random(7)
    )
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    start = time.perf_counter()
    relation = closure(rules, initial, database, statistics, config=config)
    elapsed = time.perf_counter() - start
    return elapsed, relation, statistics


def run_wide5(layers, repeats, workers):
    """The wide5 series for one entry: executors + delta maintenance.

    ``wide5_seminaive_*`` compares batch vs interned on the multi-carry
    5-ary head; ``wide5_naive_*`` compares incremental maintenance of
    the growing total's interned columns/indexes
    (``incremental_deltas=True``, the default) against a per-iteration
    rebuild; ``wide5_shm`` runs the packed closure on the process
    backend, exchanging the 5-ary grouped-chain deltas through
    shared-memory segments.  Every variant must agree with the serial
    rows executor on the result relation and the derivation/duplicate
    statistics.
    """
    variants = {
        "wide5_seminaive_rows": (seminaive_closure, EvalConfig(executor="rows")),
        "wide5_seminaive_batch": (seminaive_closure, EvalConfig(executor="batch")),
        "wide5_seminaive_interned": (
            seminaive_closure, EvalConfig(executor="batch", intern=True)),
        "wide5_shm": (
            seminaive_closure,
            EvalConfig(executor="batch", intern=True, backend="processes",
                       max_workers=workers)),
        "wide5_naive_rows": (naive_closure, EvalConfig(executor="rows")),
        "wide5_naive_interned": (
            naive_closure, EvalConfig(executor="batch", intern=True)),
        "wide5_naive_rebuild": (
            naive_closure,
            EvalConfig(executor="batch", intern=True,
                       incremental_deltas=False)),
    }
    timings = {}
    signatures = {}
    for name, (closure, config) in variants.items():
        best = None
        for _ in range(repeats):
            elapsed, relation, statistics = _run_wide5(layers, closure, config)
            if best is None or elapsed < best:
                best = elapsed
            signatures[name] = (relation.rows, _stats_key(statistics))
        timings[name] = best
    match = (
        all(signatures[name] == signatures["wide5_seminaive_rows"]
            for name in ("wide5_seminaive_batch", "wide5_seminaive_interned",
                         "wide5_shm"))
        and all(signatures[name] == signatures["wide5_naive_rows"]
                for name in ("wide5_naive_interned", "wide5_naive_rebuild"))
    )
    series = {f"{name}_seconds": round(value, 6)
              for name, value in timings.items()}
    series["wide5_incremental_speedup"] = round(
        timings["wide5_naive_rebuild"] / timings["wide5_naive_interned"], 2
    )
    series["wide5_match"] = match
    print(
        f"  wide5 layers={layers:3d}  "
        f"seminaive batch={timings['wide5_seminaive_batch']:7.3f}s "
        f"interned={timings['wide5_seminaive_interned']:7.3f}s  "
        f"naive interned={timings['wide5_naive_interned']:7.3f}s "
        f"rebuild={timings['wide5_naive_rebuild']:7.3f}s "
        f"(incremental {series['wide5_incremental_speedup']:4.2f}x)  "
        f"match={match}"
    )
    return series


def _tc512_workload():
    """Binary TC over the wide 512-node layered DAG, identity-seeded."""
    edge = layered_dag_edges(TC512_LAYERS, TC512_WIDTH, fanout=TC512_FANOUT,
                             name="edge", rng=random.Random(17))
    database = Database.of(edge)
    initial = Relation.of(
        "path", 2, [(node, node) for node in range(TC512_LAYERS * TC512_WIDTH)]
    )
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    return rules, database, initial


def run_tc512(repeats, workers):
    """The packed TC-512 entry: the interned executor on every backend.

    All three backends run the identical packed-id closure (grouped
    binary join, Counter-free ``total - |fresh|`` accounting) and must
    agree bit-for-bit on the result relation and every statistic.  The
    ``tc512_speedup_*`` fields feed the CI speedup floors
    (``check_bench_regression.py --speedup-floor``), which are enforced
    only on machines with at least two usable CPUs.
    """
    variants = {
        "tc512_interned_serial": EvalConfig(executor="batch", intern=True),
        "tc512_interned_threads": EvalConfig(
            executor="batch", intern=True, backend="threads",
            max_workers=workers),
        "tc512_interned_processes": EvalConfig(
            executor="batch", intern=True, backend="processes",
            max_workers=workers),
    }
    timings = {}
    signatures = {}
    for name, config in variants.items():
        best = None
        for _ in range(repeats):
            clear_plan_cache()
            rules, database, initial = _tc512_workload()
            database = Database(dict(database.relations))
            statistics = EvaluationStatistics()
            start = time.perf_counter()
            relation = seminaive_closure(rules, initial, database, statistics,
                                         config=config)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
            signatures[name] = (relation.rows, _stats_key(statistics))
        timings[name] = best
    match = all(signature == signatures["tc512_interned_serial"]
                for signature in signatures.values())
    serial = timings["tc512_interned_serial"]
    entry = {
        "size": TC512_LAYERS * TC512_WIDTH,
        "layers_x_width_x_fanout": (
            f"{TC512_LAYERS}x{TC512_WIDTH}x{TC512_FANOUT}"
        ),
        "tc512_speedup_threads": round(
            serial / timings["tc512_interned_threads"], 2),
        "tc512_speedup_processes": round(
            serial / timings["tc512_interned_processes"], 2),
        "tc512_processes_floor": TC512_PROCESSES_FLOOR,
        "results_and_counts_match": match,
    }
    entry.update({f"{name}_seconds": round(value, 6)
                  for name, value in timings.items()})
    print(
        f"tc512 ({entry['layers_x_width_x_fanout']})  "
        f"serial={serial:7.3f}s  "
        f"threads={timings['tc512_interned_threads']:7.3f}s "
        f"({entry['tc512_speedup_threads']:4.2f}x)  "
        f"processes={timings['tc512_interned_processes']:7.3f}s "
        f"({entry['tc512_speedup_processes']:4.2f}x)  match={match}"
    )
    return entry


def run_benchmark(sizes, repeats, workers, executor="rows"):
    results = []
    for layers in sizes:
        timings: dict[str, float] = {}
        signatures: dict[str, list] = {}
        relations = {}
        stats = {}
        for backend, config in _configs(workers, executor).items():
            best = None
            signatures[backend] = []
            for _ in range(repeats):
                elapsed, relation, statistics = _run_once(layers, config)
                if best is None or elapsed < best:
                    best = elapsed
                # Every repeat's outcome is checked, not just the last.
                signatures[backend].append(
                    (relation.rows, _stats_key(statistics))
                )
                relations[backend] = relation
                stats[backend] = statistics
            timings[backend] = best

        serial_signature = signatures["serial"][0]
        matches = {
            backend: all(
                signature == serial_signature
                for signature in signatures[backend]
            )
            for backend in ("serial", "threads", "processes")
        }
        entry = {
            "layers": layers,
            "width": WIDTH,
            "num_rules": NUM_RULES,
            "serial_seconds": round(timings["serial"], 6),
            "threads_seconds": round(timings["threads"], 6),
            "processes_seconds": round(timings["processes"], 6),
            "speedup_threads": round(timings["serial"] / timings["threads"], 2),
            "speedup_processes": round(timings["serial"] / timings["processes"], 2),
            "result_size": len(relations["serial"]),
            "derivations": stats["serial"].derivations,
            "duplicates": stats["serial"].duplicates,
            "iterations": stats["serial"].iterations,
            "results_and_counts_match": all(matches.values()),
            "matches": matches,
        }
        # Best-of-2 regardless of mode: the wide5 series sit in the
        # 10-100ms range where a single sample is scheduler noise.
        entry.update(run_wide5(layers, 2, workers))
        entry["results_and_counts_match"] = (
            entry["results_and_counts_match"] and entry["wide5_match"]
        )
        results.append(entry)
        print(
            f"layers={layers:3d}  serial={timings['serial']:7.3f}s  "
            f"threads={timings['threads']:7.3f}s ({entry['speedup_threads']:4.2f}x)  "
            f"processes={timings['processes']:7.3f}s "
            f"({entry['speedup_processes']:4.2f}x)  "
            f"result={entry['result_size']}  match={entry['results_and_counts_match']}"
        )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke run: small sizes, one repeat, "
                             "correctness gate only")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent.parent
                        / "BENCH_parallel.json")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the parallel backends "
                             "(default: CPU count)")
    parser.add_argument("--executor", choices=["rows", "batch", "interned"],
                        default="rows",
                        help="per-rule executor to run on every backend "
                             "(default: rows; 'interned' is the batch "
                             "executor's int specialisation)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="full mode: fail unless the best parallel backend "
                             "reaches this speedup at the largest size "
                             "(skipped on single-CPU machines and in --quick)")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    workers = args.workers if args.workers is not None else cpus
    sizes = [6, 10] if args.quick else [16, 24, 32]
    repeats = 1 if args.quick else 3

    results = run_benchmark(sizes, repeats, workers, args.executor)
    largest = results[-1]
    best_speedup = max(largest["speedup_threads"], largest["speedup_processes"])
    # The packed TC-512 entry (own size key; best-of-3 in every mode —
    # each repeat pays worker-pool start-up inside the timed region, so
    # an extra sample materially narrows the parallel series' noise).
    tc512 = run_tc512(3, workers)
    results.append(tc512)
    report = {
        "benchmark": "parallel batched fixpoint vs serial compiled path",
        "workload": "wide multi-rule mark-restricted reachability "
                    "(repro.workloads.wide), identity-seeded",
        "mode": "quick" if args.quick else "full",
        "executor": args.executor,
        "cpu_count": cpus,
        "workers": workers,
        "repeats": repeats,
        "best_parallel_speedup": best_speedup,
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not all(entry["results_and_counts_match"] for entry in results):
        print("FAIL: parallel and serial compiled paths disagree", file=sys.stderr)
        return 1
    if not args.quick:
        # Incremental delta maintenance must not lose to per-iteration
        # rebuilds on the wide 5-ary naive workload (5% tolerance; only
        # gated when the timings are above the noise floor).
        incremental = largest["wide5_naive_interned_seconds"]
        rebuild = largest["wide5_naive_rebuild_seconds"]
        if min(incremental, rebuild) > 0.05 and incremental > rebuild * 1.05:
            print(
                f"FAIL: incremental delta maintenance ({incremental:.3f}s) is "
                f"slower than per-iteration rebuild ({rebuild:.3f}s) on the "
                f"wide5 naive workload at layers={largest['layers']}",
                file=sys.stderr,
            )
            return 1
    if not args.quick:
        if cpus < 2:
            print(
                f"note: only {cpus} usable CPU(s); the {args.min_speedup}x "
                "speedup floor is not enforced on this machine",
            )
        else:
            if best_speedup < args.min_speedup:
                print(
                    f"FAIL: best parallel speedup {best_speedup}x at layers="
                    f"{largest['layers']} is below the {args.min_speedup}x "
                    f"floor",
                    file=sys.stderr,
                )
                return 1
            if tc512["tc512_speedup_processes"] < TC512_PROCESSES_FLOOR:
                # The packed shared-memory exchange must beat the serial
                # packed closure outright where parallelism exists at all.
                print(
                    f"FAIL: tc512 interned processes speedup "
                    f"{tc512['tc512_speedup_processes']}x is below the "
                    f"{TC512_PROCESSES_FLOOR}x floor",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

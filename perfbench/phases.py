"""The three phases every run executes: cold analytics, live serving, restart.

Each phase drives the engine only through public entry points in their
default configuration (``solve``, ``RecursiveQueryEngine.query``,
``QueryEngine.ask``, a durable ``LiveEngine`` and ``LiveEngine.open``)
and passes no executor, backend or planner setting, so a change of
default shows up here as a change of the end-to-end numbers.

One client runs a closed loop: it sends the next operation only after
the previous one returned.  Every operation is counted as attempted;
every exception it raises and every check it fails is counted as
failed, and nothing is retried.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro import (
    Database,
    DurableCoordinator,
    EqualitySelection,
    EvaluationStatistics,
    LiveEngine,
    QueryEngine,
    RecursiveQueryEngine,
    Relation,
    parse_program,
    solve,
)
from repro.engine.conjunctive import evaluate_rule_multiset_interpreted
from repro.engine.reference import seminaive_closure_interpreted

from inputs import (
    JOB_KINDS,
    MINIMUM_OPS,
    TC_PROGRAM,
    Job,
    Shape,
    live_graph,
    make_job,
    op_stream,
    query_text,
    rng_for,
)
from calibrate import REFERENCE_S, calibrate
from stats import median

#: Samples each phase takes even when ``--seconds`` has passed (the
#: live phase's are ``inputs.MINIMUM_OPS``).
MIN_ROUNDS = 3
MIN_RESTARTS = 3
#: How many times a run sets up from scratch (``setup_s`` is the median).
SETUPS = 5
#: One extra set-up every this many iterations.
SETUP_EVERY = 3
#: Live ops per iteration.
LIVE_SLICE = 250
#: A run stops at this multiple of ``--seconds`` even short of its
#: minimums, and then counts a failed check.
MAX_OVERRUN = 2.5
#: The timings of serving work: the live phase's reads and commits,
#: wall and CPU, and recovery, which replays commits through the same
#: maintenance.
SERVING_TIMINGS = frozenset(
    [f"{kind}{clock}_{unit}"
     for kind, unit in (("read", "us"), ("insert", "ms"), ("delete", "ms"))
     for clock in ("", "_cpu")] + ["recovery_s"])
#: How much of a change of the calibration loop's speed the serving
#: timings follow, as a power of the factor (see ``calibrate.py``).
SERVING_SENSITIVITY = 0.5


@dataclass
class Outcome:
    """Samples, counts and failures gathered over one run."""

    #: Samples in reference units (see ``calibrate.py``); ``raw`` as timed.
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    #: Calibration-loop seconds, timed before every phase step.
    calibrations: list[float] = field(default_factory=list)
    #: ``(index of the calibration before the step, metric, seconds)``.
    timings: list[tuple[int, str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    #: Theorem-3.1 counters of every timed analytics job.
    job_statistics: list[EvaluationStatistics] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        """A measured value that is not a timing (reported as is)."""
        self.samples.setdefault(metric, []).append(value)

    def time(self, metric: str, seconds: float) -> None:
        """A timing of the current step, scaled by :meth:`settle`."""
        self.timings.append((len(self.calibrations) - 1, metric, seconds))

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def factor(self, step: int) -> float:
        """``REFERENCE_S`` over the median calibration around *step*.

        The median of the eight calibrations nearest the step follows
        the machine's slow spells (seconds long) while no single noisy
        calibration moves it.
        """
        window = self.calibrations[max(0, step - 3):step + 5]
        return REFERENCE_S / median(window)

    def settle(self) -> None:
        """Turn every timing into a sample in reference units.

        Serving timings follow the calibration loop only in part, so
        they are scaled by the factor to the power
        ``SERVING_SENSITIVITY``.
        """
        for step, metric, value in self.timings:
            factor = self.factor(step)
            if metric in SERVING_TIMINGS:
                factor **= SERVING_SENSITIVITY
            self.raw.setdefault(metric, []).append(value)
            self.samples.setdefault(metric, []).append(value * factor)
        self.timings.clear()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.mismatches.append(what)

    def error(self, what: str, exception: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exception).__name__}: {exception}")


def _fingerprint(generation: int, edges: Relation, closure: Relation,
                 statistics: EvaluationStatistics) -> tuple:
    """What must survive a crash: generation, EDB, closure, counters."""
    return (generation, edges.rows, closure.rows,
            (statistics.derivations, statistics.duplicates,
             statistics.initial_size, statistics.result_size))


def _snapshot_fingerprint(snapshot: Any) -> tuple:
    return _fingerprint(snapshot.generation, snapshot.relation("edge"),
                        snapshot.closure("path"), snapshot.statistics("path"))


# -- set-up ------------------------------------------------------------------

@dataclass
class Store:
    """A crashed durable directory and the state it must recover to."""

    path: str
    twin: tuple
    #: Rows the store holds: checkpointed rows plus one per WAL record.
    rows: int


@dataclass
class Prepared:
    """What one set-up leaves for the live and restart phases."""

    live_engine: LiveEngine
    live_edges: Relation
    #: The seeded op stream against *live_edges*.
    live_ops: Iterator[tuple]
    store: Store


async def set_up(shape: Shape, seed: int, root: str, tracer: Any,
                 index: int) -> Prepared:
    """Generate inputs, start the durable live engine, crash a WAL store.

    The live engine's start includes its cold build and creation
    checkpoint.  The restart store gets its creation checkpoint plus
    ``restart_records`` single-edge commits, then is closed without a
    close-time checkpoint: the WAL suffix is what recovery replays.
    Each set-up of a run serves and crashes graphs of its own.
    """
    live_purpose = f"live-{index}"
    live_edges = live_graph(shape, seed, live_purpose)
    purpose = f"restart-{index}"
    restart_edges = live_graph(shape, seed, purpose)
    live_path = os.path.join(root, f"live-{index}")
    crashed_path = os.path.join(root, f"crashed-{index}")
    with tracer.span("bench.setup", phase="setup"):
        engine = await LiveEngine(TC_PROGRAM, Database.of(live_edges),
                                  path=live_path).start()
    writes = op_stream(restart_edges, shape, seed, purpose, writes_only=True)
    with tracer.span("bench.setup", phase="setup"):
        coordinator = DurableCoordinator.open(
            crashed_path, TC_PROGRAM, Database.of(restart_edges))
        rows = (len(restart_edges) + len(coordinator.closure("path"))
                + shape.restart_records)
        for _ in range(shape.restart_records):
            kind, edge = next(writes)
            if kind == "delete":
                coordinator.apply(deletes={"edge": [edge]})
            else:
                coordinator.apply(inserts={"edge": [edge]})
        twin = _fingerprint(coordinator.generation,
                            coordinator.snapshot().relation("edge"),
                            coordinator.closure("path"),
                            coordinator.statistics("path"))
        coordinator.close(checkpoint=False)
    return Prepared(engine, live_edges,
                    op_stream(live_edges, shape, seed, live_purpose),
                    Store(crashed_path, twin, rows))


async def discard(prepared: Prepared, tracer: Any) -> None:
    """Close the live engine and delete its directory (the store stays)."""
    with tracer.span("bench.teardown", phase="teardown"):
        await prepared.live_engine.close()
    shutil.rmtree(prepared.live_engine.path, ignore_errors=True)


# -- analytics -----------------------------------------------------------------

def run_job(job: Job) -> tuple[frozenset, EvaluationStatistics, str]:
    """One cold evaluation through the job's public entry point."""
    if job.kind in ("tc", "sg"):
        statistics = EvaluationStatistics()
        closure = solve(job.program, job.database, statistics=statistics)
        return closure.rows, statistics, "solve"
    if job.kind == "decomposed":
        result = RecursiveQueryEngine().query(job.program, "path", job.database)
        return result.relation.rows, result.statistics, result.plan.strategy.value
    if job.kind == "separable":
        result = RecursiveQueryEngine().query(
            job.program, "reach", job.database,
            selection=EqualitySelection(0, job.source))
        return result.relation.rows, result.statistics, result.plan.strategy.value
    answer = QueryEngine(job.database, job.program).ask(f"path({job.source}, Y)?")
    statistics = answer.statistics or EvaluationStatistics()
    return answer.rows, statistics, answer.strategy


def oracle(job: Job) -> tuple[frozenset, EvaluationStatistics]:
    """The interpreted reference evaluation of the job's whole closure."""
    program = parse_program(job.program)
    (predicate,) = program.idb_predicates
    recursion = program.linear_recursion_of(predicate)
    initial: set = set()
    for rule in recursion.exit_rules:
        initial.update(evaluate_rule_multiset_interpreted(rule, job.database))
    statistics = EvaluationStatistics()
    closure = seminaive_closure_interpreted(
        recursion.recursive_rules,
        Relation(predicate.name, predicate.arity, frozenset(initial)),
        job.database, statistics)
    return closure.rows, statistics


def _check_job(outcome: Outcome, job: Job, rows: frozenset,
               statistics: EvaluationStatistics) -> None:
    """The oracle comparison for one job (outside any timed region)."""
    expected, reference = oracle(job)
    if job.kind in ("separable", "bound_query"):
        expected = frozenset(row for row in expected if row[0] == job.source)
    outcome.check(rows == expected, f"{job.kind}: rows differ from the oracle")
    if job.kind in ("tc", "sg"):
        outcome.check(
            (statistics.derivations, statistics.duplicates)
            == (reference.derivations, reference.duplicates),
            f"{job.kind}: derivations/duplicates "
            f"({statistics.derivations}, {statistics.duplicates}) differ from "
            f"the oracle ({reference.derivations}, {reference.duplicates})")
    elif job.kind == "decomposed":
        outcome.check(statistics.duplicates <= reference.duplicates,
                      f"decomposed: {statistics.duplicates} duplicates exceed "
                      f"direct evaluation's {reference.duplicates}")


class Analytics:
    """Back-to-back cold jobs, each on a freshly generated database.

    Construction runs the untimed warm-up pass.  Each :meth:`step` runs
    one round: every job kind once, on the round's own inputs.  Each
    job's Theorem-3.1 identity is checked on every run of it; one
    seed-chosen round per job kind is checked in full against the
    interpreted oracle once the run is over.
    """

    def __init__(self, shape: Shape, seed: int, outcome: Outcome, tracer: Any):
        self.shape, self.seed, self.outcome, self.tracer = shape, seed, outcome, tracer
        for kind in JOB_KINDS:
            job = make_job(kind, shape, seed, "warm-up")
            outcome.attempted += 1
            try:
                with tracer.span("bench.warm-up", phase="warm-up", kind=kind):
                    run_job(job)
            except Exception as exception:  # noqa: BLE001 - counted, reported
                outcome.error(f"warm-up {kind}", exception)
        self.check_rounds = {kind: rng_for(seed, "check", kind).randrange(MIN_ROUNDS)
                             for kind in JOB_KINDS}
        self.to_check: list[tuple[Job, frozenset, EvaluationStatistics]] = []
        self.strategies: dict[str, str] = {}
        self.rounds = 0

    def step(self) -> None:
        outcome = self.outcome
        for kind in JOB_KINDS:
            job = make_job(kind, self.shape, self.seed, self.rounds)
            outcome.attempted += 1
            try:
                with self.tracer.span("bench.job", phase="analytics", kind=kind):
                    begin = time.perf_counter()
                    rows, statistics, strategy = run_job(job)
                    elapsed = time.perf_counter() - begin
            except Exception as exception:  # noqa: BLE001 - counted, reported
                outcome.error(f"analytics {kind}", exception)
                continue
            outcome.time(f"{kind}_s", elapsed)
            outcome.job_statistics.append(statistics)
            self.strategies[kind] = strategy
            if kind in ("tc", "sg", "decomposed"):
                outcome.check(
                    statistics.derivations - statistics.duplicates
                    == statistics.result_size - statistics.initial_size,
                    f"{kind}: derivations - duplicates != new rows")
            if self.check_rounds[kind] == self.rounds:
                self.to_check.append((job, rows, statistics))
        self.rounds += 1

    @property
    def done(self) -> bool:
        return self.rounds >= MIN_ROUNDS

    def check(self) -> None:
        """The oracle comparisons (after the run, outside timing)."""
        self.outcome.details["analytics"] = {
            "rounds": self.rounds, "strategies": self.strategies,
            "oracle_checked_rounds": self.check_rounds,
        }
        for job, rows, statistics in self.to_check:
            _check_job(self.outcome, job, rows, statistics)
        for kind, round_index in self.check_rounds.items():
            self.outcome.check(round_index < self.rounds,
                               f"{kind}: oracle round {round_index} never ran")


# -- live ----------------------------------------------------------------------

@dataclass
class Served:
    """One live engine's turn: what it was sent and the state it was left in."""

    prepared: Prepared
    #: The EDB its acknowledged writes leave.
    edges: set
    ops: int = 0
    final: Any = None
    wal_bytes: int = 0


class Live:
    """A seeded, mostly-read op stream against a durable live engine.

    Every set-up starts a live engine on a graph of its own; the phase
    serves the newest one and closes the one before, so a run's live
    metrics average over many graph shapes, not one seed's (on ``lean``
    one graph per run moved the commit medians by up to a fifth from
    seed to seed), while one engine is open at a time.  Reads are
    ``LiveEngine.ask`` calls on the client's own thread; writes are
    single-edge transactions.  Every acknowledged write is checked in
    the snapshot published next, and every read against the maintained
    closure of the snapshot it was answered from.

    Each op is timed twice: wall time, and the CPU time the process
    spent on it (``time.process_time``, which counts the commit's
    worker thread and leaves out time the host takes the CPU away, the
    hand-off to that thread and the wait on ``fsync``).  The read
    median is wall time; the read tail and the commit metrics are CPU
    time, because on a shared host stolen and waiting time lands on a
    random few of the slower ops and moved the wall-time commit tails
    by more than half from run to run of the same code.  The wall-time
    figures are in the detail report.
    """

    def __init__(self, prepared: Prepared, outcome: Outcome, tracer: Any):
        self.outcome, self.tracer = outcome, tracer
        self.served = [Served(prepared, set(prepared.live_edges.rows))]
        self.counts = dict.fromkeys(MINIMUM_OPS, 0)
        self.read_us: dict[str, list[float]] = {}
        self.fsyncs = 0
        self.commits_shed = self.query_timeouts = 0

    async def serve(self, prepared: Prepared) -> None:
        """Close the engine being served and go on with *prepared*'s."""
        await self._retire(self.served[-1])
        self.served.append(Served(prepared, set(prepared.live_edges.rows)))

    async def _retire(self, turn: Served) -> None:
        engine = turn.prepared.live_engine
        turn.final = engine.snapshot()
        turn.wal_bytes = os.path.getsize(os.path.join(engine.path, "wal.log"))
        self.commits_shed += engine.health.commits_shed
        self.query_timeouts += engine.health.query_timeouts
        await discard(turn.prepared, self.tracer)

    @property
    def done(self) -> bool:
        return all(self.counts[kind] >= minimum
                   for kind, minimum in MINIMUM_OPS.items())

    async def step(self, ops: int) -> None:
        counts = getattr(self.tracer, "counts", {})
        fsyncs = counts.get("fsyncs", 0)
        turn = self.served[-1]
        turn.ops += ops
        for _ in range(ops):
            op = next(turn.prepared.live_ops)
            if op[0] in ("insert", "delete"):
                await self._write(turn, op)
            else:
                self._read(turn.prepared.live_engine, op)
        self.fsyncs += counts.get("fsyncs", 0) - fsyncs

    async def _write(self, turn: Served, op: tuple) -> None:
        kind, edge = op
        engine, outcome = turn.prepared.live_engine, self.outcome
        outcome.attempted += 1
        self.counts[kind] += 1
        generation = engine.generation
        session = engine.transaction()
        getattr(session, kind)("edge", edge)
        cpu = time.process_time()
        begin = time.perf_counter()
        try:
            with self.tracer.span("bench.commit", phase="live", kind=kind):
                with self.tracer.span("serve.commit", kind=kind):
                    await session.commit()
        except Exception as exception:  # noqa: BLE001 - counted, reported
            outcome.time(f"{kind}_ms", float("inf"))
            outcome.time(f"{kind}_cpu_ms", float("inf"))
            outcome.error(f"live {kind}", exception)
            return
        outcome.time(f"{kind}_ms", (time.perf_counter() - begin) * 1e3)
        outcome.time(f"{kind}_cpu_ms", (time.process_time() - cpu) * 1e3)
        (turn.edges.add if kind == "insert" else turn.edges.discard)(edge)
        snapshot = engine.snapshot()
        outcome.check(
            snapshot.generation == generation + 1
            and (edge in snapshot.relation("edge").rows) == (kind == "insert"),
            f"live {kind} {edge} not visible at the next snapshot")

    def _read(self, engine: LiveEngine, op: tuple) -> None:
        outcome = self.outcome
        outcome.attempted += 1
        self.counts[op[0]] += 1
        snapshot = engine.snapshot()
        cpu = time.process_time()
        begin = time.perf_counter()
        try:
            with self.tracer.span("bench.read", phase="live", kind=op[0]):
                with self.tracer.span("serve.read", kind=op[0]):
                    answer = engine.ask(query_text(op))
        except Exception as exception:  # noqa: BLE001 - counted, reported
            outcome.time("read_us", float("inf"))
            outcome.time("read_cpu_us", float("inf"))
            outcome.error(f"live read {op[0]}", exception)
            return
        elapsed = (time.perf_counter() - begin) * 1e6
        outcome.time("read_us", elapsed)
        outcome.time("read_cpu_us", (time.process_time() - cpu) * 1e6)
        self.read_us.setdefault(op[0], []).append(elapsed)
        outcome.check(answer.rows == _expected_read(op, snapshot),
                      f"live read {query_text(op)} differs from the closure")

    async def finish(self) -> None:
        """Close the engine being served and record the phase's totals."""
        await self._retire(self.served[-1])
        self.outcome.details["live"] = {
            "ops": self.counts, "engines": len(self.served),
            "ops_per_engine": [turn.ops for turn in self.served],
            "generation": sum(turn.final.generation for turn in self.served),
            "wal_bytes": sum(turn.wal_bytes for turn in self.served),
            "commits_shed": self.commits_shed,
            "query_timeouts": self.query_timeouts,
            "fsyncs": self.fsyncs,
            "read_p50_us_by_kind": {kind: median(samples)
                                    for kind, samples in self.read_us.items()},
        }

    def check(self) -> None:
        """Each engine's final closure and counters equal a cold ``solve()``."""
        outcome = self.outcome
        for turn in self.served:
            final = turn.final
            outcome.check(final.relation("edge").rows == turn.edges,
                          "live: final EDB differs from the acknowledged writes")
            statistics = EvaluationStatistics()
            cold = solve(TC_PROGRAM, Database.of(final.relation("edge")),
                         statistics=statistics)
            maintained = final.statistics("path")
            outcome.check(final.closure("path").rows == cold.rows,
                          "live: maintained closure differs from a cold solve()")
            outcome.check(
                (maintained.derivations, maintained.duplicates)
                == (statistics.derivations, statistics.duplicates),
                "live: maintained Theorem-3.1 counters differ from a cold solve()")


def _expected_read(op: tuple, snapshot: Any) -> frozenset:
    closure = snapshot.closure("path").rows
    if op[0] == "ground":
        pair = (op[1], op[2])
        return frozenset([pair]) if pair in closure else frozenset()
    return frozenset(row for row in closure if row[0] == op[1])


# -- restart ---------------------------------------------------------------------

def _store_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path)
               if name.endswith(".ckpt") or name == "wal.log")


class Restart:
    """Recover a crashed store, checkpoint it, reopen from the checkpoint.

    Each :meth:`step` recovers a fresh copy of one of the run's crashed
    stores, in turn.  ``recovery_s`` runs from ``LiveEngine.open`` to
    the first answered query; the recovered state must equal the twin
    captured before the crash, with every WAL record replayed and
    nothing truncated.
    """

    def __init__(self, shape: Shape, seed: int, outcome: Outcome, tracer: Any,
                 root: str):
        self.shape, self.outcome = shape, outcome
        self.tracer, self.root = tracer, root
        self.query = (f"path({rng_for(seed, 'restart', 'query').randrange(shape.width)}"
                      f", Y)?")
        self.stores: list[Store] = []
        self.samples = 0
        self.reopen: list[float] = []
        self.replayed: list[int] = []

    def add(self, store: Store) -> None:
        self.stores.append(store)
        self.outcome.add("store_bytes_per_row", _store_bytes(store.path) / store.rows)

    @property
    def done(self) -> bool:
        return self.samples >= MIN_RESTARTS

    async def _open(self, path: str, span: str) -> tuple[LiveEngine, float]:
        begin = time.perf_counter()
        with self.tracer.span(span, phase="restart"):
            with self.tracer.span("serve.open"):
                engine = await LiveEngine.open(path)
                engine.ask(self.query)
        return engine, time.perf_counter() - begin

    async def step(self) -> None:
        store = self.stores[self.samples % len(self.stores)]
        outcome, twin = self.outcome, store.twin
        path = os.path.join(self.root, f"restart-{self.samples}")
        shutil.copytree(store.path, path)
        self.samples += 1
        outcome.attempted += 3
        engine: Optional[LiveEngine] = None
        try:
            engine, elapsed = await self._open(path, "bench.recover")
            outcome.time("recovery_s", elapsed)
            report = engine.recovery
            self.replayed.append(report.records_replayed)
            outcome.check(
                report.records_replayed == self.shape.restart_records
                and report.records_truncated == 0 and not report.torn_tail
                and not report.corrupt_tail,
                f"restart: recovery report {report.as_dict()}")
            outcome.check(_snapshot_fingerprint(engine.snapshot()) == twin,
                          "restart: recovered state differs from the uncrashed twin")
            begin = time.perf_counter()
            with self.tracer.span("bench.checkpoint", phase="restart"):
                with self.tracer.span("serve.checkpoint"):
                    await engine.checkpoint()
            outcome.time("checkpoint_s", time.perf_counter() - begin)
            await engine.close()
            engine = None
            engine, elapsed = await self._open(path, "bench.reopen")
            self.reopen.append(elapsed)
            outcome.check(
                engine.recovery.records_replayed == 0
                and _snapshot_fingerprint(engine.snapshot()) == twin,
                "restart: checkpoint-only reopen differs from the twin")
        except Exception as exception:  # noqa: BLE001 - counted, reported
            outcome.error("restart", exception)
        finally:
            if engine is not None:
                await engine.close()
            shutil.rmtree(path, ignore_errors=True)

    def finish(self) -> None:
        self.outcome.details["restart"] = {
            "samples": self.samples, "stores": len(self.stores),
            "records": self.shape.restart_records,
            "records_replayed": self.replayed,
            "reopen_s": sorted(self.reopen),
        }


# -- the run -------------------------------------------------------------------

async def run_phases(shape: Shape, seed: int, seconds: float, root: str,
                     tracer: Any, outcome: Outcome) -> list:
    """Interleave the phases until ``seconds`` have passed.

    One iteration runs an analytics round, a slice of the live stream
    and a restart sample, and every third iteration one more set-up
    (timed; the live phase goes on with its live engine, and its crashed
    store joins the ones the restart phase recovers in turn).  The
    calibration loop is timed before every step.  Interleaving spreads
    every metric's samples over the whole run, so a slow spell of the
    machine weighs on all of them alike instead of on whichever phase
    it hit.
    """
    outcome.calibrate()
    begin = time.perf_counter()
    prepared = await set_up(shape, seed, root, tracer, 0)
    outcome.time("setup_s", time.perf_counter() - begin)
    setups = 1
    live = Live(prepared, outcome, tracer)
    try:
        analytics = Analytics(shape, seed, outcome, tracer)
        restart = Restart(shape, seed, outcome, tracer, root)
        restart.add(prepared.store)
        started = time.perf_counter()
        iteration = 0
        while True:
            elapsed = time.perf_counter() - started
            finished = (analytics.done and live.done and restart.done
                        and setups >= SETUPS)
            if elapsed >= seconds and finished:
                break
            if elapsed >= MAX_OVERRUN * seconds:
                outcome.check(False, (
                    f"stopped at {MAX_OVERRUN} x --seconds short of the "
                    f"minimums: {analytics.rounds} analytics rounds, live ops "
                    f"{live.counts}, {restart.samples} restarts, {setups} set-ups"))
                break
            outcome.calibrate()
            analytics.step()
            outcome.calibrate()
            await live.step(LIVE_SLICE)
            outcome.calibrate()
            await restart.step()
            iteration += 1
            if iteration % SETUP_EVERY == 0 or (elapsed >= seconds and setups < SETUPS):
                outcome.calibrate()
                begin = time.perf_counter()
                extra = await set_up(shape, seed, root, tracer, setups)
                outcome.time("setup_s", time.perf_counter() - begin)
                setups += 1
                await live.serve(extra)
                restart.add(extra.store)
    finally:
        await live.finish()
    restart.finish()
    return [analytics, live]

"""The repository benchmark: cold analytics, live serving and crash restart.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 12 --trace 0

Every run executes three phases on inputs generated from ``--seed``
(see ``phases.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the engine's layer
calls in spans (``layers.py``) and reports the per-layer metrics
instead, writing span JSON lines, a Chrome trace-event file (opens in
Perfetto) and a per-layer self-time table under ``.bench_out/``.

The workloads are two graph shapes (``inputs.SHAPES``): ``dense``,
where most derivations are duplicates, and ``lean``, where most are
useful.  Timings are in reference seconds (``calibrate.py``): each
phase step is scaled by how fast a fixed calibration loop ran around
it, so the machine's changes of speed cancel; the raw timings and the
calibration factors are in the detail report.  ``BENCHMARK.json`` at
the checkout root lists the metrics and their units, and is the one
place they are declared; ``perfbench/BASELINE.json`` records which
layer metric should move which end-to-end metric, and the baseline
measured for them.

A run whose checks fail still prints its result line, with
``"correct": false``, and exits with status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import sys
import tempfile
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import REFERENCE_S  # noqa: E402
from inputs import SHAPES  # noqa: E402
from phases import LIVE_SLICE, Outcome, run_phases  # noqa: E402
from spans import (  # noqa: E402
    NullTracer,
    Tracer,
    layer_table,
    self_times,
    span_cost_s,
    write_outputs,
)
from stats import median, tail  # noqa: E402

OUTPUT_DIR = os.path.join(ROOT, ".bench_out")

#: End-to-end metric -> (sample series, statistic).  A statistic is
#: "median" or the percentile the metric is named after.  The read
#: median is wall time, the other live metrics CPU time (see
#: ``phases.Live``); the wall-time commit figures are in the detail
#: report.
END_TO_END = {
    "setup_s": ("setup_s", "median"),
    "tc_s": ("tc_s", "median"),
    "decomposed_s": ("decomposed_s", "median"),
    "separable_s": ("separable_s", "median"),
    "sg_s": ("sg_s", "median"),
    "bound_query_s": ("bound_query_s", "median"),
    "read_p50_us": ("read_us", "median"),
    "read_cpu_p99_us": ("read_cpu_us", 99.0),
    "insert_cpu_p50_ms": ("insert_cpu_ms", "median"),
    "insert_cpu_p90_ms": ("insert_cpu_ms", 90.0),
    "delete_cpu_p50_ms": ("delete_cpu_ms", "median"),
    "delete_cpu_p90_ms": ("delete_cpu_ms", 90.0),
    "recovery_s": ("recovery_s", "median"),
    "checkpoint_s": ("checkpoint_s", "median"),
    "store_bytes_per_row": ("store_bytes_per_row", "median"),
}


def declared_units() -> dict[str, dict[str, str]]:
    """``{"end_to_end" | "per_layer": {metric: unit}}`` from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as file:
        declared = json.load(file)
    return {kind: {metric["name"]: metric["unit"] for metric in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment(args: argparse.Namespace) -> dict[str, Any]:
    shape = SHAPES[args.workload]
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "flush_policy": "LiveEngine default sync='always': one fsync per "
                        "commit, no periodic checkpoints",
        "client": "one client, closed loop",
        "schedule": f"phases interleaved: each iteration runs one analytics "
                    f"round, {LIVE_SLICE} live ops and one restart sample",
        "workload": args.workload,
        "sizes": shape.__dict__,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def end_to_end(outcome: Outcome, units: dict[str, str]) -> tuple[dict, dict]:
    metrics: dict[str, dict] = {}
    counts: dict[str, dict] = {}
    for name, (series, statistic) in END_TO_END.items():
        samples = outcome.samples.get(series, [])
        if not samples:
            continue
        if statistic == "median":
            value = median(samples)
            used = 50.0
        else:
            used, value = tail(samples, statistic)
        metrics[name] = {"value": value, "unit": units[name]}
        counts[name] = {"samples": len(samples), "percentile": used}
    return metrics, counts


def _ratio(part: float, whole: float) -> Optional[float]:
    """*part* / *whole*, or None (reported as null) when *whole* is 0."""
    return part / whole if whole else None


def _ratio_of(part: Optional[float], whole: float) -> Optional[float]:
    return None if part is None else _ratio(part, whole)


def _mean(values: list[float]) -> Optional[float]:
    return _ratio(sum(values), len(values))


def per_layer(tracer: Tracer, outcome: Outcome, overhead: float,
              units: dict[str, str], untraced: set[str]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and the engine's own counters.

    A metric with nothing to measure, because the calls it times were
    never made or the spans it counts are *untraced* (the engine no
    longer has the call), is None (null in the output) rather than 0, so
    a renamed engine call shows as a gap, not as a gain.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_per_call(name: str, where=None) -> Optional[float]:
        chosen = [span for span in by_name.get(name, [])
                  if where is None or where(span)]
        return _mean([own[span.span_id] for span in chosen])

    live = outcome.details.get("live", {})
    commits = live.get("ops", {}).get("insert", 0) + live.get("ops", {}).get("delete", 0)
    jobs = outcome.job_statistics
    derivations = sum(stats.derivations for stats in jobs)
    duplicates = sum(stats.duplicates for stats in jobs)
    results = sum(stats.result_size for stats in jobs)
    probed = sum(stats.joins.rows_probed for stats in jobs)
    asks = by_name.get("query.ask", [])
    applies = by_name.get("ivm.apply", [])
    client_ops = sum(1 for span in spans if span.parent is None)
    checkpoint_opens = by_name.get("durability.checkpoint_open", [])
    opens = {span.span_id for span in by_name.get("durability.open", [])}
    replays = [span for span in applies if span.parent in opens]
    replaying_opens = len({span.parent for span in replays})
    recoveries = outcome.details.get("restart", {}).get("records_replayed", [])

    def tier_share(tier: str) -> Optional[float]:
        hits = sum(1 for span in asks if span.attrs.get("tier") == tier)
        return _ratio(100.0 * hits, len(asks))

    def count(name: str, where=None) -> Optional[int]:
        if name in untraced:
            return None
        return sum(1 for span in by_name.get(name, []) if where is None or where(span))

    values = {
        "datalog.parse_s": self_per_call("datalog.parse"),
        "core.analyse_s": self_per_call("core.analyse"),
        "planner.compile_s": self_per_call("planner.compile"),
        "engine.exit_s": self_per_call("engine.exit"),
        "engine.fixpoint_s": self_per_call("engine.fixpoint"),
        "engine.iterations": _mean([stats.iterations for stats in jobs]),
        "engine.derivations": _ratio(derivations, len(jobs)),
        "engine.duplicates": _ratio(duplicates, len(jobs)),
        "engine.useful_ratio": (1.0 - duplicates / derivations
                                if derivations else None),
        "engine.rows_probed_per_result": _ratio(probed, results),
        "storage.index_s": self_per_call("storage.index"),
        "storage.index_builds": _ratio_of(
            count("storage.index", lambda span: span.attrs.get("build")), client_ops),
        "query.ask_s": self_per_call("query.ask"),
        "query.labels_build_s": self_per_call("query.labels_build"),
        "query.labels_builds": _ratio_of(count("query.labels_build"), commits),
        "query.tier_share.edb": tier_share("edb"),
        "query.tier_share.labels": tier_share("labels"),
        "query.tier_share.magic": tier_share("magic"),
        "query.tier_share.closure": tier_share("closure"),
        "ivm.insert_s": self_per_call("ivm.apply",
                                      lambda span: span.attrs.get("kind") == "insert"),
        "ivm.delete_s": self_per_call("ivm.apply",
                                      lambda span: span.attrs.get("kind") == "delete"),
        "ivm.delta_rows_per_commit": _mean([span.attrs.get("delta_rows", 0)
                                            for span in applies]),
        "serve.commit_self_s": self_per_call("serve.commit"),
        "serve.commits_shed": float(live.get("commits_shed", 0)),
        "durability.wal_append_s": self_per_call("durability.wal_append"),
        "durability.fsyncs": _ratio(live.get("fsyncs", 0), commits),
        "durability.wal_bytes_per_commit": _ratio(live.get("wal_bytes", 0),
                                                  live.get("generation", 0)),
        "durability.checkpoint_write_s": self_per_call("durability.checkpoint_write"),
        "durability.checkpoint_open_s": _ratio(
            sum(own[span.span_id] for span in checkpoint_opens),
            len({span.parent for span in checkpoint_opens})),
        "durability.replay_s": _ratio(sum(span.seconds for span in replays),
                                      replaying_opens),
        "durability.records_replayed": _mean(recoveries),
        "trace.unaccounted_pct": 100.0 * layer_table(spans)["unaccounted_share"],
        "trace.overhead_pct": overhead,
    }
    # Seconds are reported in reference seconds, like the end-to-end
    # timings, scaled by the run's median calibration.
    factor = REFERENCE_S / median(outcome.calibrations)
    if set(values) != set(units):
        raise SystemExit(f"per-layer metrics {sorted(set(values) ^ set(units))} "
                         f"are computed here or declared in BENCHMARK.json, not both")
    metrics = {name: {"value": (value * factor
                                if name.endswith("_s") and value is not None else value),
                      "unit": units[name]}
               for name, value in values.items()}
    calls = {name: len(group) for name, group in sorted(by_name.items())}
    return metrics, calls


def _phase_tables(spans: list) -> dict[str, dict]:
    """The per-layer self-time table of each phase's client spans."""
    phases_of: dict[int, str] = {}
    for span in sorted(spans, key=lambda span: span.start_ns):
        if span.parent is None:
            phases_of[span.span_id] = span.attrs.get("phase", "other")
        else:
            phases_of[span.span_id] = phases_of.get(span.parent, "other")
    grouped: dict[str, list] = {}
    for span in spans:
        grouped.setdefault(phases_of[span.span_id], []).append(span)
    return {phase: layer_table(group) for phase, group in sorted(grouped.items())}


def _print_tables(tables: dict[str, dict]) -> None:
    for phase, table in tables.items():
        print(f"# {phase}: wall {table['wall_s']:.3f} s in client spans")
        for layer, row in table["layers"].items():
            print(f"#   {layer:<11} {row['self_s']:9.4f} s  {100 * row['share']:5.1f} %")
        print(f"#   {'unaccounted':<11} {table['unaccounted_s']:9.4f} s  "
              f"{100 * table['unaccounted_share']:5.1f} %")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shape = SHAPES[args.workload]
    units = declared_units()

    outcome = Outcome()
    tracer: Any = NullTracer()
    if args.trace:
        tracer = Tracer()
        from layers import install
        missing = install(tracer)
        outcome.details["untraced_calls"] = [f"{name} ({where})"
                                             for name, where in missing]

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR)
    try:
        unchecked = asyncio.run(run_phases(shape, args.seed, args.seconds, root,
                                           tracer, outcome))
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(root, ignore_errors=True)
    for phase in unchecked:
        phase.check()
    outcome.settle()

    report: dict[str, Any] = {"environment": environment(args)}
    report["calibration_s"] = {
        "reference": REFERENCE_S, "median": median(outcome.calibrations),
        "min": min(outcome.calibrations), "max": max(outcome.calibrations),
        "count": len(outcome.calibrations)}
    if args.trace:
        # What recording costs: one span's measured price times the spans
        # recorded, over the client spans' wall time.
        wall = sum(span.seconds for span in tracer.spans if span.parent is None)
        overhead = 100.0 * span_cost_s() * len(tracer.spans) / wall if wall else 0.0
        metrics, calls = per_layer(tracer, outcome, overhead, units["per_layer"],
                                   {name for name, _ in missing})
        stem = f"{args.workload}-seed{args.seed}"
        tables = _phase_tables(tracer.spans)
        # The end-to-end metrics as the traced run measured them: against
        # an untraced run of the same seed, the difference is what
        # tracing costs end to end.
        report["end_to_end_traced"] = end_to_end(outcome, units["end_to_end"])[0]
        report["per_layer_metrics"] = {name: metric["value"]
                                       for name, metric in metrics.items()}
        report["layer_tables"] = tables
        report["span_calls"] = calls
        report["trace_files"] = write_outputs(tracer.spans, OUTPUT_DIR, stem)
        _print_tables(tables)
    else:
        metrics, counts = end_to_end(outcome, units["end_to_end"])
        report["samples"] = counts
        report["raw_medians"] = {metric: median(values)
                                 for metric, values in outcome.raw.items()}
        report["wall_time"] = {
            series: {"median": median(outcome.samples[series]),
                     **dict(zip(("percentile", "value"),
                                tail(outcome.samples[series], named)))}
            for series, named in (("read_us", 99.0), ("insert_ms", 90.0),
                                  ("delete_ms", 90.0))
            if outcome.samples.get(series)}
        report["samples_reference"] = outcome.samples
        report["samples_raw"] = outcome.raw
    report["details"] = outcome.details
    report["mismatches"] = outcome.mismatches[:20]
    report["errors"] = outcome.errors[:20]
    with open(os.path.join(OUTPUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as file:
        json.dump(report, file, indent=1, default=str)
    print("# " + json.dumps({key: report[key] for key in
                             ("environment", "mismatches", "errors")}, default=str))
    if outcome.details.get("untraced_calls"):
        print("# untraced calls (their metrics read null): "
              + ", ".join(outcome.details["untraced_calls"]))
    correct = not outcome.mismatches and not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

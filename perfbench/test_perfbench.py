"""Tests of the benchmark's own helpers (run with pytest from the checkout root)."""

from __future__ import annotations

import itertools

import pytest

from inputs import JOB_KINDS, MINIMUM_OPS, SHAPES, live_graph, make_job, op_stream
from spans import Span, Tracer, layer_table, self_times
from stats import percentile, tail, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_caps_a_named_percentile_the_samples_cannot_support():
    samples = [float(value) for value in range(1, 101)]
    assert tail(samples, 90.0) == (90.0, 90.0)
    assert tail(samples, 99.0) == (90.0, 90.0)
    assert percentile(samples, 50.0) == 50.0
    assert percentile([3.0, float("inf"), 1.0], 99.0) == float("inf")


def _span(span_id, name, parent, start, end):
    return Span(span_id, name, parent, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, "bench.job", None, 0, 100),
        _span(2, "engine.fixpoint", 1, 10, 40),
        _span(3, "storage.index", 2, 15, 25),
        _span(4, "engine.exit", 1, 50, 60),
    ]
    own = self_times(spans)
    assert own == {1: 60e-9, 2: 20e-9, 3: 10e-9, 4: 10e-9}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "serve.commit", None, 0, 100),
        _span(2, "ivm.apply", 1, 10, 50),
        _span(3, "durability.wal_append", 1, 40, 70),
        _span(4, "ivm.apply", 1, 90, 130),
    ]
    assert self_times(spans)[1] == pytest.approx(30e-9)


def test_layer_table_reports_what_the_layers_leave_unaccounted():
    spans = [
        _span(1, "bench.job", None, 0, 100),
        _span(2, "engine.fixpoint", 1, 0, 90),
        _span(3, "bench.read", None, 200, 300),
        _span(4, "serve.read", 3, 200, 300),
        _span(5, "query.ask", 4, 220, 300),
    ]
    table = layer_table(spans)
    assert table["wall_s"] == pytest.approx(200e-9)
    assert table["layers"]["engine"]["self_s"] == pytest.approx(90e-9)
    assert table["layers"]["serve"]["self_s"] == pytest.approx(20e-9)
    assert table["layers"]["query"]["self_s"] == pytest.approx(80e-9)
    assert table["unaccounted_s"] == pytest.approx(10e-9)
    assert table["unaccounted_share"] == pytest.approx(0.05)


def test_tracer_nests_spans_and_restores_what_it_wraps():
    import repro.engine.plan as plan
    import repro.engine.seminaive as seminaive

    original = plan.compile_rule
    tracer = Tracer()
    assert tracer.patch_function("repro.engine.plan", "compile_rule", "planner.compile")
    assert seminaive.compile_rule.__wrapped__ is original
    tracer.uninstall()
    assert plan.compile_rule is original and seminaive.compile_rule is original
    assert not tracer.patch_function("repro.engine.plan", "no_such_call", "x.y")

    with tracer.span("bench.outer") as outer:
        with tracer.span("engine.inner") as inner:
            pass
    assert inner.parent == outer.span_id and outer.parent is None


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_op_stream_is_a_function_of_the_seed(workload):
    shape = SHAPES[workload]
    edges = live_graph(shape, 7, "live")
    assert edges.rows == live_graph(shape, 7, "live").rows

    def first(seed, count=600):
        return list(itertools.islice(
            op_stream(edges, shape, seed, "live"), count))

    assert first(7) == first(7)
    assert first(7) != first(8)
    present = set(edges.rows)
    for op in first(7):
        if op[0] == "delete":
            assert op[1] in present
            present.discard(op[1])
        elif op[0] == "insert":
            assert op[1] not in present
            present.add(op[1])
    kinds = {op[0] for op in first(7, 3000)}
    assert kinds == set(MINIMUM_OPS)


def test_op_minimums_support_the_reported_percentiles():
    reads = MINIMUM_OPS["ground"] + MINIMUM_OPS["from"]
    assert tail_percentile(reads) == 99.0
    assert all(tail_percentile(minimum) >= 90.0 for minimum in MINIMUM_OPS.values())


def test_analytics_inputs_are_a_function_of_the_seed():
    shape = SHAPES["dense"]
    for kind in JOB_KINDS:
        one, two = make_job(kind, shape, 3, 0), make_job(kind, shape, 3, 0)
        assert one.source == two.source
        assert ({name: relation.rows for name, relation in one.database.relations.items()}
                == {name: relation.rows for name, relation in two.database.relations.items()})
    assert (make_job("tc", shape, 3, 0).database.relation("edge").rows
            != make_job("tc", shape, 3, 1).database.relation("edge").rows)


def test_timings_scale_by_the_calibrations_around_their_step():
    from calibrate import REFERENCE_S
    from phases import Outcome

    outcome = Outcome()
    outcome.calibrations = [REFERENCE_S] * 4 + [2 * REFERENCE_S] * 12
    outcome.timings = [(0, "tc_s", 1.0), (12, "tc_s", 1.0), (6, "tc_s", 1.0)]
    outcome.settle()
    assert outcome.raw["tc_s"] == [1.0, 1.0, 1.0]
    # Step 0 sees four reference-speed calibrations and one slow one;
    # step 12 only slow ones (the machine ran at half speed); step 6
    # seven slow ones and one fast one.
    assert outcome.samples["tc_s"] == [1.0, 0.5, 0.5]
    assert not outcome.timings


def test_serving_timings_follow_the_calibration_in_part():
    from calibrate import REFERENCE_S
    from phases import SERVING_SENSITIVITY, Outcome

    outcome = Outcome()
    outcome.calibrations = [4 * REFERENCE_S]
    outcome.timings = [(0, "insert_cpu_ms", 4.0), (0, "read_us", 4.0),
                       (0, "recovery_s", 4.0), (0, "checkpoint_s", 4.0)]
    outcome.settle()
    serving = 4.0 * 0.25 ** SERVING_SENSITIVITY
    assert outcome.samples == {"insert_cpu_ms": [serving], "read_us": [serving],
                               "recovery_s": [serving], "checkpoint_s": [1.0]}


def test_span_cost_is_a_small_positive_price():
    from spans import span_cost_s

    assert 0.0 <= span_cost_s(2_000) < 1e-3


def test_metrics_are_the_ones_benchmark_json_declares():
    from run import END_TO_END, declared_units

    assert set(END_TO_END) == set(declared_units()["end_to_end"])


def test_per_layer_metrics_of_untraced_calls_read_null_not_zero():
    from calibrate import REFERENCE_S
    from phases import Outcome
    from run import declared_units, per_layer

    outcome = Outcome()
    outcome.calibrations = [REFERENCE_S]
    outcome.details["live"] = {"ops": {"insert": 2, "delete": 2}, "generation": 4}
    tracer = Tracer()
    with tracer.span("bench.commit"):
        pass
    units = declared_units()["per_layer"]
    metrics, _ = per_layer(tracer, outcome, 0.0, units, {"query.labels_build"})
    assert set(metrics) == set(units)
    assert metrics["query.labels_builds"]["value"] is None
    assert metrics["query.labels_build_s"]["value"] is None
    assert metrics["engine.fixpoint_s"]["value"] is None
    assert metrics["storage.index_builds"]["value"] == 0.0

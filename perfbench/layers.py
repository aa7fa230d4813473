"""Which engine calls the traced run wraps, and the layer each belongs to.

Span names are ``<layer>.<call>``; the layers are the ``repro``
packages.  A call a later engine version no longer has is skipped and
listed by the run (the metrics that rest on it then read null, not
zero), so the traced run keeps working while the engine is refactored
underneath it.
"""

from __future__ import annotations

import os
from typing import Any

from spans import Tracer


def _strategy(result: Any, args: tuple, kwargs: dict, before: Any) -> dict:
    return {"tier": getattr(result, "strategy", "")}


def _apply_kind(result: Any, args: tuple, kwargs: dict, before: Any) -> dict:
    inserts = kwargs.get("inserts", args[1] if len(args) > 1 else None)
    deletes = kwargs.get("deletes", args[2] if len(args) > 2 else None)
    kind = ("mixed" if inserts and deletes
            else "insert" if inserts else "delete" if deletes else "none")
    predicates = getattr(result, "predicates", {}) or {}
    delta_rows = sum(len(delta.added) + len(delta.removed)
                     for delta in predicates.values())
    return {"kind": kind, "delta_rows": delta_rows}


def _index_cache_entry(cache_attribute: str, arity_args: int):
    """Annotator counting an index *build*: the cached object changed.

    ``Database.index`` maintains cached indexes in place when a relation
    grows or shrinks a little; only a fresh object is a build.
    """
    def annotate(result: Any, args: tuple, kwargs: dict, before: Any) -> dict:
        return {"build": result is not before}

    def before(args: tuple, kwargs: dict) -> Any:
        database = args[0]
        cache = getattr(database, cache_attribute, None)
        if cache is None:
            return None
        return cache.get(tuple(args[1:1 + arity_args]))

    annotate.before = before  # type: ignore[attr-defined]
    return annotate


def install(tracer: Tracer) -> list[tuple[str, str]]:
    """Wrap every traced call; returns ``(span name, call)`` of each left untraced."""
    import repro.core.planner as core_planner
    import repro.durability.checkpoint as checkpoint
    import repro.durability.store as store
    import repro.durability.wal as wal
    import repro.ivm.maintain as maintain
    import repro.query.engine as query_engine
    import repro.storage.database as database

    missing: list[tuple[str, str]] = []

    def function(module: str, attribute: str, name: str, annotate=None) -> None:
        if not tracer.patch_function(module, attribute, name, annotate):
            missing.append((name, f"{module}.{attribute}"))

    def method(owner: type, attribute: str, name: str, annotate=None) -> None:
        if not tracer.patch_method(owner, attribute, name, annotate):
            missing.append((name, f"{owner.__name__}.{attribute}"))

    for attribute in ("parse_program", "parse_rule", "parse_atom"):
        function("repro.datalog.parser", attribute, "datalog.parse")
    method(core_planner.QueryPlanner, "plan", "core.analyse")
    function("repro.engine.plan", "compile_rule", "planner.compile")
    function("repro.planner.program", "plan_program", "planner.compile")
    function("repro.engine.seminaive", "evaluate_exit_rules", "engine.exit")
    for module, attribute in (
            ("repro.engine.seminaive", "solve_linear_recursion"),
            ("repro.engine.seminaive", "seminaive_closure"),
            ("repro.engine.decomposed", "decomposed_closure"),
            ("repro.engine.separable", "separable_evaluate")):
        function(module, attribute, "engine.fixpoint")
    method(database.Database, "index", "storage.index",
           _index_cache_entry("_index_cache", 3))
    method(database.Database, "interned_index", "storage.index",
           _index_cache_entry("_int_index_cache", 4))
    method(query_engine.QueryEngine, "ask", "query.ask", _strategy)
    function("repro.query.labels", "build_labels", "query.labels_build")
    method(maintain.MaterializedProgram, "__init__", "ivm.build")
    method(maintain.MaterializedProgram, "from_state", "ivm.from_state")
    method(maintain.MaterializedProgram, "apply", "ivm.apply", _apply_kind)
    method(wal.DurableLog, "append", "durability.wal_append")
    function("repro.durability.checkpoint", "write_checkpoint",
             "durability.checkpoint_write")
    for attribute in ("__init__", "database", "states"):
        method(checkpoint.Checkpoint, attribute, "durability.checkpoint_open")
    method(store.DurableCoordinator, "open", "durability.open")
    tracer.patch_counter(os, "fsync", "fsyncs")
    return missing

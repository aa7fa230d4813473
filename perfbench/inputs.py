"""Seeded inputs: graph shapes, analytics jobs, the live op stream.

Everything here is a pure function of ``(seed, shape, ...)``: the same
seed gives the same databases and the same op stream, so two commits
are measured on identical inputs.  The engine only ever sees the
generated relations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro import Database, Relation

TC_PROGRAM = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)
TWO_SIDED_PROGRAM = (
    "path(X, Y) :- edge(X, U), path(U, Y).\n"
    "path(X, Y) :- path(X, V), hop(V, Y).\n"
    "path(X, Y) :- base(X, Y)."
)
SEPARABLE_PROGRAM = (
    "reach(X, Y) :- left(X, U), reach(U, Y).\n"
    "reach(X, Y) :- reach(X, V), right(V, Y).\n"
    "reach(X, Y) :- start(X, Y)."
)
SAME_GENERATION_PROGRAM = (
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
    "sg(X, Y) :- flat(X, Y)."
)

#: The analytics jobs, in the order one round runs them.
JOB_KINDS = ("tc", "decomposed", "separable", "sg", "bound_query")


@dataclass(frozen=True)
class Shape:
    """Graph shape and per-job sizes of one workload.

    Every graph is layered: node ``w`` of layer ``l`` is
    ``l * width + w`` and each node gets ``fanout`` edges (a fractional
    part is the chance of one more) into the next layer.  ``layers``
    per job are chosen so each job takes at least 100 ms on the default
    path on a 2-CPU box.
    """

    fanout: float
    width: int
    tc_layers: int
    decomposed_layers: int
    separable_layers: int
    sg_layers: int
    sg_width: int
    bound_layers: int
    #: The live and restart graphs: ``live_components`` disjoint layered
    #: graphs of ``live_layers`` layers each.  A run's live and restart
    #: metrics come from one graph, so it is made of several independent
    #: parts to average over their shapes.
    live_layers: int
    live_components: int
    #: WAL records the crashed restart directory carries past its checkpoint.
    restart_records: int


SHAPES = {
    # Three edges per node into an eight-wide next layer: most closure
    # rows have many derivations (three in four analytics derivations
    # are duplicates) and deletes re-derive a lot.
    "dense": Shape(fanout=3.0, width=8, tc_layers=32, decomposed_layers=22,
                   separable_layers=30, sg_layers=32, sg_width=16,
                   bound_layers=18, live_layers=12, live_components=4,
                   restart_records=24),
    # One or two edges per node into a six-wide next layer: about half
    # the analytics derivations are duplicates (one in four for
    # transitive closure), so duplicate savings and re-derivation
    # matter far less than on ``dense``.
    "lean": Shape(fanout=1.5, width=6, tc_layers=44, decomposed_layers=30,
                  separable_layers=44, sg_layers=40, sg_width=16,
                  bound_layers=30, live_layers=16, live_components=6,
                  restart_records=24),
}


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent generator per (seed, purpose) pair."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def layered_edges(layers: int, width: int, fanout: float, name: str,
                  rng: random.Random) -> Relation:
    """Edges from each node to ``fanout`` random nodes of the next layer.

    A fractional part of *fanout* is the chance of one more edge.
    """
    edges: set[tuple[int, int]] = set()
    whole = int(fanout)
    extra = fanout - whole
    for layer in range(layers - 1):
        for position in range(width):
            source = layer * width + position
            count = whole + (1 if rng.random() < extra else 0)
            for _ in range(count):
                edges.add((source, (layer + 1) * width + rng.randrange(width)))
    return Relation.of(name, 2, edges)


def _identity(name: str, nodes: int) -> Relation:
    return Relation.of(name, 2, [(node, node) for node in range(nodes)])


@dataclass(frozen=True)
class Job:
    """One cold analytics evaluation: its program, database and query."""

    kind: str
    program: str
    database: Database
    #: Selected source node (``separable`` and ``bound_query``), else None.
    source: object = None


def _source(width: int, round_index: object) -> int:
    """Selected node of a round: the first layer's nodes in turn."""
    return round_index % width if isinstance(round_index, int) else 0


def make_job(kind: str, shape: Shape, seed: int, round_index: object) -> Job:
    """A freshly generated database for one analytics job."""
    rng = rng_for(seed, "job", kind, round_index)
    fanout, width = shape.fanout, shape.width
    if kind == "tc":
        database = Database.of(
            layered_edges(shape.tc_layers, width, fanout, "edge", rng))
        return Job(kind, TC_PROGRAM, database)
    if kind in ("decomposed", "bound_query"):
        layers = (shape.decomposed_layers if kind == "decomposed"
                  else shape.bound_layers)
        database = Database.of(
            layered_edges(layers, width, fanout, "edge", rng),
            layered_edges(layers, width, fanout, "hop", rng),
            _identity("base", layers * width),
        )
        source = _source(width, round_index) if kind == "bound_query" else None
        return Job(kind, TWO_SIDED_PROGRAM, database, source)
    if kind == "separable":
        layers = shape.separable_layers
        database = Database.of(
            layered_edges(layers, width, fanout, "left", rng),
            layered_edges(layers, width, fanout, "right", rng),
            _identity("start", layers * width),
        )
        return Job(kind, SEPARABLE_PROGRAM, database, _source(width, round_index))
    if kind == "sg":
        layers, sg_width = shape.sg_layers, shape.sg_width
        up = layered_edges(layers, sg_width, fanout, "up", rng)
        down = layered_edges(layers, sg_width, fanout, "down", rng)
        database = Database.of(
            up,
            Relation.of("down", 2, [(target, source) for source, target in down.rows]),
            _identity("flat", layers * sg_width),
        )
        return Job(kind, SAME_GENERATION_PROGRAM, database)
    raise ValueError(f"unknown analytics job {kind!r}")


# -- live op stream ----------------------------------------------------------

#: The fewest samples of each op kind a run takes; the stream draws each
#: kind with weight proportional to its minimum, so one stream meets all
#: the minimums at about the same point.  Every kind gets 100, the
#: fewest that support a 90th percentile (ten samples beyond it, see
#: ``stats.tail_percentile``).  The reads are made up to 1000, the
#: fewest that support ``read_cpu_p99_us``, with ground point queries, the
#: common read: a median over two read kinds of near-equal shares would
#: fall in the gap between their latencies and jump across it from seed
#: to seed, so ``read_p50_us`` is kept inside one kind.  Writes are then
#: one op in six, split evenly between deletes and inserts.
MINIMUM_OPS = {"ground": 900, "from": 100, "delete": 100, "insert": 100}


def live_graph(shape: Shape, seed: int, purpose: str) -> Relation:
    """The live (or restart) graph: disjoint layered components."""
    rng = rng_for(seed, purpose, "graph")
    span = shape.live_layers * shape.width
    edges = []
    for component in range(shape.live_components):
        part = layered_edges(shape.live_layers, shape.width, shape.fanout,
                             "edge", rng)
        offset = component * span
        edges.extend((source + offset, target + offset)
                     for source, target in sorted(part.rows))
    return Relation.of("edge", 2, edges)


def _layer_cycle(rng: random.Random, count: int) -> Iterator[int]:
    """``range(count)`` in seeded random order, each once per round."""
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield from order


def op_stream(edges: Relation, shape: Shape, seed: int, purpose: str,
              writes_only: bool = False) -> Iterator[tuple]:
    """An endless seeded stream of ops against the evolving edge set.

    Ops are ``("ground", a, b)``, ``("from", a)``, ``("delete", edge)``
    and ``("insert", edge)``, drawn with the weights of ``MINIMUM_OPS``.  The
    stream tracks the edge set its own writes produce, so every delete
    names an edge that exists and every insert one that does not.
    Writes visit every layer of every component in rounds, once per
    round: what a write costs depends mostly on where it lands, so
    every seed gets the same mix of cheap and dear writes.  With
    *writes_only* the stream alternates deletes and inserts.
    """
    rng = rng_for(seed, purpose, "ops")
    width, layers = shape.width, shape.live_layers
    span = layers * width
    nodes = span * shape.live_components
    slots = (layers - 1) * shape.live_components

    def slot_of(source: int) -> int:
        return (source // span) * (layers - 1) + (source % span) // width

    by_slot: list[list[tuple[int, int]]] = [[] for _ in range(slots)]
    for edge in sorted(edges.rows):
        by_slot[slot_of(edge[0])].append(edge)
    members = set(edges.rows)
    delete_slots = _layer_cycle(rng_for(seed, purpose, "deletes"), slots)
    insert_slots = _layer_cycle(rng_for(seed, purpose, "inserts"), slots)
    kinds, weights = list(MINIMUM_OPS), list(MINIMUM_OPS.values())
    alternate = itertools.cycle(("delete", "insert"))
    while True:
        kind = next(alternate) if writes_only else rng.choices(kinds, weights)[0]
        if kind == "ground":
            yield ("ground", rng.randrange(nodes), rng.randrange(nodes))
        elif kind == "from":
            yield ("from", rng.randrange(nodes))
        elif kind == "delete":
            candidates = by_slot[next(delete_slots)]
            while not candidates:
                candidates = by_slot[next(delete_slots)]
            index = rng.randrange(len(candidates))
            edge = candidates[index]
            candidates[index] = candidates[-1]
            candidates.pop()
            members.discard(edge)
            yield ("delete", edge)
        else:
            slot = next(insert_slots)
            first = (slot // (layers - 1)) * span + (slot % (layers - 1)) * width
            while True:
                edge = (first + rng.randrange(width),
                        first + width + rng.randrange(width))
                if edge not in members:
                    break
            by_slot[slot].append(edge)
            members.add(edge)
            yield ("insert", edge)


def query_text(op: tuple) -> str:
    kind = op[0]
    if kind == "ground":
        return f"path({op[1]}, {op[2]})?"
    if kind == "from":
        return f"path({op[1]}, Y)?"
    raise ValueError(f"{kind!r} is not a read")

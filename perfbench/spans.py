"""Span tracing installed from the benchmark, around the engine's public calls.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
each traced function or method (``layers.py`` names them) for a wrapper
that records a :class:`Span` (name, start, end, parent), and restores
the originals on :meth:`Tracer.uninstall`.  Parents come from a :class:`contextvars.ContextVar`, so
a span opened on the event loop is the parent of the spans its
``asyncio.to_thread`` work records in the worker thread.

A span's *self time* is its duration minus the part of that interval
its direct children cover.  The layer of a span is its name up to the
first dot (``ivm.apply`` belongs to ``ivm``); ``bench.*`` spans are the
benchmark's own client spans, and their self time is what the traced
layers leave unaccounted.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None))
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Call counts from :meth:`patch_counter`, by counter name.
        self.counts: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> tuple[Span, contextvars.Token]:
        with self._id_lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self._current.get(), time.perf_counter_ns(),
                    thread=threading.get_ident(), attrs=attrs)
        return span, self._current.set(span_id)

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end_ns = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(span)

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """``with tracer.span("bench.job", kind="tc"):`` records one span."""
        return _SpanContext(self, name, attrs)

    def wrap(self, function: Callable, name: str,
             annotate: Optional[Callable[..., dict]] = None) -> Callable:
        """*function* recording a *name* span per call.

        *annotate(result, args, kwargs, before)* may add attributes once
        the call returns; *before* is what ``annotate.before(args,
        kwargs)`` returned ahead of the call, when that hook exists.
        """
        before_hook = getattr(annotate, "before", None)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            before = before_hook(args, kwargs) if before_hook else None
            span, token = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span, token)
            if annotate is not None:
                span.attrs.update(annotate(result, args, kwargs, before))
            return result

        return traced

    # -- installing ------------------------------------------------------

    def patch_function(self, module_name: str, attribute: str, name: str,
                       annotate: Optional[Callable[..., dict]] = None) -> bool:
        """Trace a module-level function everywhere it was imported.

        ``from module import function`` copies the reference into the
        importing module, so every loaded ``repro`` module holding the
        same object gets the wrapper.  Returns False when the function
        does not exist (a later version of the engine removed it).
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attribute, None) if module else None
        if original is None:
            return False
        wrapper = self.wrap(original, name, annotate)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, value))
                    setattr(loaded, key, wrapper)
        return True

    def patch_method(self, owner: type, attribute: str, name: str,
                     annotate: Optional[Callable[..., dict]] = None) -> bool:
        """Trace a method (plain or classmethod) on its defining class."""
        raw = owner.__dict__.get(attribute)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, annotate))
        else:
            replacement = self.wrap(raw, name, annotate)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)
        return True

    def patch_counter(self, owner: Any, attribute: str, counter: str) -> None:
        """Count calls of ``owner.attribute`` under *counter*."""
        original = getattr(owner, attribute)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[counter] = counts.get(counter, 0) + 1
            return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "span", "token")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.begin(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.tracer.end(self.span, self.token)


class NullTracer:
    """The untraced run: client spans cost one call and record nothing."""

    def span(self, name: str, **attrs: Any) -> "_NullContext":
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def noop() -> None:
        return None

    traced = Tracer().wrap(noop, "bench.noop")
    begin = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - begin
    begin = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - begin - bare) / calls)


# -- analysis --------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Nanoseconds of [start, end) covered by the union of *intervals*."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Seconds of each span's interval that no direct child covers."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: (span.end_ns - span.start_ns - _covered_ns(
            span.start_ns, span.end_ns, children.get(span.span_id, ()))) / 1e9
        for span in spans
    }


def layer_table(spans: list[Span]) -> dict[str, Any]:
    """Self seconds per layer over the client spans' wall time.

    The wall time is the summed duration of the root spans (the
    benchmark's client operations).  ``bench`` self time is wall time
    inside client spans that no traced layer covers: it is reported as
    ``unaccounted``.
    """
    own = self_times(spans)
    wall = sum(span.seconds for span in spans if span.parent is None)
    layers: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        layers[layer] = layers.get(layer, 0.0) + own[span.span_id]
    unaccounted = layers.pop("bench", 0.0)
    return {
        "wall_s": wall,
        "layers": {layer: {"self_s": seconds,
                           "share": seconds / wall if wall else 0.0}
                   for layer, seconds in sorted(layers.items())},
        "unaccounted_s": unaccounted,
        "unaccounted_share": unaccounted / wall if wall else 0.0,
    }


def write_outputs(spans: list[Span], directory: str, stem: str) -> list[str]:
    """Span JSON lines plus Chrome trace-event JSON (opens in Perfetto)."""
    os.makedirs(directory, exist_ok=True)
    origin = min((span.start_ns for span in spans), default=0)
    lines_path = os.path.join(directory, f"{stem}.spans.jsonl")
    with open(lines_path, "w", encoding="utf-8") as file:
        for span in sorted(spans, key=lambda span: span.start_ns):
            file.write(json.dumps({
                "id": span.span_id, "name": span.name, "parent": span.parent,
                "start_ns": span.start_ns - origin,
                "end_ns": span.end_ns - origin, "thread": span.thread,
                "attrs": span.attrs,
            }, default=str) + "\n")
    chrome_path = os.path.join(directory, f"{stem}.trace.json")
    events = [{
        "name": span.name, "cat": layer_of(span.name), "ph": "X",
        "ts": (span.start_ns - origin) / 1e3,
        "dur": (span.end_ns - span.start_ns) / 1e3,
        "pid": os.getpid(), "tid": span.thread,
        "args": {key: str(value) for key, value in span.attrs.items()},
    } for span in spans]
    with open(chrome_path, "w", encoding="utf-8") as file:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, file)
    return [lines_path, chrome_path]

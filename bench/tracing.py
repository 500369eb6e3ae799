"""Spans recorded by the benchmark around its calls into spectralbvp.

A span has a name, a layer (the package module it measures), start and end
times from ``time.perf_counter`` (a system-wide monotonic clock, so spans
reported by child processes line up with the parent's), the span that
enclosed it and the operation it belongs to.  Spans stay in memory and are
written out when the run ends.

The untraced run uses ``NullTracer``: the same benchmark code runs, but every
span is a shared no-op context manager and ``wrap`` hands the callable back
untouched.
"""

from __future__ import annotations

import contextlib
import time

# Span record fields.
SPAN_ID, PARENT, OP, NAME, LAYER, START, END = range(7)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        stack = self.tracer._stack
        self.rec[PARENT] = stack[-1] if stack else None
        stack.append(self.rec[SPAN_ID])
        self.rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self.rec)
        return False


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def _new(self, name: str, layer: str | None) -> list:
        self._next_id += 1
        # A span's layer defaults to the first dotted component of its name.
        return [self._next_id, None, self.op_id, name, layer or name.split(".", 1)[0], 0.0, 0.0]

    def span(self, name: str, layer: str | None = None) -> _Span:
        return _Span(self, self._new(name, layer))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span."""

        def traced(*args):
            with self.span(name):
                return fn(*args)

        return traced

    def count(self, name: str, calls: int) -> None:
        """Record that the ``name`` spans covered ``calls`` calls in all
        (for a span timing a batch); spans count one call each otherwise."""
        self.calls[name] = self.calls.get(name, 0) + calls

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a finished span measured elsewhere (a child process), as a
        child of the innermost open span."""
        rec = self._new(name, layer)
        rec[PARENT] = self._stack[-1] if self._stack else None
        rec[START], rec[END] = start, end
        self.spans.append(rec)


class NullTracer:
    """Stand-in for ``Tracer`` in the untraced run."""

    enabled = False
    op_id = None
    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str | None = None):
        return self._null

    def wrap(self, name: str, fn):
        return fn

    def count(self, name: str, calls: int) -> None:
        pass

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        pass


def by_name(spans: list[list]) -> dict[str, list[float]]:
    """Inclusive duration of every span, grouped by span name."""
    out: dict[str, list[float]] = {}
    for rec in spans:
        out.setdefault(rec[NAME], []).append(rec[END] - rec[START])
    return out


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Total self time per layer: each span's duration minus the time its
    direct children cover.  One thread records every span, so the children
    of a span never overlap."""
    child_time: dict[int, float] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] = child_time.get(rec[PARENT], 0.0) + rec[END] - rec[START]
    out: dict[str, float] = {}
    for rec in spans:
        own = rec[END] - rec[START] - child_time.get(rec[SPAN_ID], 0.0)
        out[rec[LAYER]] = out.get(rec[LAYER], 0.0) + own
    return out


def count_children(spans: list[list], parent_name: str, child_name: str) -> list[int]:
    """Number of ``child_name`` spans directly inside each ``parent_name`` span."""
    counts = {rec[SPAN_ID]: 0 for rec in spans if rec[NAME] == parent_name}
    for rec in spans:
        if rec[NAME] == child_name and rec[PARENT] in counts:
            counts[rec[PARENT]] += 1
    return list(counts.values())

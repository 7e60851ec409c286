"""Spans and counters recorded around kvol's public functions, from outside.

The tracer wraps functions and ``CycloReal`` methods in the traced process
only; nothing under ``src/`` knows about it.  Spans (name, start, end, parent)
and counts stay in memory until the run ends.  Field arithmetic is too fine
grained for spans, so ``CycloReal`` methods only count calls (and ``sign``
accumulates its busy time).

A span's parent is the innermost open span on the same thread.  Threads of
the ``kvol-grid`` pool start with an empty stack, so their outermost spans
take the main thread's innermost open span as parent: the grid call.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

import kvol
from kvol import cli, field, hyperbolic, intersect, ratios, saddle, surface

# (span name, owner, attribute).  Module-level functions are replaced in
# every kvol module that imported them by name, methods on their class.
SPANS = [
    ("surface.transform", surface.TranslationSurface, "transform"),
    ("saddle.enumerate", saddle, "enumerate_saddle_connections"),
    ("intersect.form", intersect, "intersection_form"),
    ("intersect.class_vector", intersect.IntersectionForm, "class_vector"),
    ("ratios.closed_atoms", ratios, "closed_atoms"),
    ("ratios.kvol_bruteforce", ratios, "kvol_bruteforce"),
    ("ratios.verify_ngon_bound", ratios, "verify_ngon_bound"),
    ("ratios.K_of_directions", ratios, "K_of_directions"),
    ("ratios.kvol_closed_formula", ratios, "kvol_closed_formula"),
    ("hyperbolic.reduce", hyperbolic, "reduce_to_fundamental_domain"),
    ("hyperbolic.in_fd", hyperbolic, "in_fundamental_domain"),
    ("hyperbolic.dist_batch", hyperbolic, "dist_to_Gmax_batch"),
    ("hyperbolic.nearest", hyperbolic, "nearest_gmax_geodesic"),
    ("cli.main", cli, "main"),
]
COUNTS = [
    ("field.mul", field.CycloReal, "__mul__"),
    ("field.mul", field.CycloReal, "__rmul__"),
    ("field.inverse", field.CycloReal, "inverse"),
    ("intersect.pair", intersect.IntersectionForm, "pair"),
]
KVOL_MODULES = (kvol, cli, field, hyperbolic, intersect, kvol.plane, ratios, saddle, surface)
RATIO_SPANS = ("ratios.kvol_bruteforce", "ratios.verify_ngon_bound", "ratios.K_of_directions")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def counter(self) -> Counter:
        """This thread's counter; threads never share one, so no update is lost."""
        c = getattr(self._local, "counter", None)
        if c is None:
            c = self._local.counter = Counter()
            with self._lock:
                self._counters.append(c)
        return c

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, around a step it runs."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(name, *state)

    def _open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        self.counter()[name + ".calls"] += 1
        return sid, parent, stack, time.perf_counter()

    def _close(self, name, sid, parent, stack, start):
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(sid, name, parent, start, end, threading.get_ident()))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper_factory):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = wrapper_factory(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for mod in KVOL_MODULES:
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        for name, owner, attr in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, owner, attr in COUNTS:
            self._patch(owner, attr, lambda fn, name=name: self._count_wrapper(name, fn))
        self._patch(field.CycloReal, "sign", self._sign_wrapper)
        self._patch(field, "sqrt_in_field", self._sqrt_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, stack, start = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, stack, start)
            tracer._observe(name, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, out) -> None:
        """Counts taken from a traced call's result."""
        c = self.counter()
        if name == "saddle.enumerate":
            c["saddle.connections"] += len(out)
        elif name == "ratios.closed_atoms":
            c["ratios.curves"] += len(out)
        elif name == "ratios.kvol_bruteforce":
            m = out.params["count_curves"]
            c["ratios.pairs"] += m * (m - 1) // 2
        elif name == "ratios.verify_ngon_bound":
            c["ratios.pairs"] += out.pairs_checked
        elif name == "hyperbolic.dist_batch":
            c["hyperbolic.unconverged"] += int(len(out[1]) - out[1].sum())
        elif name == "hyperbolic.nearest":
            c["hyperbolic.unconverged"] += 0 if out[1] else 1

    def _count_wrapper(self, name, fn):
        key = name + ".calls"
        counter = self.counter

        def counted(*args, **kwargs):
            counter()[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _sign_wrapper(self, fn):
        counter = self.counter
        clock = time.perf_counter

        def sign(x):
            start = clock()
            try:
                return fn(x)
            finally:
                c = counter()
                c["field.sign.calls"] += 1
                c["field.sign_s"] += clock() - start

        sign.__wrapped__ = fn
        return sign

    def _sqrt_wrapper(self, fn):
        counter = self.counter

        def sqrt_in_field(x):
            out = fn(x)
            c = counter()
            c["field.sqrt.calls"] += 1
            c["field.sqrt_misses"] += out is None
            return out

        sqrt_in_field.__wrapped__ = fn
        return sqrt_in_field


# ---------------------------------------------------------------------------
# deriving per-layer metrics from spans and counts
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, covered_to = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, covered_to)
        if hi > lo:
            total += hi - lo
            covered_to = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length(kids)
    return out


def busy_time(spans: list[Span], name: str) -> float:
    """Wall time during which at least one span of ``name`` is open: a
    recursive call counts once, and so do spans of the same layer that
    overlap on two threads."""
    return _union_length([(s.start, s.end) for s in spans if s.name == name])


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced timed phase."""
    selfs = self_times(spans)
    enumerate_s = busy_time(spans, "saddle.enumerate")
    connections = counts["saddle.connections"]
    return {
        "field.mul_calls": counts["field.mul.calls"],
        "field.inverse_calls": counts["field.inverse.calls"],
        "field.sign_calls": counts["field.sign.calls"],
        "field.sign_s": counts["field.sign_s"],
        "field.sqrt_calls": counts["field.sqrt.calls"],
        "field.sqrt_misses": counts["field.sqrt_misses"],
        "surface.transform_s": busy_time(spans, "surface.transform"),
        "saddle.enumerate_s": enumerate_s,
        "saddle.enumerate_calls": counts["saddle.enumerate.calls"],
        "saddle.connections": connections,
        "saddle.connections_per_s": connections / enumerate_s if enumerate_s else 0.0,
        "intersect.form_s": busy_time(spans, "intersect.form"),
        "intersect.class_vector_s": busy_time(spans, "intersect.class_vector"),
        "intersect.class_vector_calls": counts["intersect.class_vector.calls"],
        "intersect.pair_calls": counts["intersect.pair.calls"],
        "ratios.closed_atoms_s": busy_time(spans, "ratios.closed_atoms"),
        "ratios.curves": counts["ratios.curves"],
        # K_of_directions makes every IntersectionForm.pair call in these
        # workloads, so the pair count stands in for its scanned pairs
        "ratios.pairs": counts["ratios.pairs"] + counts["intersect.pair.calls"],
        "ratios.self_s": sum(selfs[s.id] for s in spans if s.name in RATIO_SPANS),
        "hyperbolic.reduce_calls": counts["hyperbolic.reduce.calls"],
        "hyperbolic.reduce_s": busy_time(spans, "hyperbolic.reduce"),
        "hyperbolic.in_fd_calls": counts["hyperbolic.in_fd.calls"],
        "hyperbolic.dist_batch_s": busy_time(spans, "hyperbolic.dist_batch"),
        "hyperbolic.nearest_s": busy_time(spans, "hyperbolic.nearest"),
        "hyperbolic.unconverged": counts["hyperbolic.unconverged"],
        "cli.grid_self_s": sum(selfs[s.id] for s in spans if s.name == "cli.main"),
    }


"""In-memory span tracing of the ``dagmut`` package's layers.

:class:`Tracer` wraps every public function and every class constructor of
the layer modules and records one span (name, start, end, parent) per call.
Modules bind names at import (``from .sopf import pt``), so each wrapper is
installed in every ``dagmut`` module namespace that holds the original, not
only in the defining one.  :meth:`Tracer.uninstall` restores the originals.

Two leaf helpers called once per symbol or per term, ``validate_symbol`` and
``term_key``, are not wrapped: a span each would cost more than the call.
Their time is the self time of their callers (``Dg``, ``SopfRe``, ...).

The ``Dg`` adjacency queries (``successors``, ``predecessors``,
``out_degree``, ``in_degree``) share the span name ``graph.adjacency_scan``,
and every call adds ``len(g.arcs)`` to the count ``graph.arcs_scanned``.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

from dagmut.ops import ArcInsert

LAYERS = ("graph", "sopf", "mutate", "ops", "oracle", "cli")
UNTRACED = frozenset({"sopf.validate_symbol", "sopf.term_key"})
ADJACENCY = ("successors", "predecessors", "out_degree", "in_degree")


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    ``parents[i]`` is the index of span ``i``'s parent, or -1.
    """
    out = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        #: ``(term count, graph)`` after each ``mutate.apply_op`` call
        self.results: list[tuple[int, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name`` per call; ``after(args,
        result)`` runs once the span has closed."""
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dagmut" or name.startswith("dagmut."))]
        for layer in LAYERS:
            module = sys.modules[f"dagmut.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and name not in UNTRACED:
                    wrapper = self.wrap(name, obj, self._after(name))
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, key, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        name = f"{layer}.{cls.__name__}"
        if "__init__" in vars(cls):
            self._set(cls, "__init__", self.wrap(name, vars(cls)["__init__"], self._after(name)))
        if name == "graph.Dg":
            for method in ADJACENCY:
                self._set(cls, method, self.wrap("graph.adjacency_scan", vars(cls)[method],
                                                 self._count_arcs))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counts taken at the layer boundary --------------------------------

    def _after(self, name: str):
        return {
            "sopf.SopfRe": self._count_canonicalised,
            "sopf.pt": self._count_pt,
            "mutate.apply_op": self._count_insert_yield,
        }.get(name)

    def _count_arcs(self, args, result) -> None:
        self.counts["graph.arcs_scanned"] += len(args[0].arcs)

    def _count_canonicalised(self, args, result) -> None:
        self.counts["sopf.terms_canonicalised"] += len(args[0].terms)

    def _count_pt(self, args, result) -> None:
        self.counts["sopf.pt.terms_scanned"] += len(args[0])
        self.counts["sopf.pt.terms_matched"] += len(result)

    def _count_insert_yield(self, args, result) -> None:
        state, entry = result
        stack = [entry]
        while stack:
            e = stack.pop()
            stack.extend(e.sub)
            if isinstance(e.op, ArcInsert):
                self.counts["mutate.terms_added"] += e.terms_added
                self.counts["mutate.added_bound"] += e.added_bound
        self.results.append((len(state.re), state.dg))

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, int]]:
        """``name -> (calls, self_ns)`` over all recorded spans."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for nid, s in zip(self.span_name, selfs):
            calls[nid] += 1
            self_ns[nid] += s
        return {self.names[nid]: (calls[nid], self_ns[nid]) for nid in calls}

    def write(self, path) -> None:
        """All spans as tab-separated text, one per line."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                out.write(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\t{selfs[i]}\n")

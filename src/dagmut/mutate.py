"""Synchronized mutation of a (graph, expression) model pair.

Each operator transforms the graph and its sum-of-products expression in
one step and returns a fresh :class:`ModelState` plus a :class:`LogEntry`
with term accounting; inputs are never modified, and a failed operator
leaves no partial result.

Arc insertion concatenates every distinct head fragment reaching the arc's
source (prefixes cut at its first occurrence) with every distinct tail
fragment leaving the arc's target (suffixes cut at its last occurrence) and
adds the products.  Arc omission drops every term containing the two nodes
adjacently and, when that removal exhausts all terms containing the source
(target), re-adds the head (tail) fragments as terms of their own.  Node
operators are composites of arc operators around adding/removing the bare
one-symbol term.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import contains
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import InsertionCycleError, OperationError, ScriptError
from .graph import Dg, apply_dg_op, enumerate_paths
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, format_op
from .sopf import (
    SopfRe,
    _extend,
    _select,
    add_term,
    ht,
    pt,
    remove_term,
    set_concat,
    set_difference,
    set_union,
    tt,
)

if TYPE_CHECKING:
    from .metrics import OpCounters


@dataclass(frozen=True)
class ModelState:
    """A graph and its expression, transformed together and never separately."""

    dg: Dg
    re: SopfRe

    def __post_init__(self):
        stray = self.re.symbols() - self.dg.nodes
        if stray:
            raise ValueError(f"expression mentions undeclared nodes: {sorted(stray)}")


def _state(dg: Dg, re: SopfRe) -> ModelState:
    """A :class:`ModelState` built without the constructor's symbol check.

    Callers pass the paths of ``dg`` or an operator result: operators add
    no symbol that is not a node of the new graph (``apply_dg_op`` checked
    each node it added), and node omission checks the one node it removes.
    """
    st = object.__new__(ModelState)
    vars(st).update(dg=dg, re=re)
    return st


@dataclass(frozen=True)
class LogEntry:
    """Term accounting for one operator application.

    ``terms_added``/``terms_removed`` are net set differences against the
    pre-state.  For arc operators ``added_bound`` is the head-count x
    tail-count product (insertion) or head-count + tail-count sum
    (omission) and ``removed_expected`` the count of adjacent-pair terms;
    node operators carry their inner arc steps in ``sub`` instead.
    """

    op: MutationOp
    terms_added: int
    terms_removed: int
    added_bound: int | None = None
    removed_expected: int | None = None
    sub: tuple["LogEntry", ...] = ()

    @property
    def notation(self) -> str:
        return format_op(self.op)


@dataclass(frozen=True)
class MutationLog:
    applied: tuple[LogEntry, ...] = ()

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.applied)

    def __len__(self) -> int:
        return len(self.applied)


def model_from_graph(g: Dg) -> ModelState:
    """Build the synchronized state of an acyclic graph; its expression is
    the full start-to-finish path enumeration."""
    return _state(g, enumerate_paths(g))


def _entry(op: MutationOp, before: SopfRe, after: SopfRe, kept: int, **extra) -> LogEntry:
    """Net term counts, ``kept`` being the number of terms of ``before``
    still in ``after``."""
    return LogEntry(op, terms_added=len(after) - kept, terms_removed=len(before) - kept, **extra)


def _order_witnessed(r: SopfRe, earlier: str, later: str) -> bool:
    """True if some term places ``earlier`` strictly before ``later``."""
    for term in r._terms:
        try:
            k = term.index(earlier)
        except ValueError:
            continue
        if later in term[k + 1:]:
            return True
    return False


def _holds_only(containing: SopfRe, joined: SopfRe, counters: "OpCounters | None") -> bool:
    """True if ``containing`` and its subset ``joined`` are equal sets.

    Equal sizes decide.  The count is that of a positional walk over both
    sets in canonical order, which compares every symbol of ``joined`` once
    when the sets are equal and stops before the first term when their
    sizes differ.
    """
    if len(containing) != len(joined):
        return False
    if counters is not None:
        counters.symbol_comparisons += sum(map(len, joined._terms))
    return True


def arc_insert(st: ModelState, src: str, dst: str,
               counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert arc ``src -> dst`` and extend the expression accordingly."""
    op = ArcInsert(src, dst)
    try:
        dg = apply_dg_op(st.dg, op)
    except InsertionCycleError as exc:
        # reachability is authoritative; note when the term set alone would
        # not have caught the cycle
        if _order_witnessed(st.re, dst, src):
            raise
        raise InsertionCycleError(f"{exc} (path not witnessed by any product term)") from None
    containing_src = pt(st.re, (src,), counters)
    heads = ht(containing_src, (src,), counters)
    tails = tt(pt(st.re, (dst,), counters), (dst,), counters)
    products = set_concat(heads, tails, counters)
    # every product holds src, so only a term holding src can equal one
    new_re = _extend(st.re, products, containing_src._terms, counters)
    # the union keeps every term of st.re
    entry = _entry(op, st.re, new_re, len(st.re), added_bound=len(heads) * len(tails))
    return _state(dg, new_re), entry


def arc_omit(st: ModelState, src: str, dst: str,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit arc ``src -> dst`` and shrink the expression accordingly."""
    op = ArcOmit(src, dst)
    dg = apply_dg_op(st.dg, op)
    containing_src = pt(st.re, (src,), counters)
    containing_dst = pt(st.re, (dst,), counters)
    # the terms holding the pair are among those holding src
    joined = _select(st.re, containing_src._terms, (src, dst), counters)
    heads = SopfRe()
    if _holds_only(containing_src, joined, counters):
        heads = ht(containing_src, (src,), counters)
    tails = SopfRe()
    if _holds_only(containing_dst, joined, counters):
        tails = tt(containing_dst, (dst,), counters)
    shrunk = set_difference(st.re, joined, counters)
    # heads hold src and come back only once every term holding src is
    # dropped, and tails likewise hold dst, so no fragment equals a kept term
    new_re = _extend(shrunk, set_union(heads, tails, counters), (), counters)
    # a head ends at the first src and a tail starts at the last dst, so
    # neither holds the pair src dst: no joined term comes back
    entry = _entry(op, st.re, new_re, len(shrunk), added_bound=len(heads) + len(tails),
                   removed_expected=len(joined))
    return _state(dg, new_re), entry


def node_insert(st: ModelState, node: str,
                outgoing: Sequence[str] = (), ingoing: Sequence[str] = (),
                counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert ``node`` with its arcs: the bare term first, then outgoing
    arcs, then ingoing arcs (each a full arc insertion), then the bare term
    is dropped again if any arc was attached."""
    op = NodeInsert(node, tuple(outgoing), tuple(ingoing))
    # the arc insertions check the neighbours
    work = _state(apply_dg_op(st.dg, NodeInsert(node)), add_term(st.re, (node,), counters))
    sub: list[LogEntry] = []
    for x in op.outgoing:
        work, step = arc_insert(work, node, x, counters)
        sub.append(step)
    for y in op.ingoing:
        work, step = arc_insert(work, y, node, counters)
        sub.append(step)
    if op.outgoing or op.ingoing:
        work = _state(work.dg, remove_term(work.re, (node,), counters))
    # the insertions keep every term of st.re, and the new node's bare term
    # is not one of them
    return work, _entry(op, st.re, work.re, len(st.re), sub=tuple(sub))


def node_omit(st: ModelState, node: str,
              counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit ``node``: its outgoing arcs first, then its ingoing arcs (each a
    full arc omission, leaving the node flagged both ways), then the bare
    term and the node itself are dropped."""
    op = NodeOmit(node)
    work = st
    sub: list[LogEntry] = []
    # an unknown node has no arcs, and omitting it from the isolated-node
    # graph below raises
    for x in st.dg.successors(node):
        work, step = arc_omit(work, node, x, counters)
        sub.append(step)
    for y in st.dg.predecessors(node):
        work, step = arc_omit(work, y, node, counters)
        sub.append(step)
    final_dg = apply_dg_op(work.dg, op)
    final_re = remove_term(work.re, (node,), counters)
    # only a term that is not a path of the graph can still hold the node
    if any(map(contains, final_re._terms, repeat(node))):
        raise ValueError(f"expression mentions undeclared nodes: {[node]}")
    # the arc steps drop only terms holding the node, and none is left, so
    # exactly the terms of st.re without the node are kept
    kept = len(st.re) - sum(map(contains, st.re._terms, repeat(node)))
    entry = _entry(op, st.re, final_re, kept, sub=tuple(sub))
    return _state(final_dg, final_re), entry


def apply_op(st: ModelState, op: MutationOp,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Apply a single operator to the synchronized state."""
    if isinstance(op, ArcInsert):
        return arc_insert(st, op.src, op.dst, counters)
    if isinstance(op, ArcOmit):
        return arc_omit(st, op.src, op.dst, counters)
    if isinstance(op, NodeInsert):
        return node_insert(st, op.node, op.outgoing, op.ingoing, counters)
    if isinstance(op, NodeOmit):
        return node_omit(st, op.node, counters)
    raise TypeError(f"not a mutation operator: {op!r}")


def apply_script(st: ModelState, ops: Iterable[MutationOp],
                 counters: "OpCounters | None" = None) -> tuple[ModelState, MutationLog]:
    """Apply operators left to right.  The first failure aborts with a
    :class:`ScriptError` naming the 1-based operator index; no partial
    state is returned."""
    entries: list[LogEntry] = []
    state = st
    for index, op in enumerate(ops, 1):
        try:
            state, entry = apply_op(state, op, counters)
        except (OperationError, ValueError) as exc:
            raise ScriptError(index, format_op(op), exc) from exc
        entries.append(entry)
    return state, MutationLog(tuple(entries))


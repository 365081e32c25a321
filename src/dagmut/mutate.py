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

A node operator selects the terms holding its node once and hands that
selection to each inner arc step (the private cores behind
:func:`arc_insert` and :func:`arc_omit`), which then searches the
expression only for the arc's other endpoint.  Node insertion needs no
search at all: no term of the pre-state holds the new node, and every term
appended after them does.  Node omission searches once and, after each
step, drops the step's removed terms from its selection and adds the new
fragments that hold the node; the selection also gives its kept count and
its final check.  Results, log entries and counts are those of the
composition of the public arc operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
from operator import contains
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import InsertionCycleError, OperationError, ScriptError
from .graph import Dg, apply_dg_op, enumerate_paths
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, format_op
from .sopf import (
    SopfRe,
    Term,
    _extend,
    _remove_at,
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
    return _arc_insert(st, src, dst, counters)


def _holding(r: SopfRe, sym: str, held: tuple[Term, ...] | None,
             counters: "OpCounters | None") -> SopfRe:
    """``pt(r, (sym,))``, from the caller's selection ``held`` if given:
    the terms of ``r`` that hold ``sym``, in ``r``'s order."""
    if held is None:
        return pt(r, (sym,), counters)
    return _select(r, held, (sym,), counters)


def _arc_insert(st: ModelState, src: str, dst: str, counters: "OpCounters | None",
                held_src: tuple[Term, ...] | None = None,
                held_dst: tuple[Term, ...] | None = None) -> tuple[ModelState, LogEntry]:
    """:func:`arc_insert`, given the terms holding ``src`` or ``dst`` if
    the caller has them.  The new terms go after those of ``st.re``."""
    op = ArcInsert(src, dst)
    try:
        dg = apply_dg_op(st.dg, op)
    except InsertionCycleError as exc:
        # reachability is authoritative; note when the term set alone would
        # not have caught the cycle
        if _order_witnessed(st.re, dst, src):
            raise
        raise InsertionCycleError(f"{exc} (path not witnessed by any product term)") from None
    containing_src = _holding(st.re, src, held_src, counters)
    heads = ht(containing_src, (src,), counters)
    tails = tt(_holding(st.re, dst, held_dst, counters), (dst,), counters)
    products = set_concat(heads, tails, counters)
    # every product holds src, so only a term holding src can equal one
    new_re = _extend(st.re, products, containing_src._terms, counters)
    # the union keeps every term of st.re
    entry = _entry(op, st.re, new_re, len(st.re), added_bound=len(heads) * len(tails))
    return _state(dg, new_re), entry


def arc_omit(st: ModelState, src: str, dst: str,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit arc ``src -> dst`` and shrink the expression accordingly."""
    state, entry, _ = _arc_omit(st, src, dst, counters)
    return state, entry


def _arc_omit(st: ModelState, src: str, dst: str, counters: "OpCounters | None",
              held_src: tuple[Term, ...] | None = None,
              held_dst: tuple[Term, ...] | None = None,
              ) -> tuple[ModelState, LogEntry, SopfRe]:
    """:func:`arc_omit`, given the terms holding ``src`` or ``dst`` if the
    caller has them; also returns the dropped terms.  The kept terms stay
    in ``st.re``'s order and the fragments come after them."""
    op = ArcOmit(src, dst)
    dg = apply_dg_op(st.dg, op)
    containing_src = _holding(st.re, src, held_src, counters)
    containing_dst = _holding(st.re, dst, held_dst, counters)
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
    return _state(dg, new_re), entry, joined


def node_insert(st: ModelState, node: str,
                outgoing: Sequence[str] = (), ingoing: Sequence[str] = (),
                counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert ``node`` with its arcs: the bare term first, then outgoing
    arcs, then ingoing arcs (each a full arc insertion), then the bare term
    is dropped again if any arc was attached."""
    op = NodeInsert(node, tuple(outgoing), tuple(ingoing))
    # the arc insertions check the neighbours
    work = _state(apply_dg_op(st.dg, NodeInsert(node)), add_term(st.re, (node,), counters))
    # no term of st.re holds the new node, and every later term does: the
    # bare term at position n, then the products of each insertion
    n = len(st.re)
    sub: list[LogEntry] = []
    for x in op.outgoing:
        work, step = _arc_insert(work, node, x, counters, held_src=work.re._terms[n:])
        sub.append(step)
    for y in op.ingoing:
        work, step = _arc_insert(work, y, node, counters, held_dst=work.re._terms[n:])
        sub.append(step)
    if sub:
        work = _state(work.dg, _remove_at(work.re, n, counters))
    # the insertions keep every term of st.re, and the new node's bare term
    # is not one of them
    return work, _entry(op, st.re, work.re, len(st.re), sub=tuple(sub))


def node_omit(st: ModelState, node: str,
              counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit ``node``: its outgoing arcs first, then its ingoing arcs (each a
    full arc omission, leaving the node flagged both ways), then the bare
    term and the node itself are dropped."""
    op = NodeOmit(node)
    # the terms holding the node, selected once and kept up to date: each
    # step drops some of them and appends fragments, some holding the node
    held = pt(st.re, (node,))._terms
    # the arc steps drop only terms holding the node, and none is left at
    # the end (checked below), so exactly the others are kept
    kept = len(st.re) - len(held)
    work = st
    sub: list[LogEntry] = []
    # an unknown node has no arcs, and omitting it from the isolated-node
    # graph below raises
    for x in st.dg.successors(node):
        before = len(work.re)
        work, step, joined = _arc_omit(work, node, x, counters, held_src=held)
        held = _reselect(held, joined, work.re._terms[before - len(joined):], node)
        sub.append(step)
    for y in st.dg.predecessors(node):
        before = len(work.re)
        work, step, joined = _arc_omit(work, y, node, counters, held_dst=held)
        held = _reselect(held, joined, work.re._terms[before - len(joined):], node)
        sub.append(step)
    final_dg = apply_dg_op(work.dg, op)
    final_re = remove_term(work.re, (node,), counters)
    # only a term that is not a path of the graph can still hold the node
    if len(held) > ((node,) in held):
        raise ValueError(f"expression mentions undeclared nodes: {[node]}")
    entry = _entry(op, st.re, final_re, kept, sub=tuple(sub))
    return _state(final_dg, final_re), entry


def _reselect(held: tuple[Term, ...], joined: SopfRe, fragments: tuple[Term, ...],
              node: str) -> tuple[Term, ...]:
    """The terms holding ``node`` after an arc omission that dropped
    ``joined`` (all among ``held``) and appended ``fragments``."""
    drop = set(joined._terms)
    return (tuple(filterfalse(drop.__contains__, held))
            + tuple(compress(fragments, map(contains, fragments, repeat(node)))))


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


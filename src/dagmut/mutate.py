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

Omission works on the terms that hold its arc.  It splits the expression
once into ``held``, the terms holding one endpoint (the source for
:func:`arc_omit`, the node for :func:`node_omit`), and ``rest``, the
others, and does all its work on ``held``: the pair is searched for only
there, and the selected endpoint is exhausted when every term of ``held``
is joined.  The other endpoint is exhausted when its hits in ``held`` are
all joined and no term of ``rest`` holds it, which a scan of ``rest``
stops reading at the first term that does.  An exhausted endpoint's
selection is the joined terms themselves, so they are what the heads or
tails are cut from.  The kept terms are ``rest`` and what ``held`` keeps,
so no term of the expression is hashed.  Each step sends its fragments to
``held`` or ``rest`` by whether they hold the selected endpoint; node
omission splits once and passes both on from step to step, without
building the intermediate expressions, as the inner log entries need only
counts.  An omission result is ``rest + held``: an order other than its
input's, which only printing reads, and printing sorts.

Arc insertion cuts its fragments from its two selections, the terms
holding the source and those holding the target, without re-checking
them (``sopf._heads``/``sopf._tails``).  Every product holds both
endpoints, so a term equal to a product is in both selections, and the
union checks the products only against the smaller one.

Node insertion searches for no term holding its node: no term of the
pre-state holds the new node, and every term appended after them does, so
each inner arc step (the private core behind :func:`arc_insert`) takes
that slice as its selection and searches the expression only for the
arc's other endpoint.  The slice is also the union's candidates whenever
it is the smaller selection.  The bare term is appended without a probe:
every symbol of a model is a node, so no term of the pre-state equals the
bare term of a new node.

Results, log entries and counts are those of the composition of the
public arc operators around the bare term.  The counts are those of the
full scans and set operations the operators no longer run, computed in
closed form only when counters are given.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains, is_not, not_
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import InsertionCycleError, OperationError, ScriptError
from .graph import Dg, apply_dg_op, enumerate_paths
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, format_op
from .sopf import (
    SopfRe,
    Term,
    _count_copies,
    _count_probes,
    _count_select,
    _extend,
    _find,
    _heads,
    _remove_at,
    _select,
    _split,
    _tails,
    _trusted,
    pt,
    set_concat,
    set_union,
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
    state = _state(g, enumerate_paths(g))
    # operators patch the predecessor index; built here, it is built once
    # per model and shared by every state derived from this one
    g._pred
    return state


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


def arc_insert(st: ModelState, src: str, dst: str,
               counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert arc ``src -> dst`` and extend the expression accordingly."""
    return _arc_insert(st, src, dst, counters)


def _holding(r: SopfRe, sym: str, held: tuple[Term, ...] | None,
             counters: "OpCounters | None") -> tuple[Term, ...]:
    """The terms of ``pt(r, (sym,))``, from the caller's selection ``held``
    if given: the terms of ``r`` that hold ``sym``, in ``r``'s order."""
    if held is None:
        return pt(r, (sym,), counters)._terms
    return _select(r, held, (sym,), counters)._terms


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
    containing_dst = _holding(st.re, dst, held_dst, counters)
    heads = _heads(containing_src, src, counters)
    tails = _tails(containing_dst, dst, counters)
    products = set_concat(heads, tails, counters)
    # every product holds both endpoints, so a term equal to one is in
    # both selections: the smaller one is all the union need check
    new_re = _extend(st.re, products, min(containing_src, containing_dst, key=len), counters)
    # the union keeps every term of st.re
    entry = _entry(op, st.re, new_re, len(st.re), added_bound=len(heads) * len(tails))
    return _state(dg, new_re), entry


def arc_omit(st: ModelState, src: str, dst: str,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit arc ``src -> dst`` and shrink the expression accordingly."""
    dg = apply_dg_op(st.dg, ArcOmit(src, dst))
    held, rest, entry = _omit(*_split(st.re._terms, src), src, dst, src, counters)
    return _state(dg, _trusted(rest + held)), entry


def _omit(held: tuple[Term, ...], rest: tuple[Term, ...], src: str, dst: str, sym: str,
          counters: "OpCounters | None") -> tuple[tuple[Term, ...], tuple[Term, ...], LogEntry]:
    """Omit arc ``src -> dst`` from the expression ``rest + held`` on the
    term side alone, where ``held`` are its terms that hold ``sym`` (``src``
    or ``dst``) and ``rest`` the others.

    Returns the new ``held`` and ``rest`` and the step's log entry: the
    kept terms of ``held`` followed by the fragments that hold ``sym``, and
    ``rest`` followed by the other fragments.  Only ``held`` is searched;
    ``rest`` is read only to learn whether a term holds the other endpoint,
    and only up to the first that does.  The counts are those of the
    composition over the whole expression: :func:`pt` for each endpoint
    and for the pair, :func:`set_difference` of the joined terms, and the
    union of the kept terms with the fragments.
    """
    other = dst if sym == src else src
    # the terms holding the pair are among those holding both endpoints
    has_other = list(map(contains, held, repeat(other)))
    both = tuple(compress(held, has_other))
    found = list(map(is_not, _find(both, (src, dst), counters), repeat(None)))
    joined = tuple(compress(both, found))
    kept = tuple(compress(held, map(not_, has_other))) + tuple(compress(both, map(not_, found)))
    # an endpoint is exhausted once every term holding it is joined; then
    # its selection is ``joined`` itself
    sym_out = not kept
    other_out = (len(joined) == len(both)
                 and not any(map(contains, rest, repeat(other))))
    src_out, dst_out = (sym_out, other_out) if sym == src else (other_out, sym_out)
    heads = _heads(joined, src, counters) if src_out else SopfRe()
    tails = _tails(joined, dst, counters) if dst_out else SopfRe()
    # heads hold src and come back only once every term holding src is
    # dropped, and tails likewise hold dst, so no fragment equals a kept
    # term; a head ends at the first src and a tail starts at the last dst,
    # so neither holds the pair src dst: no joined term comes back
    fragments = set_union(heads, tails, counters)._terms
    if counters is not None:
        terms = rest + held
        held_other = tuple(compress(terms, map(contains, terms, repeat(other))))
        held_src, held_dst = (held, held_other) if sym == src else (held_other, held)
        _count_select(terms, held_src, (src,), len(held_src), counters)
        _count_select(terms, held_dst, (dst,), len(held_dst), counters)
        _count_select(terms, held_src, (src, dst), len(joined), counters)
        # an exhausted endpoint's selection is checked equal to the joined
        # terms by a walk over them
        counters.symbol_comparisons += (src_out + dst_out) * sum(map(len, joined))
        # set_difference(R, joined) probes both and copies the kept terms;
        # their union with the fragments probes and copies both again
        _count_probes(counters, terms)
        _count_probes(counters, terms)
        _count_probes(counters, fragments)
        _count_copies(counters, 2 * (len(terms) - len(joined)) + len(fragments))
    holds = list(map(contains, fragments, repeat(sym)))
    entry = LogEntry(ArcOmit(src, dst), terms_added=len(fragments), terms_removed=len(joined),
                     added_bound=len(heads) + len(tails), removed_expected=len(joined))
    return (kept + tuple(compress(fragments, holds)),
            rest + tuple(compress(fragments, map(not_, holds))), entry)


def node_insert(st: ModelState, node: str,
                outgoing: Sequence[str] = (), ingoing: Sequence[str] = (),
                counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert ``node`` with its arcs: the bare term first, then outgoing
    arcs, then ingoing arcs (each a full arc insertion), then the bare term
    is dropped again if any arc was attached."""
    op = NodeInsert(node, tuple(outgoing), tuple(ingoing))
    # the arc insertions check the neighbours
    dg = apply_dg_op(st.dg, NodeInsert(node))
    # every symbol of st.re is a node, so no term equals the bare term of
    # the new node: it is appended unprobed, counted as add_term's probe
    # and copy
    bare = (node,)
    _count_probes(counters, (bare,))
    _count_copies(counters, 1)
    work = _state(dg, _trusted(st.re._terms + (bare,)))
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
    # an unknown node raises here, before any term is read
    dg = apply_dg_op(st.dg, op)
    held, rest = _split(st.re._terms, node)
    # the arc steps drop only terms holding the node, and none is left at
    # the end (checked below), so exactly the others are kept
    kept = len(rest)
    sub: list[LogEntry] = []
    for x in st.dg.successors(node):
        held, rest, step = _omit(held, rest, node, x, node, counters)
        sub.append(step)
    for y in st.dg.predecessors(node):
        held, rest, step = _omit(held, rest, y, node, node, counters)
        sub.append(step)
    # remove_term's probe for the bare term
    _count_probes(counters, ((node,),))
    # only a term that is not a path of the graph can still hold the node
    if len(held) > ((node,) in held):
        raise ValueError(f"expression mentions undeclared nodes: {[node]}")
    final_re = _trusted(rest)
    return _state(dg, final_re), _entry(op, st.re, final_re, kept, sub=tuple(sub))


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


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
insertion adds the bare one-symbol term, then the node's arcs, and keeps
it: flags are sticky, so the node is a start and a finish node.  Node
omission omits the node's arcs, then the bare term.

Models are *trim*: every node lies on a start-to-finish path.  Every
operator keeps a graph trim and its expression the graph's path language,
so :func:`model_from_graph` and :class:`ModelState` refuse any other graph.

The operators work on the code strings of :mod:`dagmut.sopf`: a symbol
search is one ``in``, and the omitted pair one two-code-point ``in``.

Because the expression is the graph's path language, the fragments and
the exhaustion tests have a graph meaning, and the operators read them
off the graph where that is cheaper than a scan of the terms.  The heads
of a node, the terms holding it cut after it, are the paths from a start
to it; its tails are the paths from it to a finish (each term is a path,
which holds a node at most once).  A term holds an arc's two endpoints
adjacently iff it runs through the arc.

Arc insertion reads no term.  It spells the heads of the source and the
tails of the target with one walk of the graph each
(:func:`~dagmut.graph._spell_from`) and appends their products unprobed:
every product holds the new adjacency, which no term of the pre-state
holds, and the products are distinct, as a path holds the source once.

Omission works on the terms that hold its arc.  It splits the expression
once into ``held``, the terms holding one endpoint (the source for
:func:`arc_omit`, the node for :func:`node_omit`), and ``rest``, the
others, and does all its work on ``held``: the pair is searched for only
there, and the selected endpoint is exhausted when every term of ``held``
is joined.  The other endpoint is exhausted when every path through it
runs through the arc: it has no flag on the arc's side and no other
neighbour there, which the graph answers without a scan.  An exhausted
endpoint's selection is the joined terms themselves, so they are what the
heads or tails are cut from.  The kept terms are ``rest`` and what
``held`` keeps, so no term of the expression is hashed.  Each step sends
its fragments to ``held`` or ``rest`` by whether they hold the selected
endpoint; node omission splits once and passes both on from step to
step, without building the intermediate expressions, as the inner log
entries need only counts.  An omission result is ``rest + held``: an
order other than its input's, which only printing reads, and printing
sorts.

Node insertion edits the graph once, with the whole operator (see
:func:`~dagmut.graph.apply_dg_op`), which checks every arc before any term
is read, and then reads no term either.  Its inner steps take their
fragments from the final graph: no ancestor of an ingoing neighbour and no
descendant of an outgoing one is the new node, or the graph would be
cyclic, so the final graph gives them what each step would see.  An
outgoing step ``v -> x`` joins the bare word ``v`` to the tails of ``x``.
The new node's tails are its bare term and those products, so every
ingoing step ``y -> v`` joins the heads of ``y`` to the terms appended
before the first ingoing step.  The bare term is appended without a
probe: every symbol of a model is a node, so no term of the pre-state
equals the bare term of a new node.

Results and log entries are those of the composition of the public arc
operators around the bare term.  Counters tally the work the operators
do (see :class:`~dagmut.metrics.OpCounters`), which is less than that
composition does: a split instead of three selections, no difference
and no probe of the bare term.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains, not_
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ModelError, OperationError, ScriptError
from .graph import Adjacency, Dg, _spell_from, apply_dg_op, enumerate_paths
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, format_op
from .sopf import (
    Code,
    SopfRe,
    _code,
    _heads,
    _split,
    _tails,
    _tally,
    _trusted,
    print_sopf,
    pt,  # noqa: F401  not called here; the benchmark's tracer test reads mutate.pt
    set_union,
)

if TYPE_CHECKING:
    from .metrics import OpCounters


@dataclass(frozen=True)
class ModelState:
    """A graph and its expression, transformed together and never separately.

    Operators assume ``re == enumerate_paths(dg)``, as every state from
    :func:`model_from_graph` or an operator has it: they read fragments and
    exhaustion off the graph.  Built by hand, its graph must be trim and
    its terms paths of the graph; a subset of the paths is accepted, and
    :func:`~dagmut.oracle._invariant_violations` reports it, but operators
    give it no defined result."""

    dg: Dg
    re: SopfRe

    def __post_init__(self):
        paths = enumerate_paths(self.dg)
        _require_trim(self.dg, paths)
        stray = set(self.re._terms).difference(paths._terms)
        if stray:
            term = print_sopf(_trusted((min(stray),)))
            raise ModelError(f"term {term!r} is not a start-to-finish path of the graph")


def _require_trim(g: Dg, paths: SopfRe) -> None:
    """Raise a :class:`ModelError` naming the smallest node of ``g`` on no
    start-to-finish path.  ``paths`` is ``enumerate_paths(g)``, and a node
    is on a path iff a term holds it: one pass over the joined terms."""
    if len(set("".join(paths._terms))) != len(g.nodes):
        useless = min(g.nodes - paths.symbols())
        raise ModelError(f"node {useless!r} lies on no start-to-finish path (model not trim)")


def _state(dg: Dg, re: SopfRe) -> ModelState:
    """A :class:`ModelState` built without the constructor's checks, from
    the paths of a trim ``dg`` or an operator result (tests also pass terms
    that are not paths, to reach the kernels' edge cases)."""
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


def model_from_graph(g: Dg) -> ModelState:
    """Build the synchronized state of a trim acyclic graph; its expression
    is the full start-to-finish path enumeration.  A graph that is not trim
    raises a :class:`ModelError` naming its smallest useless node."""
    paths = enumerate_paths(g)
    _require_trim(g, paths)
    state = _state(g, paths)
    # operators patch the predecessor index; built here, it is built once
    # per model and shared by every state derived from this one
    g._pred
    return state


def _entry(op: MutationOp, before: SopfRe, after: SopfRe, kept: int, **extra) -> LogEntry:
    """Net term counts, ``kept`` being the number of terms of ``before``
    still in ``after``."""
    return LogEntry(op, terms_added=len(after) - kept, terms_removed=len(before) - kept, **extra)


def arc_insert(st: ModelState, src: str, dst: str,
               counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert arc ``src -> dst`` and extend the expression accordingly."""
    dg = apply_dg_op(st.dg, ArcInsert(src, dst))
    # no ancestor of src is dst, or the arc would close a cycle, so these
    # are the fragments of the graph without the arc
    products, entry = _insert(_spell_from(dg, src, True, counters),
                              _spell_from(dg, dst, False, counters), src, dst, counters)
    return _state(dg, _trusted(st.re._terms + products)), entry


def _insert(heads: Sequence[Code], tails: Sequence[Code], src: str, dst: str,
            counters: "OpCounters | None") -> tuple[tuple[Code, ...], LogEntry]:
    """The products of the ``heads`` of ``src`` and the ``tails`` of
    ``dst``, and the log entry of inserting arc ``src -> dst``.  Every
    product holds the adjacency ``src dst``, which no term of a model
    without the arc holds, and no two are equal, as a path holds ``src``
    once: all of them are new terms."""
    products = tuple([h + t for h in heads for t in tails])
    _tally(counters, built=len(products))
    return products, LogEntry(ArcInsert(src, dst), terms_added=len(products), terms_removed=0,
                              added_bound=len(products))


def _exhausted(index: Adjacency, flags: frozenset[str], end: str, other: str) -> bool:
    """Whether every path through ``end`` runs through its arc with
    ``other``, so that every term holding ``end`` holds the pair: ``end``
    has no flag in ``flags`` and ``other`` is its only neighbour in
    ``index`` (both of the side facing ``other``)."""
    return end not in flags and index.get(end) == (other,)


def arc_omit(st: ModelState, src: str, dst: str,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit arc ``src -> dst`` and shrink the expression accordingly."""
    dg = apply_dg_op(st.dg, ArcOmit(src, dst))
    # the split searches every term once
    _tally(counters, searched=len(st.re))
    held, rest, entry = _omit(*_split(st.re._terms, _code(src)), src, dst, src,
                              _exhausted(st.dg._pred, st.dg.starts, dst, src), counters)
    return _state(dg, _trusted(rest + held)), entry


def _omit(held: tuple[Code, ...], rest: tuple[Code, ...], src: str, dst: str, sym: str,
          other_out: bool, counters: "OpCounters | None"
          ) -> tuple[tuple[Code, ...], tuple[Code, ...], LogEntry]:
    """Omit arc ``src -> dst`` from the expression ``rest + held`` on the
    term side alone, where ``held`` are its terms that hold ``sym`` (``src``
    or ``dst``) and ``rest`` the others, and ``other_out`` says whether the
    other endpoint is exhausted: whether every term holding it holds the
    pair.

    Returns the new ``held`` and ``rest`` and the step's log entry: the
    kept terms of ``held`` followed by the fragments that hold ``sym``, and
    ``rest`` followed by the other fragments.  Only ``held`` is searched,
    for the pair as one two-code-point string; ``rest`` is not read.
    """
    s, d = _code(src), _code(dst)
    own = s if sym == src else d
    found = list(map(contains, held, repeat(s + d)))
    joined = tuple(compress(held, found))
    kept = tuple(compress(held, map(not_, found)))
    # an endpoint is exhausted once every term holding it is joined; then
    # its selection is ``joined`` itself
    own_out = not kept
    src_out, dst_out = (own_out, other_out) if sym == src else (other_out, own_out)
    heads = _heads(joined, s, counters) if src_out else SopfRe()
    tails = _tails(joined, d, counters) if dst_out else SopfRe()
    # heads hold src and come back only once every term holding src is
    # dropped, and tails likewise hold dst, so no fragment equals a kept
    # term; a head ends at the first src and a tail starts at the last dst,
    # so neither holds the pair src dst: no joined term comes back
    fragments = set_union(heads, tails, counters)._terms
    holds = list(map(contains, fragments, repeat(own)))
    # the searches for the pair and for the side each fragment goes to
    _tally(counters, searched=len(held) + len(fragments))
    entry = LogEntry(ArcOmit(src, dst), terms_added=len(fragments), terms_removed=len(joined),
                     added_bound=len(heads) + len(tails), removed_expected=len(joined))
    return (kept + tuple(compress(fragments, holds)),
            rest + tuple(compress(fragments, map(not_, holds))), entry)


def node_insert(st: ModelState, node: str,
                outgoing: Sequence[str] = (), ingoing: Sequence[str] = (),
                counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert ``node`` with its arcs: the bare term first, then outgoing
    arcs, then ingoing arcs (each an arc insertion on the term side, the
    graph being edited once for all of them).  The bare term stays, as the
    node is flagged start and finish."""
    op = NodeInsert(node, tuple(outgoing), tuple(ingoing))
    # checks the node and every arc before any term is read
    dg = apply_dg_op(st.dg, op)
    # every symbol of st.re is a node, so no term equals the bare term of
    # the new node: it is appended unprobed
    bare = _code(node)
    _tally(counters, built=1)
    added = (bare,)
    sub: list[LogEntry] = []
    # no descendant of an outgoing neighbour and no ancestor of an ingoing
    # one is the node, or dg would be cyclic, so dg gives each step the
    # fragments that its expression holds
    for x in op.outgoing:
        products, step = _insert((bare,), _spell_from(dg, x, False, counters), node, x, counters)
        added += products
        sub.append(step)
    # the node's tails: its bare term and the outgoing products
    below = added
    for y in op.ingoing:
        products, step = _insert(_spell_from(dg, y, True, counters), below, y, node, counters)
        added += products
        sub.append(step)
    re = _trusted(st.re._terms + added)
    # the insertions keep every term of st.re, and the new node's bare term
    # is not one of them
    return _state(dg, re), _entry(op, st.re, re, len(st.re), sub=tuple(sub))


def node_omit(st: ModelState, node: str,
              counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit ``node``: its outgoing arcs first, then its ingoing arcs (each
    an arc omission on the term side, the graph being edited once for all
    of them), then the bare term and the node itself are dropped."""
    op = NodeOmit(node)
    # an unknown node raises here, before any term is read
    dg = apply_dg_op(st.dg, op)
    g = st.dg
    bare = _code(node)
    # the split searches every term once
    _tally(counters, searched=len(st.re))
    held, rest = _split(st.re._terms, bare)
    # the arc steps drop only terms holding the node, and on a trim model
    # only its bare term is left at the end, so exactly the others are kept
    kept = len(rest)
    sub: list[LogEntry] = []
    # a step leaves the other endpoint's arcs and flags as g has them: the
    # steps before it omit arcs of other neighbours, and flag only those
    for x in g.successors(node):
        held, rest, step = _omit(held, rest, node, x, node,
                                 _exhausted(g._pred, g.starts, x, node), counters)
        sub.append(step)
    for y in g.predecessors(node):
        held, rest, step = _omit(held, rest, y, node, node,
                                 _exhausted(g._succ, g.finishes, y, node), counters)
        sub.append(step)
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
                 counters: "OpCounters | None" = None) -> tuple[ModelState, tuple[LogEntry, ...]]:
    """Apply operators left to right and return the final state with one
    log entry per operator.  The first failure aborts with a
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
    return state, tuple(entries)


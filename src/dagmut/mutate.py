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
the exhaustion tests have a graph meaning, and every operator reads them
off the graph.  The heads of a node, the terms holding it cut after it,
are the paths from a start to it; its tails are the paths from it to a
finish (each term is a path, which holds a node at most once).  A term
holds an arc's two endpoints adjacently iff it runs through the arc, and
omitting the arc exhausts an endpoint iff the graph edit newly flags it
(finish for the source, start for the target).

Arc insertion reads no term.  It spells the heads of the source and the
tails of the target with one walk of the graph each
(:func:`~dagmut.graph._spell_from`) and appends their products unprobed:
every product holds the new adjacency, which no term of the pre-state
holds, and the products are distinct, as a path holds the source once.

Arc omission keeps the terms without its pair, one ``in`` per term, and
appends unprobed the words of each endpoint that the edit newly flags:
the heads of the source, the tails of the target.  No kept term holds
such an endpoint, and no tail holds the source, which every head holds,
so all of them are new terms.  Node omission keeps the terms without its
node, one ``in`` per term, and appends the words of each neighbour that
the final graph newly flags.  The terms holding the node are what its arc
steps drop, and no inner step reads a term: each step's counts are path
counts of the pre-state graph, where ``h`` is the number of heads of the
node and ``t(x)`` the number of tails of ``x``.  An outgoing step
``v -> x`` drops ``h * t(x)`` terms and re-adds the tails of ``x`` if it
is newly flagged, and, at the last outgoing step, the ``h`` heads of the
node unless it is a finish.  An ingoing step ``y -> v`` drops the heads
of ``y`` and re-adds them if ``y`` is newly flagged, and, at the last
ingoing step, the bare word unless the node is a start.  The counts come
from the words already spelled, where a neighbour is newly flagged, from
the count kernel :func:`~dagmut.graph._count_from` otherwise, and from
arithmetic: ``h`` is the number of terms held divided by the number of
tails of the node, and the last ingoing step drops the heads that the
earlier ones left.  An omission result puts the words it re-adds behind
the kept terms; printing sorts.

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
composition does: node omission searches every term once, not once per
step, and neither node operator searches for its bare term.  A node
omission's searches are its terms plus the nodes its walks and counts
enter.

Each operator and log entry is built once.  A public operator function
builds and checks its operator and hands it to a private core, which
:func:`apply_op` calls with the operator it was given.  The inner arc
steps of a node operator and every log entry are built without the
dataclass constructors: the names they hold were checked by the
enclosing operator or are nodes of the graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ModelError, OperationError, ScriptError
from .graph import (Dg, _count_from, _flagged, _newly_flagged, _spell_from, apply_dg_op,
                    enumerate_paths)
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit, format_op
from .sopf import (
    Code,
    SopfRe,
    _code,
    _tally,
    _trusted,
    print_sopf,
    pt,  # noqa: F401  not called here; the benchmark's tracer test reads mutate.pt
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
    the paths of a trim ``dg`` or an operator result."""
    st = object.__new__(ModelState)
    vars(st).update(dg=dg, re=re)
    return st


def _arc_op(kind: type, src: str, dst: str) -> ArcInsert | ArcOmit:
    """An arc operator of ``kind`` on names already validated, by an
    enclosing operator or by the graph, built without the dataclass
    constructor's checks."""
    op = object.__new__(kind)
    vars(op).update(src=src, dst=dst)
    return op


@dataclass(frozen=True)
class LogEntry:
    """Term accounting for one operator application.

    ``terms_added``/``terms_removed`` are net set differences against the
    pre-state, as the operator measures them.  An arc operator's
    ``added_bound`` is its head-count x tail-count product (insertion) or
    re-added word count (omission): on a model every word an operator adds
    is new, so it equals ``terms_added``; the benchmark reads it.  Node
    operators carry their inner arc steps in ``sub`` instead.
    """

    op: MutationOp
    terms_added: int
    terms_removed: int
    added_bound: int | None = None
    sub: tuple["LogEntry", ...] = ()

    @property
    def notation(self) -> str:
        return format_op(self.op)


def _entry(op: MutationOp, added: int, removed: int, bound: int | None = None,
           sub: tuple[LogEntry, ...] = ()) -> LogEntry:
    """``LogEntry(op, added, removed, bound, sub)``, built without the
    frozen dataclass constructor."""
    entry = object.__new__(LogEntry)
    vars(entry).update(op=op, terms_added=added, terms_removed=removed, added_bound=bound,
                       sub=sub)
    return entry


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


def arc_insert(st: ModelState, src: str, dst: str,
               counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert arc ``src -> dst`` and extend the expression accordingly."""
    return _arc_insert(st, ArcInsert(src, dst), counters)


def _arc_insert(st: ModelState, op: ArcInsert,
                counters: "OpCounters | None") -> tuple[ModelState, LogEntry]:
    dg = apply_dg_op(st.dg, op)
    # no ancestor of src is dst, or the arc would close a cycle, so these
    # are the fragments of the graph without the arc
    products, entry = _insert(_spell_from(dg, op.src, True, counters),
                              _spell_from(dg, op.dst, False, counters), op, counters)
    return _state(dg, _trusted(st.re._terms + products)), entry


def _insert(heads: Sequence[Code], tails: Sequence[Code], op: ArcInsert,
            counters: "OpCounters | None") -> tuple[tuple[Code, ...], LogEntry]:
    """The products of the ``heads`` of ``op.src`` and the ``tails`` of
    ``op.dst``, and the log entry of inserting that arc.  Every product
    holds the adjacency ``src dst``, which no term of a model without the
    arc holds, and no two are equal, as a path holds ``src`` once: all of
    them are new terms."""
    products = tuple([h + t for h in heads for t in tails])
    _tally(counters, built=len(products))
    return products, _entry(op, len(products), 0, len(products))


def _unjoined(terms: tuple[Code, ...], src: str, dst: str,
              counters: "OpCounters | None") -> tuple[Code, ...]:
    """The ``terms`` that do not hold ``src dst`` adjacently: one ``in``
    of each for the pair as one two-code-point string."""
    pair = _code(src) + _code(dst)
    _tally(counters, searched=len(terms))
    return tuple([t for t in terms if pair not in t])


def _regained(g: Dg, dg: Dg, end: str, backward: bool,
              counters: "OpCounters | None") -> tuple[Code, ...]:
    """The words re-added for ``end``, an endpoint of an arc omitted by the
    edit ``g`` -> ``dg``: spelled on ``dg``, its heads if ``dg`` newly
    flags it finish (``backward``), its tails if it newly flags it start."""
    newly = _newly_flagged(g, dg, end, backward)
    return _spell_from(dg, end, backward, counters) if newly else ()


def arc_omit(st: ModelState, src: str, dst: str,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit arc ``src -> dst`` and shrink the expression accordingly."""
    return _arc_omit(st, ArcOmit(src, dst), counters)


def _arc_omit(st: ModelState, op: ArcOmit,
              counters: "OpCounters | None") -> tuple[ModelState, LogEntry]:
    g, src, dst = st.dg, op.src, op.dst
    dg = apply_dg_op(g, op)
    kept = _unjoined(st.re._terms, src, dst, counters)
    # no ancestor of src is dst and no descendant of dst is src, so dg
    # spells what g would
    added = _regained(g, dg, src, True, counters) + _regained(g, dg, dst, False, counters)
    return (_state(dg, _trusted(kept + added)),
            _entry(op, len(added), len(st.re) - len(kept), len(added)))


def node_insert(st: ModelState, node: str,
                outgoing: Sequence[str] = (), ingoing: Sequence[str] = (),
                counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Insert ``node`` with its arcs: the bare term first, then outgoing
    arcs, then ingoing arcs (each an arc insertion on the term side, the
    graph being edited once for all of them).  The bare term stays, as the
    node is flagged start and finish."""
    return _node_insert(st, NodeInsert(node, tuple(outgoing), tuple(ingoing)), counters)


def _node_insert(st: ModelState, op: NodeInsert,
                 counters: "OpCounters | None") -> tuple[ModelState, LogEntry]:
    node = op.node
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
        products, step = _insert((bare,), _spell_from(dg, x, False, counters),
                                 _arc_op(ArcInsert, node, x), counters)
        added += products
        sub.append(step)
    # the node's tails: its bare term and the outgoing products
    below = added
    for y in op.ingoing:
        products, step = _insert(_spell_from(dg, y, True, counters), below,
                                 _arc_op(ArcInsert, y, node), counters)
        added += products
        sub.append(step)
    # the insertions keep every term of st.re and add only new ones
    return _state(dg, _trusted(st.re._terms + added)), _entry(op, len(added), 0, sub=tuple(sub))


def node_omit(st: ModelState, node: str,
              counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Omit ``node``: its outgoing arcs first, then its ingoing arcs (each
    an arc omission on the term side, the graph being edited once for all
    of them), then the bare term and the node itself are dropped."""
    return _node_omit(st, NodeOmit(node), counters)


def _node_omit(st: ModelState, op: NodeOmit,
               counters: "OpCounters | None") -> tuple[ModelState, LogEntry]:
    node = op.node
    # an unknown node raises here, before any term is read
    dg = apply_dg_op(st.dg, op)
    g = st.dg
    terms = st.re._terms
    code = _code(node)
    # the one pass over the terms: the arc steps drop only terms holding
    # the node, and on a trim model only its bare term is left at the end,
    # so exactly these are removed
    _tally(counters, searched=len(terms))
    rest = tuple([t for t in terms if code not in t])
    removed = len(terms) - len(rest)
    regained: list[Code] = []
    # a neighbour is flagged by its own step, and no later step changes
    # what the walk from it reads, so the final graph spells its words.
    # No step changes the paths on the far side of a neighbour either, so
    # g counts them: a newly flagged neighbour's words are all of them
    below = g.successors(node)
    # per neighbour: the words re-added for it and its number of tails
    outgoing: list[tuple[int, int]] = []
    tails_of: dict[str, int] = {}
    for x in below:
        theirs = _regained(g, dg, x, False, counters)
        regained += theirs
        outgoing.append((len(theirs), len(theirs) or _count_from(g, x, False, tails_of, counters)))
    # every term holding the node is one of its heads joined to one of its
    # tails: its bare word if it is a finish, else through an outgoing arc
    finish, start = _flagged(g, node, True), _flagged(g, node, False)
    heads = removed // (finish + sum([t for _, t in outgoing]))
    # the last outgoing step flags the node finish unless it is one: its
    # heads come back
    own = 0 if finish else heads
    sub: list[LogEntry] = []
    for k, (x, (new, t)) in enumerate(zip(below, outgoing), 1):
        added = new + own if k == len(below) else new
        sub.append(_entry(_arc_op(ArcOmit, node, x), added, heads * t, added))
    # each ingoing step drops the heads of its neighbour joined to the bare
    # word, and the last drops those that the others left
    above = g.predecessors(node)
    left = heads - start
    heads_of: dict[str, int] = {}
    for k, y in enumerate(above, 1):
        theirs = _regained(g, dg, y, True, counters)
        regained += theirs
        dropped = (left if k == len(above)
                   else len(theirs) or _count_from(g, y, True, heads_of, counters))
        left -= dropped
        # the last ingoing step flags the node start unless it is one: its
        # bare word comes back, and goes with the node
        added = len(theirs) + (k == len(above) and not start)
        sub.append(_entry(_arc_op(ArcOmit, y, node), added, dropped, added))
    return (_state(dg, _trusted(rest + tuple(regained))),
            _entry(op, len(regained), removed, sub=tuple(sub)))


def apply_op(st: ModelState, op: MutationOp,
             counters: "OpCounters | None" = None) -> tuple[ModelState, LogEntry]:
    """Apply a single operator to the synchronized state."""
    if isinstance(op, ArcInsert):
        return _arc_insert(st, op, counters)
    if isinstance(op, ArcOmit):
        return _arc_omit(st, op, counters)
    if isinstance(op, NodeInsert):
        return _node_insert(st, op, counters)
    if isinstance(op, NodeOmit):
        return _node_omit(st, op, counters)
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


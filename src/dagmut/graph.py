"""Directed acyclic graph models with start/finish node designations.

The language of a model is the set of node sequences along directed paths
from a start-flagged node to a finish-flagged node.  Flags default to the
degree rule (no ingoing arcs = start, no outgoing arcs = finish) and are
sticky: mutation history only ever adds flags, never clears them.

Cost model: a :class:`Dg` indexes its arcs by endpoint, so
``successors``/``predecessors``/degree queries cost O(deg) and
:func:`path_exists` O(reachable).  The successor index is built with the
graph; the predecessor index is built from it on its first read.  The
constructor and ``mutate.model_from_graph`` read it; a convert (parse,
check, enumerate) never does.  :func:`validate_acyclic` is one Kahn pass
over a plain list, in-degrees counted from the successor index: O(V + E).
It and the path walk of :func:`enumerate_paths` read the index and the
flag sets directly, with no method call or list copy per node; the walk
costs one step per trie node of its words plus one length sort.
:func:`apply_dg_op` derives the child graph from its parent and rebuilds
only the index entries the operator touches (O(touched) Python work; the
frozensets and the index dicts are still copied, at C speed).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CycleError, InsertionCycleError, OperationError, ParseError
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit
from .sopf import SopfRe, _trusted, validate_symbol

Arc = tuple[str, str]
#: node -> its sorted neighbours on one side; nodes without any are absent
Adjacency = dict[str, tuple[str, ...]]


def _freeze(lists: defaultdict[str, list[str]]) -> Adjacency:
    """``lists`` with each neighbour list sorted into a tuple; equal tuples
    are stored once (in a tree, every child of a node has the same
    one-element predecessor tuple)."""
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    for neighbours in lists.values():
        neighbours.sort()
    return {v: shared.setdefault(t, t) for v, t in zip(lists, map(tuple, lists.values()))}


def _successor_index(arcs) -> Adjacency:
    """The successor :data:`Adjacency` of ``arcs``."""
    succ: defaultdict[str, list[str]] = defaultdict(list)
    for src, dst in arcs:
        succ[src].append(dst)
    return _freeze(succ)


def _predecessor_index(succ: Adjacency) -> Adjacency:
    """The predecessor :data:`Adjacency` of the arcs that ``succ`` indexes."""
    pred: defaultdict[str, list[str]] = defaultdict(list)
    for src, targets in succ.items():
        for dst in targets:
            pred[dst].append(src)
    return _freeze(pred)


@dataclass(frozen=True)
class Dg:
    """A directed graph plus start/finish designation flags.

    Structural well-formedness (arc endpoints declared, no self-loops) is
    enforced at construction; acyclicity is not, see :func:`validate_acyclic`.
    The successor and predecessor index is built here too; it is derived
    from ``arcs`` and takes no part in equality, hashing or ``repr``.
    Graphs assembled without the constructor (:func:`parse_graph`) build
    the predecessor half on its first read.
    """

    nodes: frozenset[str] = frozenset()
    arcs: frozenset[Arc] = frozenset()
    starts: frozenset[str] = frozenset()
    finishes: frozenset[str] = frozenset()
    _succ: Adjacency = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))
        object.__setattr__(self, "starts", frozenset(self.starts))
        object.__setattr__(self, "finishes", frozenset(self.finishes))
        for sym in self.nodes:
            validate_symbol(sym)
        for src, dst in self.arcs:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"arc ({src!r}, {dst!r}) references an undeclared node")
            if src == dst:
                raise ValueError(f"self-loop on {src!r}")
        for flagged in (self.starts, self.finishes):
            if not flagged <= self.nodes:
                raise ValueError("flag on an undeclared node")
        object.__setattr__(self, "_succ", _successor_index(self.arcs))
        self._pred  # built now, so graphs made in code carry both halves

    @cached_property
    def _pred(self) -> Adjacency:
        return _predecessor_index(self._succ)

    def successors(self, v: str) -> list[str]:
        return list(self._succ.get(v, ()))

    def predecessors(self, v: str) -> list[str]:
        return list(self._pred.get(v, ()))

    def out_degree(self, v: str) -> int:
        return len(self._succ.get(v, ()))

    def in_degree(self, v: str) -> int:
        return len(self._pred.get(v, ()))


def _derive(g: Dg, **changes) -> Dg:
    """A :class:`Dg` with ``g``'s fields and index, ``changes`` replacing
    some of them.  Nothing is checked: the caller validates what it adds,
    and the rest was validated when ``g`` was built.  A caller that changes
    ``_succ`` of a ``g`` whose ``_pred`` is built passes ``_pred`` too."""
    child = object.__new__(Dg)
    vars(child).update(vars(g), **changes)
    return child


def _patched(index: Adjacency, v: str, neighbours) -> Adjacency:
    """Shallow copy of ``index`` with ``v`` mapped to ``neighbours``, sorted;
    an empty entry is dropped."""
    out = dict(index)
    if neighbours:
        out[v] = tuple(sorted(neighbours))
    else:
        del out[v]
    return out


# --------------------------------------------------------------------------
# file format

def parse_graph(text: str) -> Dg:
    """Parse the line-oriented graph file format.

    ``node <id>`` declares a node, ``arc <a> <b>`` an arc (endpoints are
    declared implicitly), ``start <id>`` / ``finish <id>`` override the
    degree-rule flag defaults.  ``#`` starts a comment.
    """
    nodes: set[str] = set()
    arcs: set[Arc] = set()
    start_lines: list[tuple[int, str]] = []
    finish_lines: list[tuple[int, str]] = []
    # one validated string object per distinct name, shared by every
    # node, arc and index entry that mentions it; a token is looked up
    # there first, and only a name not seen before goes through symbol()
    names: dict[str, str] = {}

    def symbol(token: str, lineno: int) -> str:
        try:
            name = names[token] = validate_symbol(token)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        return name

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "arc":
            if len(tokens) != 3:
                raise ParseError("'arc' takes two ids", line=lineno)
            src = names.get(tokens[1]) or symbol(tokens[1], lineno)
            dst = names.get(tokens[2]) or symbol(tokens[2], lineno)
            if src == dst:
                raise ParseError(f"self-loop arc on {src!r}", line=lineno)
            arc = (src, dst)
            if arc in arcs:
                raise ParseError(f"duplicate arc {src} -> {dst}", line=lineno)
            arcs.add(arc)
        elif keyword == "node":
            if len(tokens) != 2:
                raise ParseError("'node' takes one id", line=lineno)
            nodes.add(names.get(tokens[1]) or symbol(tokens[1], lineno))
        elif keyword in ("start", "finish"):
            if len(tokens) != 2:
                raise ParseError(f"'{keyword}' takes one id", line=lineno)
            sink = start_lines if keyword == "start" else finish_lines
            sink.append((lineno, names.get(tokens[1]) or symbol(tokens[1], lineno)))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)

    succ = _successor_index(arcs)
    with_pred = set().union(*succ.values())
    nodes.update(succ, with_pred)
    for lineno, sym in (*start_lines, *finish_lines):
        if sym not in nodes:
            raise ParseError(f"flag references unknown node {sym!r}", line=lineno)

    # the degree rule, read off the successor index: a node no successor
    # tuple holds is a start, one without successors a finish
    nodes = frozenset(nodes)
    starts = frozenset(s for _, s in start_lines) if start_lines else nodes.difference(with_pred)
    finishes = frozenset(s for _, s in finish_lines) if finish_lines else nodes.difference(succ)
    # every check of the Dg constructor has been made above, with a line
    # number, so the graph is assembled without repeating them; its
    # predecessor index is built on first read, and convert never reads it
    g = object.__new__(Dg)
    vars(g).update(nodes=nodes, arcs=frozenset(arcs), starts=starts, finishes=finishes,
                   _succ=succ)
    return g


def render_graph(g: Dg) -> str:
    """Deterministic inverse of :func:`parse_graph`.

    Explicit ``start``/``finish`` lines are emitted for every flagged node,
    so flags survive the round-trip even when mutation history diverged
    from the degree rule.  (A graph with nodes but an empty flag set is not
    representable; such values never arise from parsing or operators.)
    """
    lines = [f"node {v}" for v in sorted(g.nodes)]
    lines += [f"arc {src} {dst}" for src, dst in sorted(g.arcs)]
    lines += [f"start {v}" for v in sorted(g.starts)]
    lines += [f"finish {v}" for v in sorted(g.finishes)]
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# structure queries

def validate_acyclic(g: Dg) -> tuple[str, ...] | None:
    """``None`` when a topological order exists, else one witness cycle
    as a node sequence whose first and last entries coincide."""
    succ = g._succ
    indeg: dict[str, int] = {}
    for targets in succ.values():
        for w in targets:
            indeg[w] = indeg.get(w, 0) + 1
    # one Kahn pass; the loop also visits the nodes appended while it runs
    ready = [v for v in g.nodes if v not in indeg]
    for v in ready:
        for w in succ.get(v, ()):
            left = indeg[w] - 1
            indeg[w] = left
            if not left:
                ready.append(w)
    if len(ready) == len(g.nodes):
        return None
    remaining = g.nodes.difference(ready)
    # every remaining node keeps a predecessor among the remaining ones;
    # walk predecessors until a node repeats, then unroll the loop forward
    chain = [min(remaining)]
    positions = {chain[0]: 0}
    while True:
        preds = [p for p in g.predecessors(chain[-1]) if p in remaining]
        nxt = min(preds)
        if nxt in positions:
            k = positions[nxt]
            return (chain[k], *reversed(chain[k + 1:]), chain[k])
        positions[nxt] = len(chain)
        chain.append(nxt)


def path_exists(g: Dg, src: str, dst: str) -> bool:
    """True iff a directed path (length >= 0) runs from ``src`` to ``dst``."""
    for v in (src, dst):
        if v not in g.nodes:
            raise OperationError(f"unknown node {v!r}")
    if src == dst:
        return True
    seen = {src}
    frontier = [src]
    while frontier:
        v = frontier.pop()
        for w in g.successors(v):
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


def enumerate_paths(g: Dg) -> SopfRe:
    """All start-to-finish node sequences of an acyclic graph, as terms.

    A path may run through further flagged nodes; every flagged prefix
    endpoint yields its own term.  Raises :class:`CycleError` on cyclic
    input, since the term count would be unbounded.
    """
    witness = validate_acyclic(g)
    if witness is not None:
        raise CycleError(witness)
    succ, finishes = g._succ, g.finishes
    words: list[tuple[str, ...]] = []
    # depth-first with an explicit stack, so long chains cannot exhaust the
    # interpreter's recursion limit: pending[0] walks the start nodes and
    # pending[k + 1] the successors of trail[k]; a node without successors
    # is finished inside the loop over its siblings
    trail: list[str] = []
    pending = [iter(sorted(g.starts))]
    while pending:
        for v in pending[-1]:
            if v in finishes:
                words.append((*trail, v))
            below = succ.get(v)
            if below:
                trail.append(v)
                pending.append(iter(below))
                break
        else:
            pending.pop()
            del trail[-1:]
    # each trail is reached once, so the words are distinct; the walk visits
    # sorted neighbours in preorder, so they come out lexicographic, and a
    # stable sort by length makes that canonical order
    words.sort(key=len)
    return _trusted(tuple(words), canonical=True)


# --------------------------------------------------------------------------
# graph-side operator application

def apply_dg_op(g: Dg, op: MutationOp) -> Dg:
    """Apply one mutation operator to the graph half alone.

    Omission marks endpoints stripped of their last outgoing (ingoing) arc
    as finish (start) nodes; node insertion flags the new node both ways;
    no operator ever clears a flag.
    """
    if isinstance(op, ArcInsert):
        src, dst = op.src, op.dst
        for v in (src, dst):
            if v not in g.nodes:
                raise OperationError(f"unknown node {v!r}")
        if (src, dst) in g.arcs:
            raise OperationError(f"arc {src} -> {dst} already present")
        if path_exists(g, dst, src):
            raise InsertionCycleError(f"inserting arc {src} -> {dst} would create a cycle")
        return _derive(g, arcs=g.arcs | {(src, dst)},
                       _succ=_patched(g._succ, src, (*g._succ.get(src, ()), dst)),
                       _pred=_patched(g._pred, dst, (*g._pred.get(dst, ()), src)))

    if isinstance(op, ArcOmit):
        src, dst = op.src, op.dst
        if (src, dst) not in g.arcs:
            raise OperationError(f"arc {src} -> {dst} not present")
        succ = _patched(g._succ, src, [w for w in g._succ[src] if w != dst])
        pred = _patched(g._pred, dst, [w for w in g._pred[dst] if w != src])
        return _derive(g, arcs=g.arcs - {(src, dst)}, _succ=succ, _pred=pred,
                       starts=g.starts.union(v for v in (src, dst) if v not in pred),
                       finishes=g.finishes.union(v for v in (src, dst) if v not in succ))

    if isinstance(op, NodeInsert):
        # the arc insertions check the neighbours
        if op.node in g.nodes:
            raise OperationError(f"node {op.node!r} already present")
        new = {op.node}
        out = _derive(g, nodes=g.nodes | new, starts=g.starts | new, finishes=g.finishes | new)
        for x in op.outgoing:
            out = apply_dg_op(out, ArcInsert(op.node, x))
        for y in op.ingoing:
            out = apply_dg_op(out, ArcInsert(y, op.node))
        return out

    if isinstance(op, NodeOmit):
        if op.node not in g.nodes:
            raise OperationError(f"unknown node {op.node!r}")
        out = g
        for x in out.successors(op.node):
            out = apply_dg_op(out, ArcOmit(op.node, x))
        for y in out.predecessors(op.node):
            out = apply_dg_op(out, ArcOmit(y, op.node))
        # the node is isolated now, so the index has no entry for it
        gone = {op.node}
        return _derive(out, nodes=out.nodes - gone,
                       starts=out.starts - gone, finishes=out.finishes - gone)

    raise TypeError(f"not a mutation operator: {op!r}")

"""Directed acyclic graph models with start/finish node designations.

The language of a model is the set of node sequences along directed paths
from a start-flagged node to a finish-flagged node.  Flags default to the
degree rule (no ingoing arcs = start, no outgoing arcs = finish) and are
sticky: mutation history only ever adds flags, never clears them.

Cost model: a graph is a flat *root* or is *derived* from one.  A root
(parsed, or built by the constructor) stores its arcs in an index by
endpoint, and a constructed one also keeps the arc set it checked; the
successor index is built with the graph, the predecessor index from it
on its first read.  The constructor and ``mutate.model_from_graph`` read
it; a convert (parse, walk) never does.
:func:`apply_dg_op` derives the child graph from its parent in one edit,
node operators included, by path copying: the child shares the sets and
indexes of its parent's root and holds its changes since that root, the
neighbour tuples of the nodes the edits touched and the nodes and flags
they added or dropped.  An operator costs O(touched) Python work plus a
C-speed copy of its parent's changes, however large the graph.  Once the
changes hold more entries than an eighth of the root's nodes, and more
than a few dozen, the child is flattened into a new root, so that copy
stays short and the O(V) copies of a flatten are amortised over V/8
touched entries.  Nothing shared is ever written.  The
operators' own readers (the adjacency queries, the reachability search
:func:`_reached` and the walks below) read a graph's changes first, then
its root: ``successors``/``predecessors``/degree queries cost O(deg) and
:func:`_reached` O(reachable).  The readers of the whole graph read
flat views, which a derived graph builds on their first read, as a root
builds ``Dg.arcs``.
One Kahn loop over a plain list, :func:`_peel`, serves
:func:`topological_order` (in-degrees counted from the successor index:
O(V + E)), :func:`validate_acyclic` and the path walk's dead-end discount.
The path walk behind :func:`render_paths` and :func:`enumerate_paths` (on
multi-character names) expands every node it reaches once: below a node
with more than one entry (a *shared* node) it spells the words once and
splices them in at every entry, one string concatenation per word, so a
layered lattice costs at most one concatenation per word and layer,
where a trie walk took one Python step per trie node.  It finds every
cycle it reaches on its own; :func:`validate_acyclic` runs only when it
left some node unexpanded.  It keeps the words below a shared node until
the node's last entry has used them, and it files every word under its
node count, which replaces the final sort.  :func:`enumerate_paths` spells
each path in the codes of :mod:`dagmut.sopf`: a graph whose nodes are
each one ASCII character, its own code, by a trie walk that extends the
string of the trail above (such a graph has at most 128 nodes, so the
strings stay short), any other graph by the shared-node walk labelled
with the codes.  :func:`render_paths` runs the shared-node walk on the
node names, so ``dagmut convert`` prints without coding or decoding a
term.
The fragments of every operator, the paths from a start to a node and
from a node to a finish, are spelled by one walk over one side's index
(:func:`_spell_from`).  It starts as a trie walk, which visits each
prefix of those paths once: O(total path length) on a trim graph, where
every trail the walk follows ends at a flagged node.  Once it has
visited more nodes than the graph has, the same loop goes on in table
mode, from the same stack: it expands a node at most twice and splices
the words below it in at every later entry, one string concatenation
per word, so its Python steps are O(V + E) plus one per word it
splices.  A walk that never outgrows the graph, as every walk on a tree
or a chain, stays a trie walk.  Its counting twin,
:func:`_count_from`, counts those paths without spelling them: one sum per
node, memoised across the calls of one operator, O(V + E).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import CycleError, InsertionCycleError, OperationError, ParseError
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit
from .sopf import (_CODES, _OWN_CODES, EMPTY_TOKEN, Code, SopfRe, _codes, _tally, _trusted,
                   validate_symbol)

if TYPE_CHECKING:
    from .metrics import OpCounters

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


def _pair(arc) -> Arc:
    """``arc`` as a tuple, if it is a tuple or list of two strings; else a
    ``ValueError`` that names it."""
    if isinstance(arc, (tuple, list)) and len(arc) == 2 and all(isinstance(v, str) for v in arc):
        return tuple(arc)
    raise ValueError(f"arc {arc!r} is not a pair of node ids")


#: the arc type the constructor takes as it is
_TUPLES = frozenset([tuple])
#: the index changes of a root, which has none; never written
_NO_CHANGES: dict[str, tuple[str, ...]] = {}
#: a derived graph flattens into a root once its index changes hold more
#: entries than its root's node count shifted right by _FLATTEN_SHIFT, and
#: more than _FLATTEN_MIN: a few dozen changes cost less to copy and read
#: through than a flatten costs, however small the graph
_FLATTEN_SHIFT = 3
_FLATTEN_MIN = 32


class Dg:
    """A directed graph plus start/finish designation flags.

    Structural well-formedness (arc endpoints declared, no self-loops) is
    enforced at construction; acyclicity is not, see :func:`validate_acyclic`.
    A graph is a flat *root*, or is *derived* from a root by operators
    (:func:`apply_dg_op`, :class:`_Derived`).  A root holds its node and
    flag sets and its arcs in the successor index ``_succ``.  The
    constructor also keeps the arc set it checked, as ``arcs``, and builds
    the predecessor index ``_pred``; graphs assembled without it
    (:func:`parse_graph`, :func:`_flatten`) derive each on its first read.
    A root has no changes: the class attributes below stand in for them,
    so the operators read every graph alike, through its changes first,
    then its root.  Neither index takes part in ``repr``; equality compares
    the successor index, which holds exactly the arcs.  Instances are
    immutable.
    """

    nodes: frozenset[str]
    starts: frozenset[str]
    finishes: frozenset[str]
    _succ: Adjacency
    _size: int
    _root: Dg | None = None
    _dsucc = _dpred = _NO_CHANGES
    _dstarts = _dfinishes = _inserted = _omitted = frozenset()

    def __init__(self, nodes: Iterable[str] = (), arcs: Iterable[Arc] = (),
                 starts: Iterable[str] = (), finishes: Iterable[str] = ()):
        nodes = frozenset(nodes)
        try:
            # one pass at C speed: an identifier other than EMPTY is legal
            named = EMPTY_TOKEN not in nodes and all(map(str.isidentifier, nodes))
        except TypeError:  # a name that is not a string
            named = False
        if not named:
            for sym in nodes:
                validate_symbol(sym)
        if not isinstance(arcs, (set, frozenset, list, tuple)):
            arcs = list(arcs)
        try:
            # every arc a tuple: the set holds them as given, and building
            # the index fails on one that is not two sortable endpoints
            if not _TUPLES.issuperset(map(type, arcs)):
                raise TypeError
            arcs = frozenset(arcs)
            succ = _successor_index(arcs)
        except (TypeError, ValueError):
            # a list pair is copied to a tuple; anything else is named
            arcs = frozenset(map(_pair, arcs))
            succ = _successor_index(arcs)
        # both indexes built now, so graphs made in code carry both halves
        pred = _predecessor_index(succ)
        if not (succ.keys() <= nodes and pred.keys() <= nodes
                and arcs.isdisjoint(zip(nodes, nodes))):
            for src, dst in map(_pair, arcs):
                if src not in nodes or dst not in nodes:
                    raise ValueError(f"arc ({src!r}, {dst!r}) references an undeclared node")
                if src == dst:
                    raise ValueError(f"self-loop on {src!r}")
        starts, finishes = frozenset(starts), frozenset(finishes)
        for flagged in (starts, finishes):
            if not flagged <= nodes:
                raise ValueError("flag on an undeclared node")
        vars(self).update(nodes=nodes, arcs=arcs, starts=starts, finishes=finishes,
                          _succ=succ, _pred=pred, _size=len(nodes))

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        """The arcs, read off the successor index; the constructor stores
        the set it checked instead."""
        return frozenset([(v, w) for v, targets in self._succ.items() for w in targets])

    @cached_property
    def _pred(self) -> Adjacency:
        return _predecessor_index(self._succ)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dg):
            return NotImplemented
        return (self.nodes == other.nodes and self.starts == other.starts
                and self.finishes == other.finishes and self._succ == other._succ)

    def __hash__(self) -> int:
        return hash((self.nodes, self.arcs, self.starts, self.finishes))

    def __repr__(self) -> str:
        # the elements sorted, so equal graphs print alike whatever built them
        fields = ", ".join(f"{name}={_sorted_repr(getattr(self, name))}"
                           for name in ("nodes", "arcs", "starts", "finishes"))
        return f"Dg({fields})"

    def successors(self, v: str) -> list[str]:
        return list(self._dsucc.get(v, (self._root or self)._succ.get(v, ())))

    def predecessors(self, v: str) -> list[str]:
        return list(self._dpred.get(v, (self._root or self)._pred.get(v, ())))

    def out_degree(self, v: str) -> int:
        return len(self._dsucc.get(v, (self._root or self)._succ.get(v, ())))

    def in_degree(self, v: str) -> int:
        return len(self._dpred.get(v, (self._root or self)._pred.get(v, ())))


class _Derived(Dg):
    """A :class:`Dg` derived from a root by operators (:func:`_derive`).

    It shares the sets and indexes of its root ``_root`` and holds its
    changes since that root: the neighbour tuples of each node whose
    neighbours changed (``_dsucc``/``_dpred``; an empty tuple for none),
    the flags added (``_dstarts``/``_dfinishes``), the nodes inserted that
    the root lacks and the root nodes omitted (``_inserted``/``_omitted``),
    and its node count ``_size``.  ``nodes``, ``starts``, ``finishes``,
    ``arcs``, ``_succ`` and ``_pred`` are flat views, each built on its
    first read for the readers of the whole graph; they share the root's
    elements, and ``arcs`` is read off the root's arcs, not off ``_succ``.
    Nothing it shares is ever written.  Roots are a class of their own:
    hot loops read a root's sets and index, and an attribute that a class
    also defines as a view is read about three times slower (CPython 3.11).
    """

    @cached_property
    def nodes(self) -> frozenset[str]:
        return _patched(self._root.nodes, self._omitted, self._inserted)

    @cached_property
    def starts(self) -> frozenset[str]:
        return _patched(self._root.starts, self._omitted, self._dstarts)

    @cached_property
    def finishes(self) -> frozenset[str]:
        return _patched(self._root.finishes, self._omitted, self._dfinishes)

    @cached_property
    def _succ(self) -> Adjacency:
        return _merged(self._root._succ, self._dsucc)

    @cached_property
    def _pred(self) -> Adjacency:
        return _merged(self._root._pred, self._dpred)

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        """The root's arcs, less those out of the nodes whose successors
        changed, plus theirs now: the arcs the root holds are shared."""
        root, changed = self._root, self._dsucc
        gone = [(v, w) for v in changed for w in root._succ.get(v, ())]
        new = [(v, w) for v, targets in changed.items() for w in targets]
        return root.arcs.difference(gone).union(new)


def _sorted_repr(items: frozenset) -> str:
    """The ``repr`` of the frozenset ``items``, its elements sorted."""
    return f"frozenset({{{', '.join(map(repr, sorted(items)))}}})" if items else "frozenset()"


def _patched(items: frozenset[str], less: frozenset[str], more: frozenset[str]) -> frozenset[str]:
    """``items`` less ``less`` plus ``more``; ``items`` itself if both are
    empty."""
    if less:
        items = items - less
    return items | more if more else items


def _merged(index: Adjacency, changes: Mapping[str, tuple[str, ...]]) -> Adjacency:
    """The :data:`Adjacency` ``index`` with the entries of ``changes`` in
    place of its own; an empty one drops the node's entry."""
    merged = index.copy()
    merged.update(changes)
    for v, neighbours in changes.items():
        if not neighbours:
            del merged[v]
    return merged


def _present(g: Dg, v: str) -> bool:
    """Whether ``v`` is a node of ``g``."""
    return v in g._inserted or v in (g._root or g).nodes and v not in g._omitted


def _flagged(g: Dg, v: str, finish: bool) -> bool:
    """Whether ``v``, a node of ``g``, is flagged finish (``finish``) or
    start."""
    if finish:
        return v in g._dfinishes or v in (g._root or g).finishes
    return v in g._dstarts or v in (g._root or g).starts


def _newly_flagged(g: Dg, child: Dg, v: str, finish: bool) -> bool:
    """Whether ``child``, derived from ``g`` by one edit, flags ``v``, a
    node of both, finish (``finish``) or start where ``g`` does not."""
    return _flagged(child, v, finish) and not _flagged(g, v, finish)


def _derive(g: Dg, succ: dict[str, tuple[str, ...]], pred: dict[str, tuple[str, ...]],
            **changes) -> Dg:
    """The graph derived from ``g`` by an edit that gives the nodes in
    ``succ``/``pred`` those neighbour tuples, ``changes`` replacing some of
    ``g``'s node and flag changes and its ``_size``.  Nothing is checked:
    the caller validates what it adds, and the rest was validated when
    ``g`` was built.

    The child copies ``g``'s index changes, which are small dicts, adds
    ``succ`` and ``pred`` to them, and shares everything else: ``g``'s
    root and its other changes.  Once its index changes hold more than an
    eighth as many entries as its root has nodes, and more than
    ``_FLATTEN_MIN``, it is flattened into a root of its own
    (:func:`_flatten`).  So the copies of the changes stay short, and the
    O(V) copies of a flatten come at most once per V/8 touched entries.
    """
    root = g._root or g
    succ, pred = {**g._dsucc, **succ}, {**g._dpred, **pred}
    child = object.__new__(_Derived)
    vars(child).update({"_root": root, "_dsucc": succ, "_dpred": pred, "_size": g._size,
                        "_inserted": g._inserted, "_omitted": g._omitted,
                        "_dstarts": g._dstarts, "_dfinishes": g._dfinishes, **changes})
    touched = len(succ) + len(pred)
    if touched > _FLATTEN_MIN and touched > root._size >> _FLATTEN_SHIFT:
        return _flatten(child)
    return child


def _flatten(g: _Derived) -> Dg:
    """A root equal to the derived graph ``g``: it holds ``g``'s flat
    views, each built by one C-speed copy of its root's and a pass over
    ``g``'s changes."""
    flat = object.__new__(Dg)
    vars(flat).update(nodes=g.nodes, starts=g.starts, finishes=g.finishes, _succ=g._succ,
                      _pred=g._pred, _size=g._size)
    return flat


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
    targets: defaultdict[str, list[str]] = defaultdict(list)
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

    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    for lineno, tokens in enumerate(map(str.split, lines), 1):
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
            size = len(arcs)
            arcs.add((src, dst))
            if len(arcs) == size:
                raise ParseError(f"duplicate arc {src} -> {dst}", line=lineno)
            targets[src].append(dst)
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

    succ = _freeze(targets)
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
    vars(g).update(nodes=nodes, starts=starts, finishes=finishes, _succ=succ, _size=len(nodes))
    return g


def render_graph(g: Dg) -> str:
    """Deterministic inverse of :func:`parse_graph`.

    Explicit ``start``/``finish`` lines are emitted for every flagged node,
    so flags survive the round-trip even when mutation history diverged
    from the degree rule.  (A graph with nodes but an empty flag set is not
    representable; such values never arise from parsing or operators.)
    """
    lines = [f"node {v}" for v in sorted(g.nodes)]
    # sorted sources, each with its sorted targets: the arcs in sorted order
    lines += [f"arc {src} {dst}" for src in sorted(g._succ) for dst in g._succ[src]]
    lines += [f"start {v}" for v in sorted(g.starts)]
    lines += [f"finish {v}" for v in sorted(g.finishes)]
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# structure queries

def topological_order(g: Dg) -> list[str]:
    """Kahn's topological order, first ready first out from the sorted
    sources, successors in sorted order.  On a cyclic graph it stops short:
    it omits every node on or behind a cycle."""
    return _kahn(g.nodes, g._succ)


def _kahn(nodes: set[str] | frozenset[str], succ: Adjacency) -> list[str]:
    """:func:`topological_order` of the graph on ``nodes`` whose arcs the
    successor :data:`Adjacency` ``succ`` holds."""
    indeg: dict[str, int] = {}
    for targets in succ.values():
        for w in targets:
            indeg[w] = indeg.get(w, 0) + 1
    return _peel(succ, indeg, sorted(nodes.difference(indeg)))


def _peel(succ: Adjacency, counts: dict[str, int], peeled: list[str]) -> list[str]:
    """Kahn's loop: extend ``peeled`` by each node whose count in ``counts``
    (updated in place) drops to zero as the nodes before it are taken out.
    Returns ``peeled``."""
    for v in peeled:
        for w in succ.get(v, ()):
            left = counts[w] - 1
            counts[w] = left
            if not left:
                peeled.append(w)
    return peeled


def validate_acyclic(g: Dg) -> tuple[str, ...] | None:
    """``None`` when a topological order exists, else one witness cycle
    as a node sequence whose first and last entries coincide."""
    order = topological_order(g)
    if len(order) == len(g.nodes):
        return None
    remaining = g.nodes.difference(order)
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


def _reached(g: Dg, roots, goal: str | None = None) -> set[str]:
    """The nodes that a directed path (length >= 0) from one of ``roots``
    reaches: one search, however many roots.  Once it has reached
    ``goal``, it expands no further node and returns what it has seen."""
    changed, succ = g._dsucc, (g._root or g)._succ
    seen = set(roots)
    frontier = list(seen)
    while frontier and goal not in seen:
        v = frontier.pop()
        for w in changed[v] if v in changed else succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def _side(g: Dg, backward: bool) -> tuple:
    """One side of ``g`` as the walks read it: its changed entries, its
    root's index, its added flags and its root's flags; backward, the
    predecessors and starts, forward, the successors and finishes."""
    root = g._root or g
    if backward:
        return g._dpred, root._pred, g._dstarts, root.starts
    return g._dsucc, root._succ, g._dfinishes, root.finishes


def _spell_from(g: Dg, root: str, backward: bool,
                counters: "OpCounters | None" = None) -> tuple[Code, ...]:
    """The paths between ``root`` and the flagged nodes on one side of it,
    spelled in the codes of :mod:`dagmut.sopf`, which every node reached
    must have: backward, the paths from a start to ``root`` (its heads),
    forward, those from ``root`` to a finish (its tails).  A flag does not
    end a path, as a start may have predecessors.

    One depth-first walk over that side's index, read through ``g``'s
    changes first, then its root's, with an explicit stack.  The trail is
    a list of codes, joined once per path (and reversed, backward), and a
    run of one-neighbour nodes takes no stack frame, so a chain costs
    O(length) and no recursion.  It starts as a trie walk, which visits
    each prefix of those paths once.  Once it has visited more nodes than
    ``g`` has, some node has been entered twice, and it goes on from the
    same stack in table mode: a node reached through a frame is marked on
    its first entry and expanded as the trie walk expands it; its second
    entry spells the words below it, starting at the node, into a table of
    its own; that entry and every later one splice the table in, one
    ``prefix + word`` string per word.  A node inside a run of
    one-neighbour nodes is followed unmarked, so the table of a node above
    a chain holds each word through the chain once, and the chain's nodes
    hold no table each, which would copy the chain once per node.
    Backward, every table holds its words reversed, as they are returned,
    and a splice appends the reversed prefix.  A walk that never outgrows
    the graph, as on a tree or a chain, costs what the trie walk costs.
    Tallies each node entered as a term searched and each word returned
    as a term built.
    """
    changed, index, added, ends = _side(g, backward)
    codes = _CODES
    words: list[Code] = []
    trail: list[Code] = []
    visited = 0
    limit = g._size
    # None in trie mode; in table mode, node -> None once marked, then its
    # table
    tables: dict[str, list[Code] | None] | None = None
    # a frame: the nodes it enters, the trail length at its node, its
    # table, where in ``trail`` the words of that table start and, for a
    # shared node's table, the table and start of the entry that opened it
    stack = [(iter((root,)), 0, words, 0, None)]
    while stack:
        entering, depth, out, base, opener = stack[-1]
        for v in entering:
            del trail[depth:]
            if tables is not None:
                if v in tables:
                    visited += 1
                    table = tables[v]
                    if table is not None:
                        _splice_words(out, table, trail[base:], backward)
                        continue
                    # acyclic: no entry reaches v again before its table
                    # is complete
                    table = tables[v] = [codes[v]] if v in added or v in ends else []
                    below = changed[v] if v in changed else index.get(v, ())
                    stack.append((iter(below), depth + 1, table, depth, (out, base)))
                    trail.append(codes[v])
                    break
                tables[v] = None
            while True:
                visited += 1
                trail.append(codes[v])
                if v in added or v in ends:
                    # a trie-mode word is the whole trail: no slice copy
                    word = "".join(trail[base:]) if base else "".join(trail)
                    out.append(word[::-1] if backward else word)
                below = changed[v] if v in changed else index.get(v, ())
                if len(below) != 1:
                    break
                v = below[0]
            if below:
                stack.append((iter(below), len(trail), out, base, None))
                if tables is None and visited > limit:
                    tables = {}
                break
        else:
            stack.pop()
            if opener is not None:
                into, into_base = opener
                _splice_words(into, out, trail[into_base:base], backward)
    _tally(counters, searched=visited, built=len(words))
    return tuple(words)


def _splice_words(out: list[Code], table: list[Code], above: list[Code],
                  backward: bool) -> None:
    """Add to ``out`` each word of ``table`` behind the codes ``above``
    (in front of them reversed, ``backward``)."""
    prefix = "".join(above)
    if backward:
        prefix = prefix[::-1]
        out.extend([word + prefix for word in table])
    else:
        out.extend([prefix + word for word in table])


def _count_from(g: Dg, root: str, backward: bool, memo: dict[str, int],
                counters: "OpCounters | None" = None) -> int:
    """The number of words :func:`_spell_from` spells from ``root`` on
    ``g``, counted without spelling one: backward, the paths from a start
    to ``root``, forward, those from ``root`` to a finish.

    The count of a node is its flag plus the counts of its neighbours on
    that side.  ``memo`` maps each node already counted, in one direction
    on ``g``, to its count, and gains every node this call counts, so the
    calls of one operator share their work.  An explicit stack takes the
    place of recursion; a node waits on it until its neighbours are
    counted.  Tallies each node it enters as a term searched: the root,
    and each neighbour of a node it counts; a counted node's entry goes
    no deeper.
    """
    changed, index, added, ends = _side(g, backward)
    entered = 1
    stack = [root]
    while stack:
        v = stack[-1]
        if v in memo:
            stack.pop()
            continue
        below = changed[v] if v in changed else index.get(v, ())
        waiting = [w for w in below if w not in memo]
        if waiting:
            stack += waiting
            continue
        memo[v] = (v in added or v in ends) + sum([memo[w] for w in below])
        entered += len(below)
        stack.pop()
    _tally(counters, searched=entered)
    return memo[root]


def _acyclic(g: Dg) -> None:
    """Raise :class:`CycleError` on a cyclic graph, whose paths are
    unbounded."""
    witness = validate_acyclic(g)
    if witness is not None:
        raise CycleError(witness)


#: the words of a shared node while the walk is expanding it
_OPEN: dict[int, list[str]] = {}


def _walk(g: Dg, label: Mapping[str, str] | None = None, sep: str = "") -> list[str]:
    """The start-to-finish paths of a graph, each spelled as the labels of
    its nodes (their names if ``label`` is ``None``) joined by ``sep``, in
    canonical order of their node names: fewest nodes first, then
    lexicographic.  Raises :class:`CycleError` on a cyclic graph.

    A path may run through further flagged nodes; every flagged prefix
    endpoint yields its own word.

    The walk expands every node it reaches once.  A node is shared if more
    than one entry can lead to it: two or more predecessors, or a start
    flag and a predecessor.  Only predecessors that a start can reach
    count: when some node without predecessors has no start flag, the Kahn
    loop :func:`_peel` from those nodes takes out the others, and a node
    whose other predecessors are such dead ends is no shared node.  The
    first entry to a shared node spells the words below it, starting at the
    node, into a table of their own; that entry and every later one splice
    the table in, one ``prefix + suffix`` string per word.  Other nodes are
    expanded in their entry's table.  A table is dropped once the node's
    last entry has used it.  Every cycle the walk reaches passes through a
    shared node (the node where the walk first enters it), so entering a
    shared node that is still being expanded is a cycle.  A cycle the walk
    does not reach leaves nodes unexpanded, and only then does
    :func:`validate_acyclic` run.  Either way the error carries that
    function's witness.
    """
    succ, finishes, starts = g._succ, g.finishes, g.starts
    # entries per node that the walk can take: one per predecessor, one
    # more for a start that has one
    entries = Counter(chain.from_iterable(succ.values()))
    for v in entries.keys() & starts:
        entries[v] += 1
    if len(g.nodes) - len(entries) > len(starts) - sum(map(entries.__contains__, starts)):
        # some node without predecessors is no start: uncount its arcs
        _peel(succ, entries, list(g.nodes.difference(entries, starts)))
    # shared node -> its entries still to come
    shared = {v: n for v, n in entries.items() if n > 1}
    # shared node -> its table, or _OPEN while it is being expanded
    below_shared: dict[str, dict[int, list[str]]] = {}
    # A table maps a node count to the words of that many nodes, each in
    # the order the walk spells them: preorder over sorted successors,
    # which is lexicographic.  Reading the counts in order is the stable
    # sort by node count that makes that order canonical.
    words: dict[int, list[str]] = {}
    expanded = 0
    # depth-first with an explicit stack, so long chains cannot exhaust the
    # interpreter's recursion limit.  ``trail`` holds the labels of the
    # nodes being expanded.  A frame holds the iterator over the nodes it
    # enters, its table, where in ``trail`` the words of that table start
    # and, for a shared node, the node with the table and start of the
    # entry that opened it.  A word is joined only once it is finished,
    # so a long chain builds no long spelling per node.
    trail: list[str] = []
    stack = [(iter(sorted(starts)), words, 0, None)]
    while stack:
        entering, out, base, opener = stack[-1]
        for v in entering:
            if v in shared:
                known = below_shared.get(v)
                if known is None:
                    expanded += 1
                    below_shared[v] = _OPEN
                    shared[v] -= 1
                    word = v if label is None else label[v]
                    stack.append((iter(succ.get(v, ())), {1: [word]} if v in finishes else {},
                                  len(trail), (v, out, base)))
                    trail.append(word)
                    break
                if known is _OPEN:
                    raise CycleError(validate_acyclic(g))
                _splice(out, known, trail, base, sep)
                shared[v] -= 1
                if not shared[v]:
                    del below_shared[v]
                continue
            expanded += 1
            trail.append(v if label is None else label[v])
            if v in finishes:
                out.setdefault(len(trail) - base, []).append(sep.join(trail[base:]))
            below = succ.get(v)
            if below:
                stack.append((iter(below), out, base, None))
                break
            trail.pop()
        else:
            stack.pop()
            del trail[-1:]
            if opener is not None:
                opened, into, into_base = opener
                if shared[opened]:
                    below_shared[opened] = out
                else:
                    del below_shared[opened]
                _splice(into, out, trail, into_base, sep)
    if expanded < len(g.nodes):
        _acyclic(g)
    # each trail is reached once, so the words are distinct
    return list(chain.from_iterable(map(words.__getitem__, sorted(words))))


def _splice(out: dict[int, list[str]], below: dict[int, list[str]], trail: list[str],
            base: int, sep: str) -> None:
    """Add the words of a shared node's table ``below`` to the table
    ``out``, each behind the spelling of ``trail[base:]``."""
    above = trail[base:]
    prefix = sep.join(above) + sep if above else ""
    for count, suffixes in below.items():
        out.setdefault(len(above) + count, []).extend([prefix + s for s in suffixes])


def _spelled_walk(g: Dg) -> list[str]:
    """:func:`_walk` of a graph whose every node is one ASCII character,
    each word spelled as one string: the node names are their own codes.

    A trie walk after one Kahn pass: each trail is spelled as its parent
    trail's spelling plus one character, one short concatenation per
    trail.  Such a graph has at most 128 nodes, so the spellings held on
    the stack stay short and the walk's fixed cost, which dominates on
    graphs this small, stays low.
    """
    _acyclic(g)
    succ, finishes = g._succ, g.finishes
    words: list[str] = []
    spelled = [""]
    pending = [iter(sorted(g.starts))]
    while pending:
        above = spelled[-1]
        for v in pending[-1]:
            word = above + v
            if v in finishes:
                words.append(word)
            below = succ.get(v)
            if below:
                spelled.append(word)
                pending.append(iter(below))
                break
        else:
            pending.pop()
            spelled.pop()
    words.sort(key=len)
    return words


def enumerate_paths(g: Dg) -> SopfRe:
    """All start-to-finish node sequences of an acyclic graph, as terms.

    A path may run through further flagged nodes; every flagged prefix
    endpoint yields its own term.  Raises :class:`CycleError` on cyclic
    input, since the term count would be unbounded.
    """
    if g.nodes <= _OWN_CODES:
        words = _spelled_walk(g)
    else:
        words = _walk(g, _codes(g.nodes))
    return _trusted(tuple(words), canonical=True)


def render_paths(g: Dg, *, dotted: bool = False) -> str:
    """``print_sopf(enumerate_paths(g), dotted=dotted)``, spelled by the
    walk from the node names: no term is coded or decoded.  The walk
    spells each word dotted; the dots are dropped afterwards unless asked
    for or some name on a path is longer than one character."""
    words = _walk(g, sep=".")
    if not words:
        return EMPTY_TOKEN
    text = " + ".join(words)
    # every name is one character iff each word is one character per node
    # plus a dot between two
    if dotted or sum(map(len, words)) > 2 * text.count(".") + len(words):
        return text
    compact = text.replace(".", "")
    # a lone term spelled EMPTY would read back as the empty expression
    return text if compact == EMPTY_TOKEN else compact


# --------------------------------------------------------------------------
# graph-side operator application

def apply_dg_op(g: Dg, op: MutationOp) -> Dg:
    """Apply one mutation operator to the graph half alone.

    Omission marks endpoints stripped of their last outgoing (ingoing) arc
    as finish (start) nodes; node insertion flags the new node both ways;
    no operator ever clears a flag.  A node operator is the composition of
    its arc operators (node insertion: the bare node, then its outgoing
    arcs, then its ingoing ones; node omission: its outgoing arcs, then its
    ingoing ones, then the bare node), applied as one edit: it raises what
    the first failing step would raise, and returns what the last returns.

    The child is derived from ``g`` (:func:`_derive`): the edit reads
    ``g`` through its changes and writes the neighbour tuples of the nodes
    it touches, so it costs O(touched) plus a copy of ``g``'s changes.
    """
    root = g._root or g
    # the neighbours of a node of g: its changed entry, else its root's
    dsucc, dpred, rsucc, rpred = g._dsucc, g._dpred, root._succ, root._pred
    if isinstance(op, ArcInsert):
        src, dst = op.src, op.dst
        for v in (src, dst):
            if not _present(g, v):
                raise OperationError(f"unknown node {v!r}")
        targets = dsucc[src] if src in dsucc else rsucc.get(src, ())
        if dst in targets:
            raise OperationError(f"arc {src} -> {dst} already present")
        if src in _reached(g, (dst,), src):
            raise InsertionCycleError(f"inserting arc {src} -> {dst} would create a cycle")
        sources = dpred[dst] if dst in dpred else rpred.get(dst, ())
        return _derive(g, {src: _with(targets, dst)}, {dst: _with(sources, src)})

    if isinstance(op, ArcOmit):
        src, dst = op.src, op.dst
        targets = dsucc[src] if src in dsucc else rsucc.get(src, ())
        if dst not in targets:
            raise OperationError(f"arc {src} -> {dst} not present")
        sources = dpred[dst] if dst in dpred else rpred.get(dst, ())
        succ, pred = {src: _less(targets, dst)}, {dst: _less(sources, src)}
        return _derive(g, succ, pred, **_stranded(g, (src, dst), succ, pred))

    if isinstance(op, NodeInsert):
        v, outgoing, ingoing = op.node, op.outgoing, op.ingoing
        if _present(g, v):
            raise OperationError(f"node {v!r} already present")
        for x in outgoing:
            if not _present(g, x):
                raise OperationError(f"unknown node {x!r}")
        # a NodeInsert names no neighbour twice and never v itself, so no
        # arc is inserted twice; an outgoing arc closes no cycle, as v has
        # no ingoing arc before them, and an ingoing arc y -> v closes one
        # iff an outgoing target reaches y: one search serves them all
        below = _reached(g, outgoing) if outgoing and ingoing else ()
        for y in ingoing:
            if not _present(g, y):
                raise OperationError(f"unknown node {y!r}")
            if y in below:
                raise InsertionCycleError(f"inserting arc {y} -> {v} would create a cycle")
        succ = {v: tuple(sorted(outgoing))}
        pred = {v: tuple(sorted(ingoing))}
        for x in outgoing:
            pred[x] = _with(dpred[x] if x in dpred else rpred.get(x, ()), v)
        for y in ingoing:
            succ[y] = _with(dsucc[y] if y in dsucc else rsucc.get(y, ()), v)
        new = {v}
        if v in g._omitted:
            nodes = {"_omitted": g._omitted - new}
        else:
            nodes = {"_inserted": g._inserted | new}
        return _derive(g, succ, pred, _size=g._size + 1, _dstarts=g._dstarts | new,
                       _dfinishes=g._dfinishes | new, **nodes)

    if isinstance(op, NodeOmit):
        v = op.node
        if not _present(g, v):
            raise OperationError(f"unknown node {v!r}")
        below = dsucc[v] if v in dsucc else rsucc.get(v, ())
        above = dpred[v] if v in dpred else rpred.get(v, ())
        succ, pred = {v: ()}, {v: ()}
        for x in below:
            pred[x] = _less(dpred[x] if x in dpred else rpred[x], v)
        for y in above:
            succ[y] = _less(dsucc[y] if y in dsucc else rsucc[y], v)
        # each neighbour is flagged as its last arc omission would flag it,
        # and after that step its arcs no longer change: read them off the
        # final entries
        flags = _stranded(g, {*below, *above}, succ, pred)
        gone = {v}
        if v in g._inserted:
            nodes = {"_inserted": g._inserted - gone}
        else:
            nodes = {"_omitted": g._omitted | gone}
        return _derive(g, succ, pred, _size=g._size - 1, _dstarts=_without(flags["_dstarts"], v),
                       _dfinishes=_without(flags["_dfinishes"], v), **nodes)

    raise TypeError(f"not a mutation operator: {op!r}")


def _with(neighbours: tuple[str, ...], v: str) -> tuple[str, ...]:
    """The sorted ``neighbours`` with ``v`` added."""
    return tuple(sorted((*neighbours, v)))


def _less(neighbours: tuple[str, ...], v: str) -> tuple[str, ...]:
    """``neighbours`` without ``v``."""
    return tuple([w for w in neighbours if w != v])


def _stranded(g: Dg, ends, succ: Mapping[str, tuple[str, ...]],
              pred: Mapping[str, tuple[str, ...]]) -> dict[str, frozenset[str]]:
    """``g``'s added starts and finishes (``_dstarts``, ``_dfinishes``),
    each with the nodes of ``ends`` that the edit writing the entries
    ``succ``/``pred`` leaves with no neighbour on that side and that ``g``
    does not flag so; a set of ``g``'s itself where that adds none."""
    root = g._root or g
    dsucc, dpred, rsucc, rpred = g._dsucc, g._dpred, root._succ, root._pred
    dstarts, dfinishes = g._dstarts, g._dfinishes
    starts = [v for v in ends
              if not (pred[v] if v in pred else dpred[v] if v in dpred else v in rpred)
              and v not in dstarts and v not in root.starts]
    finishes = [v for v in ends
                if not (succ[v] if v in succ else dsucc[v] if v in dsucc else v in rsucc)
                and v not in dfinishes and v not in root.finishes]
    return {"_dstarts": dstarts.union(starts) if starts else dstarts,
            "_dfinishes": dfinishes.union(finishes) if finishes else dfinishes}


def _without(flags: frozenset[str], v: str) -> frozenset[str]:
    """``flags`` less ``v``; ``flags`` itself if it does not hold ``v``."""
    return flags - {v} if v in flags else flags

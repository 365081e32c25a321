"""Directed acyclic graph models with start/finish node designations.

The language of a model is the set of node sequences along directed paths
from a start-flagged node to a finish-flagged node.  Flags default to the
degree rule (no ingoing arcs = start, no outgoing arcs = finish) and are
sticky: mutation history only ever adds flags, never clears them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleError, OperationError, ParseError
from .ops import ArcInsert, ArcOmit, MutationOp, NodeInsert, NodeOmit
from .sopf import SopfRe, validate_symbol

Arc = tuple[str, str]


@dataclass(frozen=True)
class Dg:
    """A directed graph plus start/finish designation flags.

    Structural well-formedness (arc endpoints declared, no self-loops) is
    enforced at construction; acyclicity is not, see :func:`validate_acyclic`.
    """

    nodes: frozenset[str] = frozenset()
    arcs: frozenset[Arc] = frozenset()
    starts: frozenset[str] = frozenset()
    finishes: frozenset[str] = frozenset()

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

    def successors(self, v: str) -> list[str]:
        return sorted(dst for src, dst in self.arcs if src == v)

    def predecessors(self, v: str) -> list[str]:
        return sorted(src for src, dst in self.arcs if dst == v)

    def out_degree(self, v: str) -> int:
        return sum(1 for src, _ in self.arcs if src == v)

    def in_degree(self, v: str) -> int:
        return sum(1 for _, dst in self.arcs if dst == v)

    def is_start(self, v: str) -> bool:
        return v in self.starts

    def is_finish(self, v: str) -> bool:
        return v in self.finishes


def default_flags(nodes: frozenset[str], arcs: frozenset[Arc]) -> tuple[frozenset[str], frozenset[str]]:
    """Degree-rule designation: in-degree 0 = start, out-degree 0 = finish."""
    with_in = {dst for _, dst in arcs}
    with_out = {src for src, _ in arcs}
    return frozenset(nodes - with_in), frozenset(nodes - with_out)


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

    def symbol(token: str, lineno: int) -> str:
        try:
            return validate_symbol(token)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *args = line.split()
        if keyword == "node":
            if len(args) != 1:
                raise ParseError("'node' takes one id", line=lineno)
            nodes.add(symbol(args[0], lineno))
        elif keyword == "arc":
            if len(args) != 2:
                raise ParseError("'arc' takes two ids", line=lineno)
            src, dst = (symbol(a, lineno) for a in args)
            if src == dst:
                raise ParseError(f"self-loop arc on {src!r}", line=lineno)
            if (src, dst) in arcs:
                raise ParseError(f"duplicate arc {src} -> {dst}", line=lineno)
            arcs.add((src, dst))
            nodes.update((src, dst))
        elif keyword in ("start", "finish"):
            if len(args) != 1:
                raise ParseError(f"'{keyword}' takes one id", line=lineno)
            sink = start_lines if keyword == "start" else finish_lines
            sink.append((lineno, symbol(args[0], lineno)))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)

    for lineno, sym in (*start_lines, *finish_lines):
        if sym not in nodes:
            raise ParseError(f"flag references unknown node {sym!r}", line=lineno)

    deg_starts, deg_finishes = default_flags(frozenset(nodes), frozenset(arcs))
    starts = frozenset(s for _, s in start_lines) if start_lines else deg_starts
    finishes = frozenset(s for _, s in finish_lines) if finish_lines else deg_finishes
    return Dg(frozenset(nodes), frozenset(arcs), starts, finishes)


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
    indeg = {v: 0 for v in g.nodes}
    for _, dst in g.arcs:
        indeg[dst] += 1
    ready = sorted((v for v, d in indeg.items() if d == 0), reverse=True)
    remaining = set(g.nodes)
    while ready:
        v = ready.pop()
        remaining.discard(v)
        for w in g.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort(reverse=True)
    if not remaining:
        return None
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
    words: list[tuple[str, ...]] = []
    # depth-first with an explicit stack, so long chains cannot exhaust the
    # interpreter's recursion limit: pending[k + 1] walks the successors of
    # trail[k], pending[0] the start nodes
    trail: list[str] = []
    pending = [iter(sorted(g.starts))]
    while pending:
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            if trail:
                trail.pop()
            continue
        trail.append(v)
        if g.is_finish(v):
            words.append(tuple(trail))
        pending.append(iter(g.successors(v)))
    return SopfRe(tuple(words))


# --------------------------------------------------------------------------
# graph-side operator application

def apply_dg_op(g: Dg, op: MutationOp) -> Dg:
    """Apply one mutation operator to the graph half alone.

    Omission marks endpoints stripped of their last outgoing (ingoing) arc
    as finish (start) nodes; node insertion flags the new node both ways;
    no operator ever clears a flag.
    """
    if isinstance(op, ArcInsert):
        for v in (op.src, op.dst):
            if v not in g.nodes:
                raise OperationError(f"unknown node {v!r}")
        if (op.src, op.dst) in g.arcs:
            raise OperationError(f"arc {op.src} -> {op.dst} already present")
        if path_exists(g, op.dst, op.src):
            raise OperationError(
                f"inserting arc {op.src} -> {op.dst} would create a cycle")
        return Dg(g.nodes, g.arcs | {(op.src, op.dst)}, g.starts, g.finishes)

    if isinstance(op, ArcOmit):
        if (op.src, op.dst) not in g.arcs:
            raise OperationError(f"arc {op.src} -> {op.dst} not present")
        arcs = g.arcs - {(op.src, op.dst)}
        starts, finishes = set(g.starts), set(g.finishes)
        for v in (op.src, op.dst):
            if not any(src == v for src, _ in arcs):
                finishes.add(v)
            if not any(dst == v for _, dst in arcs):
                starts.add(v)
        return Dg(g.nodes, arcs, frozenset(starts), frozenset(finishes))

    if isinstance(op, NodeInsert):
        if op.node in g.nodes:
            raise OperationError(f"node {op.node!r} already present")
        for v in (*op.outgoing, *op.ingoing):
            if v not in g.nodes:
                raise OperationError(f"unknown node {v!r}")
        out = Dg(g.nodes | {op.node}, g.arcs,
                 g.starts | {op.node}, g.finishes | {op.node})
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
        return Dg(out.nodes - {op.node}, out.arcs,
                  out.starts - {op.node}, out.finishes - {op.node})

    raise TypeError(f"not a mutation operator: {op!r}")

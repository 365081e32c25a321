"""Brute-force reference semantics and randomized differential checking.

The spec of a model is that its expression is the start-to-finish path
language of its graph.  The reference checks exactly that: it re-applies
each operator to its own copy of the graph (:func:`_ref_edit`, plain node,
arc and flag sets with linear scans) and enumerates that graph's paths
naively (:func:`naive_enumerate`).  It shares no term algebra and no graph
operator with the efficient implementation, so the two can disagree when
one is wrong.

The generators keep their own graph helpers: the degree-rule flags of
:func:`random_model` and the heap-ordered :func:`topological_order`, whose
smallest-ready-node-first order fixes the scripts :func:`random_script`
draws.  Each script step finds its insertable arcs from one row of
reachability bits per node, built in one backward pass over that order:
O(V + E) big-int ORs, then one bit test per node pair.

:func:`run_differential` converts each trial's graph once, with
:func:`~dagmut.mutate.model_from_graph`, and checks that expression
against :func:`naive_enumerate` before the first step.  Every step then
goes through :func:`~dagmut.mutate.apply_op` and :func:`_ref_edit` side by
side; the two graphs must be equal, the expression must be the reference
graph's path language, the step's log entry must state the terms the
reference language gained and lost, and the model must keep its
invariants.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Sequence

from .errors import ModelError, OperationError
from .graph import Arc, Dg, apply_dg_op, enumerate_paths, parse_graph, render_graph
from .mutate import LogEntry, ModelState, _require_trim, apply_op, model_from_graph
from .ops import (
    ArcInsert,
    ArcOmit,
    MutationOp,
    NodeInsert,
    NodeOmit,
    format_script,
    parse_script,
)
from .sopf import SopfRe, parse_sopf, print_sopf

Word = tuple[str, ...]


@dataclass
class NaiveLang:
    """A finite language as an unordered, unindexed list of words."""

    words: list[Word] = field(default_factory=list)


def equivalent(a: SopfRe, b: NaiveLang) -> bool:
    """True iff the canonical expression and the naive language agree."""
    return set(a.terms) == {tuple(w) for w in b.words}


# --------------------------------------------------------------------------
# reference semantics: the path language of the edited graph

def _reachable(arcs: set[Arc], src: str, dst: str) -> bool:
    """True iff a path of length >= 0 leads from ``src`` to ``dst``."""
    seen, frontier = {src}, [src]
    while frontier:
        v = frontier.pop()
        for a, b in arcs:
            if a == v and b not in seen:
                seen.add(b)
                frontier.append(b)
    return dst in seen


def _ref_edit(g: Dg, op: MutationOp) -> Dg:
    """``g`` after ``op``, edited on plain copies of its sets.

    Flags are sticky: arc omission flags an endpoint left without outgoing
    (ingoing) arcs as finish (start), and a new node is flagged both ways.
    Node omission omits the node's outgoing arcs, then its ingoing arcs,
    then drops the node.  A failed precondition raises an
    :class:`OperationError`.
    """
    nodes, arcs = set(g.nodes), set(g.arcs)
    starts, finishes = set(g.starts), set(g.finishes)

    def insert(src: str, dst: str) -> None:
        if src not in nodes or dst not in nodes:
            raise OperationError("unknown node")
        if (src, dst) in arcs:
            raise OperationError("arc already present")
        if _reachable(arcs, dst, src):
            raise OperationError("insertion would create a cycle")
        arcs.add((src, dst))

    def omit(src: str, dst: str) -> None:
        if (src, dst) not in arcs:
            raise OperationError("arc not present")
        arcs.remove((src, dst))
        for v in (src, dst):
            if all(a != v for a, _ in arcs):
                finishes.add(v)
            if all(b != v for _, b in arcs):
                starts.add(v)

    if isinstance(op, ArcInsert):
        insert(op.src, op.dst)
    elif isinstance(op, ArcOmit):
        omit(op.src, op.dst)
    elif isinstance(op, NodeInsert):
        if op.node in nodes:
            raise OperationError("node already present")
        for flagged in (nodes, starts, finishes):
            flagged.add(op.node)
        for x in op.outgoing:
            insert(op.node, x)
        for y in op.ingoing:
            insert(y, op.node)
    elif isinstance(op, NodeOmit):
        if op.node not in nodes:
            raise OperationError("unknown node")
        for x in sorted(b for a, b in arcs if a == op.node):
            omit(op.node, x)
        for y in sorted(a for a, b in arcs if b == op.node):
            omit(y, op.node)
        for flagged in (nodes, starts, finishes):
            flagged.discard(op.node)
    else:
        raise TypeError(f"not a mutation operator: {op!r}")
    return Dg(nodes, arcs, starts, finishes)


def ref_apply(lang: NaiveLang, op: MutationOp, companion: Dg) -> NaiveLang:
    """Reference result of one operator: the path language of
    ``companion``, the graph before the operator, edited by ``op``.

    ``lang`` is not read: on a model the language before the operator is
    ``companion``'s, so the result depends on the graph alone.
    """
    return NaiveLang(naive_enumerate(_ref_edit(companion, op)))


def naive_enumerate(g: Dg) -> list[Word]:
    """Exhaustive start-to-finish walk over the raw arc pairs, depth-first,
    smallest successor first.  Each node's successor list is built once per
    call from the sorted pairs."""
    succ: dict[str, list[str]] = {}
    # reversed order pushes the largest successor first and pops the
    # smallest first
    for a, b in sorted(g.arcs, reverse=True):
        succ.setdefault(a, []).append(b)
    words: list[Word] = []
    # a stack of trails, not recursion, so long chains cannot exhaust the
    # interpreter's recursion limit
    stack = [(s,) for s in sorted(g.starts, reverse=True)]
    while stack:
        trail = stack.pop()
        if trail[-1] in g.finishes:
            words.append(trail)
        stack.extend(trail + (b,) for b in succ.get(trail[-1], ()))
    return words


# --------------------------------------------------------------------------
# randomized generation

#: Largest graph the naive reference handles comfortably; a dense graph on
#: n nodes can carry ~2^(n-1) start-to-finish paths.
MAX_GEN_NODES = 12

_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GenConfig:
    node_count: int
    arc_density: float = 0.5
    seed: int = 0
    script_length: int = 0

    def __post_init__(self):
        if not 0 <= self.node_count <= MAX_GEN_NODES:
            raise ValueError(f"node_count must be in 0..{MAX_GEN_NODES}")
        if not 0.0 <= self.arc_density <= 1.0:
            raise ValueError("arc_density must lie in [0, 1]")
        if self.script_length < 0:
            raise ValueError("script_length must be nonnegative")


def default_flags(nodes: frozenset[str], arcs: frozenset[Arc]) -> tuple[frozenset[str], frozenset[str]]:
    """Degree-rule designation: in-degree 0 = start, out-degree 0 = finish."""
    with_in = {dst for _, dst in arcs}
    with_out = {src for src, _ in arcs}
    return frozenset(nodes - with_in), frozenset(nodes - with_out)


def random_model(cfg: GenConfig) -> Dg:
    """A random acyclic graph with degree-rule flags.  Arcs are sampled
    only forward along a random node permutation, so acyclicity holds by
    construction."""
    rng = random.Random(cfg.seed)
    names = list(_NAMES[:cfg.node_count])
    order = rng.sample(names, len(names))
    arcs = set()
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if rng.random() < cfg.arc_density:
                arcs.add((order[i], order[j]))
    nodes = frozenset(names)
    starts, finishes = default_flags(nodes, frozenset(arcs))
    return Dg(nodes, frozenset(arcs), starts, finishes)


def topological_order(g: Dg) -> list[str]:
    """Kahn's topological order, smallest ready node first, so that
    :func:`random_script` splits the same order on every run.

    On a cyclic graph the order stops short: it omits every node on or
    behind a cycle.
    """
    succ = g._succ
    indeg = {v: len(preds) for v, preds in g._pred.items()}
    ready = sorted(g.nodes - indeg.keys())  # a sorted list is a heap
    order: list[str] = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for w in succ.get(v, ()):
            left = indeg[w] - 1
            indeg[w] = left
            if not left:
                heappush(ready, w)
    return order


def _reach_rows(g: Dg, order: Sequence[str], nodes: Sequence[str]) -> dict[str, int]:
    """For each node ``v`` of the acyclic ``g``, the set of nodes a path
    (length >= 0) from ``v`` reaches, as an int whose bit ``k`` stands for
    ``nodes[k]``.  ``order`` is a topological order of ``g``; the rows are
    built in one pass over it backwards, each the OR of its successors'."""
    bit = {v: 1 << k for k, v in enumerate(nodes)}
    succ = g._succ
    rows: dict[str, int] = {}
    for v in reversed(order):
        row = bit[v]
        for w in succ.get(v, ()):
            row |= rows[w]
        rows[v] = row
    return rows


def random_script(cfg: GenConfig, g: Dg) -> tuple[MutationOp, ...]:
    """A script of ``cfg.script_length`` operators, each valid at its
    application point against a simulated copy of ``g``.

    Each step builds :func:`_reach_rows` once and tests each of the V^2
    candidate arcs with one bit.
    """
    rng = random.Random(cfg.seed ^ 0x5EED)
    cur = g
    fresh = [c for c in _NAMES if c not in g.nodes]
    ops: list[MutationOp] = []
    for _ in range(cfg.script_length):
        kinds = ["node_insert"] if fresh else []
        nodes = sorted(cur.nodes)
        arcs = sorted(cur.arcs)
        order = topological_order(cur)
        rows = _reach_rows(cur, order, nodes)
        # u -> v closes a cycle iff v reaches u; v reaches itself, so the
        # test also rules out self-loops
        insertable = [(u, v) for k, u in enumerate(nodes) for v in nodes
                      if not rows[v] >> k & 1 and (u, v) not in cur.arcs]
        if insertable:
            kinds.append("arc_insert")
        if arcs:
            kinds.append("arc_omit")
        if nodes:
            kinds.append("node_omit")
        kind = rng.choice(sorted(kinds))
        if kind == "arc_insert":
            op: MutationOp = ArcInsert(*rng.choice(insertable))
        elif kind == "arc_omit":
            op = ArcOmit(*rng.choice(arcs))
        elif kind == "node_omit":
            op = NodeOmit(rng.choice(nodes))
        else:
            name = fresh.pop(0)
            # split a topological order: ingoing from the left part,
            # outgoing into the right part, so no cycle can close
            pivot = rng.randint(0, len(order))
            ingoing = sorted(rng.sample(order[:pivot], min(pivot, rng.randint(0, 2))))
            right = order[pivot:]
            outgoing = sorted(rng.sample(right, min(len(right), rng.randint(0, 2))))
            op = NodeInsert(name, tuple(outgoing), tuple(ingoing))
        cur = apply_dg_op(cur, op)
        ops.append(op)
    return tuple(ops)


# --------------------------------------------------------------------------
# differential harness

@dataclass(frozen=True)
class TrialFailure:
    trial: int
    seed: int
    script: str
    step: int
    kind: str
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    steps_checked: int
    failures: tuple[TrialFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def passed_trials(self) -> int:
        failed = {f.trial for f in self.failures}
        return self.trials - len(failed)


def _count_violations(entry: LogEntry, before: set[Word], after: set[Word]) -> list[str]:
    """What the reference word sets ``before`` and ``after`` the step of
    ``entry`` contradict in its counts: the terms added and removed, or,
    these being right, for a node operator the net change of its arc steps
    plus its bare term's (+1 inserted, -1 omitted), which must be its own."""
    added, removed = len(after - before), len(before - after)
    if (entry.terms_added, entry.terms_removed) != (added, removed):
        return [f"{entry.notation}: added {entry.terms_added} removed {entry.terms_removed}, "
                f"reference added {added} removed {removed}"]
    bare = {NodeInsert: 1, NodeOmit: -1}.get(type(entry.op))
    if bare is not None:
        steps = sum(e.terms_added - e.terms_removed for e in entry.sub) + bare
        if steps != added - removed:
            return [f"{entry.notation}: arc steps and bare term net {steps:+d}, "
                    f"operator net {added - removed:+d}"]
    return []


def _invariant_violations(st: ModelState) -> list[str]:
    """A cycle, a graph that is not trim, an expression other than the
    graph's path language, or a text form that does not read back."""
    problems: list[str] = []
    try:
        paths = enumerate_paths(st.dg)
        _require_trim(st.dg, paths)
        if paths != st.re:
            problems.append("expression differs from the graph's path language")
    except ModelError as exc:  # a CycleError, or a graph that is not trim
        problems.append(str(exc))
    if parse_graph(render_graph(st.dg)) != st.dg:
        problems.append("graph text round-trip diverged")
    if parse_sopf(print_sopf(st.re)) != st.re:
        problems.append("expression text round-trip diverged")
    return problems


def _graph_difference(dg: Dg, ref: Dg) -> str:
    """Each field in which ``dg`` differs from ``ref``, with the elements
    found on one side only."""
    parts = []
    for name in ("nodes", "arcs", "starts", "finishes"):
        mine, theirs = getattr(dg, name), getattr(ref, name)
        if mine != theirs:
            parts.append(f"{name}: implementation only {sorted(mine - theirs)}, "
                         f"reference only {sorted(theirs - mine)}")
    return "; ".join(parts)


def run_differential(trials: int = 200, base_seed: int = 0, max_nodes: int = 10,
                     max_script: int = 6, *,
                     corrupt: Callable[[int, int, SopfRe], SopfRe] | None = None,
                     ) -> VerifyReport:
    """Seeded random models and scripts, applied through the efficient
    implementation and the naive reference side by side.

    The reference keeps its own graph, edited by :func:`_ref_edit` at every
    step.  Each step must leave the implementation's graph equal to it
    (failure kind ``graph``), its expression equal to the word set of its
    :func:`naive_enumerate` (``equivalence``), its log entry's counts equal
    to the words that set gained and lost (``counts``, see
    :func:`_count_violations`), and keep the model's invariants
    (``invariant``); a failed precondition on either side is an
    ``error``.  Each step's word set is built once, for both checks.
    ``corrupt`` is a test-only hook that perturbs the implementation's
    expression before comparison."""
    failures: list[TrialFailure] = []
    steps = 0
    for trial in range(trials):
        seed = base_seed * 1_000_003 + trial
        rng = random.Random(seed)
        cfg = GenConfig(node_count=rng.randint(0, max_nodes),
                        arc_density=rng.uniform(0.15, 0.9),
                        seed=seed,
                        script_length=rng.randint(0, max_script))
        g = random_model(cfg)
        script = random_script(cfg, g)
        script_text = format_script(script)

        def fail(step: int, kind: str, detail: str) -> None:
            failures.append(TrialFailure(trial, seed, script_text, step, kind, detail))

        state = model_from_graph(g)
        ref = g
        words = set(naive_enumerate(ref))
        if set(state.re.terms) != words:
            fail(0, "equivalence", "initial enumeration mismatch")
            continue
        if parse_script(script_text) != script:
            fail(0, "invariant", "script notation round-trip diverged")
        for step, op in enumerate(script, 1):
            try:
                state, entry = apply_op(state, op)
                ref = _ref_edit(ref, op)
            except ModelError as exc:
                fail(step, "error", str(exc))
                break
            steps += 1
            if state.dg != ref:
                fail(step, "graph", _graph_difference(state.dg, ref))
                break
            shown = state.re
            if corrupt is not None:
                shown = corrupt(trial, step, shown)
            before, words = words, set(naive_enumerate(ref))
            if set(shown.terms) != words:
                fail(step, "equivalence",
                     f"implementation {print_sopf(shown)} vs reference "
                     f"{print_sopf(SopfRe(tuple(words)))}")
                break
            for problem in _count_violations(entry, before, words):
                fail(step, "counts", problem)
            for problem in _invariant_violations(state):
                fail(step, "invariant", problem)
    return VerifyReport(trials=trials, steps_checked=steps, failures=tuple(failures))

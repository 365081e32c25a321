"""Brute-force reference semantics and randomized differential checking.

The spec of a model is that its expression is the start-to-finish path
language of its graph.  The reference checks exactly that: it re-applies
each operator to its own copy of the graph (:func:`_ref_edit`, plain node,
arc and flag sets, each check one O(V + E) pass over the arcs) and
enumerates that graph's paths naively (:func:`naive_enumerate`).  It
shares no term algebra and no graph operator with the efficient
implementation, so the two can disagree when one is wrong.

The generators keep graph helpers of their own: the degree-rule flags of
:func:`random_model`, and :func:`random_script`'s copy of the graph, a
node set and a successor index of sorted tuples that each operator it
draws edits in place (:func:`_set_arc`); it builds no graph and applies no
graph operator.  It takes its order from the Kahn loop behind
:func:`~dagmut.graph.topological_order`, which fixes the node insertions
it draws.  Each script step finds its insertable arcs from one row of
reachability bits per node, built in one backward pass over that order:
O(V + E) big-int ORs, then one bit test per node pair.  It lists the
arcs only for an arc omission it has drawn.

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
from typing import Sequence

from .errors import ModelError, OperationError
from .graph import Adjacency, Arc, Dg, _kahn, enumerate_paths, parse_graph, render_graph
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


# --------------------------------------------------------------------------
# reference semantics: the path language of the edited graph

def _reachable(arcs: set[Arc], src: str, dst: str) -> bool:
    """True iff a path of length >= 0 leads from ``src`` to ``dst``: a
    search over successor lists built from ``arcs`` once per call."""
    succ: dict[str, list[str]] = {}
    for a, b in arcs:
        succ.setdefault(a, []).append(b)
    seen, frontier = {src}, [src]
    while frontier:
        for b in succ.get(frontier.pop(), ()):
            if b not in seen:
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
        sources, targets = {a for a, _ in arcs}, {b for _, b in arcs}
        for v in (src, dst):
            if v not in sources:
                finishes.add(v)
            if v not in targets:
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
    finishes = g.finishes
    words: list[Word] = []
    # a stack of trails, not recursion, so long chains cannot exhaust the
    # interpreter's recursion limit
    stack = [(s,) for s in sorted(g.starts, reverse=True)]
    while stack:
        trail = stack.pop()
        last = trail[-1]
        if last in finishes:
            words.append(trail)
        if last in succ:
            stack.extend([trail + (b,) for b in succ[last]])
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


def _reach_rows(succ: Adjacency, order: Sequence[str], nodes: Sequence[str]) -> dict[str, int]:
    """For each node ``v`` of the acyclic graph whose successor index is
    ``succ``, the set of nodes a path (length >= 0) from ``v`` reaches, as
    an int whose bit ``k`` stands for ``nodes[k]``.  ``order`` is a
    topological order of the graph; the rows are built in one pass over it
    backwards, each the OR of its successors'."""
    bit = {v: 1 << k for k, v in enumerate(nodes)}
    rows: dict[str, int] = {}
    for v in reversed(order):
        row = bit[v]
        for w in succ.get(v, ()):
            row |= rows[w]
        rows[v] = row
    return rows


def _set_arc(succ: dict[str, tuple[str, ...]], src: str, dst: str, present: bool) -> None:
    """Add (``present``) or drop the arc ``src -> dst`` in the successor
    index ``succ``, keeping each tuple sorted and no empty one."""
    targets = set(succ.get(src, ()))
    if present:
        targets.add(dst)
    else:
        targets.discard(dst)
    if targets:
        succ[src] = tuple(sorted(targets))
    else:
        succ.pop(src, None)


def random_script(cfg: GenConfig, g: Dg) -> tuple[MutationOp, ...]:
    """A script of ``cfg.script_length`` operators, each valid at its
    application point against a simulated copy of ``g``.

    The copy is a node set and a successor index of sorted tuples, edited
    in place by each operator drawn; no graph is built.  Each step builds
    :func:`_reach_rows` once and tests each of the V^2 candidate arcs with
    one bit.
    """
    rng = random.Random(cfg.seed ^ 0x5EED)
    present, succ = set(g.nodes), dict(g._succ)
    fresh = [c for c in _NAMES if c not in present]
    ops: list[MutationOp] = []
    for _ in range(cfg.script_length):
        kinds = ["node_insert"] if fresh else []
        nodes = sorted(present)
        order = _kahn(present, succ)
        rows = _reach_rows(succ, order, nodes)
        # u -> v closes a cycle iff v reaches u; v reaches itself, so the
        # test also rules out self-loops
        insertable = []
        for k, u in enumerate(nodes):
            targets = succ.get(u, ())
            insertable += [(u, v) for v in nodes if not rows[v] >> k & 1 and v not in targets]
        if insertable:
            kinds.append("arc_insert")
        if succ:
            kinds.append("arc_omit")
        if nodes:
            kinds.append("node_omit")
        kind = rng.choice(sorted(kinds))
        if kind == "arc_insert":
            src, dst = rng.choice(insertable)
            op: MutationOp = ArcInsert(src, dst)
            _set_arc(succ, src, dst, True)
        elif kind == "arc_omit":
            # sorted sources, each with its sorted targets: the sorted arcs
            src, dst = rng.choice([(u, v) for u in sorted(succ) for v in succ[u]])
            op = ArcOmit(src, dst)
            _set_arc(succ, src, dst, False)
        elif kind == "node_omit":
            v = rng.choice(nodes)
            op = NodeOmit(v)
            present.remove(v)
            succ.pop(v, None)
            for u in [u for u, targets in succ.items() if v in targets]:
                _set_arc(succ, u, v, False)
        else:
            name = fresh.pop(0)
            # split a topological order: ingoing from the left part,
            # outgoing into the right part, so no cycle can close
            pivot = rng.randint(0, len(order))
            ingoing = sorted(rng.sample(order[:pivot], min(pivot, rng.randint(0, 2))))
            right = order[pivot:]
            outgoing = sorted(rng.sample(right, min(len(right), rng.randint(0, 2))))
            op = NodeInsert(name, tuple(outgoing), tuple(ingoing))
            present.add(name)
            if outgoing:
                succ[name] = tuple(outgoing)
            for y in ingoing:
                _set_arc(succ, y, name, True)
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


def _trial_config(seed: int, max_nodes: int) -> GenConfig:
    """The model and script sizes of the :func:`run_differential` trial
    ``seed``, drawn from a generator seeded with it."""
    rng = random.Random(seed)
    return GenConfig(node_count=rng.randint(0, max_nodes), arc_density=rng.uniform(0.15, 0.9),
                     seed=seed, script_length=rng.randint(0, 6))


def run_differential(trials: int = 200, base_seed: int = 0, max_nodes: int = 10) -> VerifyReport:
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
    Each trial draws a script of at most six operators.  Raises
    :class:`ValueError`, before any trial, on a negative ``trials`` or a
    ``max_nodes`` outside ``0..MAX_GEN_NODES``."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not 0 <= max_nodes <= MAX_GEN_NODES:
        raise ValueError(f"max_nodes must be in 0..{MAX_GEN_NODES}, got {max_nodes}")
    failures: list[TrialFailure] = []
    steps = 0
    for trial in range(trials):
        seed = base_seed * 1_000_003 + trial
        cfg = _trial_config(seed, max_nodes)
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
            before, words = words, set(naive_enumerate(ref))
            if set(state.re.terms) != words:
                fail(step, "equivalence",
                     f"implementation {print_sopf(state.re)} vs reference "
                     f"{print_sopf(SopfRe(tuple(words)))}")
                break
            for problem in _count_violations(entry, before, words):
                fail(step, "counts", problem)
            for problem in _invariant_violations(state):
                fail(step, "invariant", problem)
    return VerifyReport(trials=trials, steps_checked=steps, failures=tuple(failures))

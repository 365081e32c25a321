"""Brute-force reference semantics and randomized differential checking.

The reference works on plain lists of words with linear scans only; it
deliberately shares no term-set machinery with the efficient
implementation so the two can disagree when one is wrong.

The generators keep their own graph helpers: the degree-rule flags of
:func:`random_model` and the heap-ordered :func:`topological_order`, whose
smallest-ready-node-first order fixes the scripts :func:`random_script`
draws.  Each script step finds its insertable arcs from one row of
reachability bits per node, built in one backward pass over that order:
O(V + E) big-int ORs, then one bit test per node pair.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Sequence

from .errors import ModelError, OperationError
from .graph import Arc, Dg, apply_dg_op, parse_graph, render_graph, validate_acyclic
from .mutate import ModelState, apply_op, model_from_graph
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
# reference operator semantics

def _reachable(arcs: Sequence[tuple[str, str]], src: str, dst: str) -> bool:
    if src == dst:
        return True
    seen = {src}
    frontier = [src]
    while frontier:
        v = frontier.pop()
        for a, b in arcs:
            if a == v and b == dst:
                return True
            if a == v and b not in seen:
                seen.add(b)
                frontier.append(b)
    return False


def _heads(words: list[Word], sym: str) -> list[Word]:
    out: list[Word] = []
    for w in words:
        if sym in w:
            cut = w[:w.index(sym) + 1]
            if cut not in out:
                out.append(cut)
    return out


def _tails(words: list[Word], sym: str) -> list[Word]:
    out: list[Word] = []
    for w in words:
        if sym in w:
            last = len(w) - 1 - tuple(reversed(w)).index(sym)
            cut = w[last:]
            if cut not in out:
                out.append(cut)
    return out


def _ref_arc_insert(words: list[Word], src: str, dst: str,
                    nodes: set[str], arcs: list[tuple[str, str]]) -> list[Word]:
    if src not in nodes or dst not in nodes:
        raise OperationError("unknown node")
    if (src, dst) in arcs:
        raise OperationError("arc already present")
    if _reachable(arcs, dst, src):
        raise OperationError("insertion would create a cycle")
    out = list(words)
    for h in _heads(words, src):
        for t in _tails(words, dst):
            joined = h + t
            if joined not in out:
                out.append(joined)
    arcs.append((src, dst))
    return out


def _ref_arc_omit(words: list[Word], src: str, dst: str,
                  arcs: list[tuple[str, str]]) -> list[Word]:
    if (src, dst) not in arcs:
        raise OperationError("arc not present")
    with_src = [w for w in words if src in w]
    with_dst = [w for w in words if dst in w]
    adjacent = [w for w in words
                if any(w[k] == src and w[k + 1] == dst for k in range(len(w) - 1))]
    fresh: list[Word] = []
    if set(with_src) == set(adjacent):
        fresh.extend(_heads(with_src, src))
    if set(with_dst) == set(adjacent):
        for t in _tails(with_dst, dst):
            if t not in fresh:
                fresh.append(t)
    out = [w for w in words if w not in adjacent]
    for w in fresh:
        if w not in out:
            out.append(w)
    arcs.remove((src, dst))
    return out


def ref_apply(lang: NaiveLang, op: MutationOp, companion: Dg) -> NaiveLang:
    """Reference result of one operator on a naive language.

    ``companion`` is the graph the state had before the operator; it sizes
    the precondition checks and, for node omission, fixes which arcs go.
    """
    nodes = set(companion.nodes)
    arcs = [tuple(a) for a in sorted(companion.arcs)]
    words = list(lang.words)

    if isinstance(op, ArcInsert):
        return NaiveLang(_ref_arc_insert(words, op.src, op.dst, nodes, arcs))
    if isinstance(op, ArcOmit):
        return NaiveLang(_ref_arc_omit(words, op.src, op.dst, arcs))
    if isinstance(op, NodeInsert):
        if op.node in nodes:
            raise OperationError("node already present")
        for v in (*op.outgoing, *op.ingoing):
            if v not in nodes:
                raise OperationError("unknown node")
        nodes.add(op.node)
        if (op.node,) not in words:
            words.append((op.node,))
        for x in op.outgoing:
            words = _ref_arc_insert(words, op.node, x, nodes, arcs)
        for y in op.ingoing:
            words = _ref_arc_insert(words, y, op.node, nodes, arcs)
        if op.outgoing or op.ingoing:
            words = [w for w in words if w != (op.node,)]
        return NaiveLang(words)
    if isinstance(op, NodeOmit):
        if op.node not in nodes:
            raise OperationError("unknown node")
        for x in sorted(b for a, b in arcs if a == op.node):
            words = _ref_arc_omit(words, op.node, x, arcs)
        for y in sorted(a for a, b in arcs if b == op.node):
            words = _ref_arc_omit(words, y, op.node, arcs)
        return NaiveLang([w for w in words if w != (op.node,)])
    raise TypeError(f"not a mutation operator: {op!r}")


# --------------------------------------------------------------------------
# independent path enumeration

def naive_enumerate(g: Dg) -> list[Word]:
    """Exhaustive start-to-finish walk over the raw arc pairs, scanning all
    of them at every step; depth-first, smallest successor first."""
    words: list[Word] = []
    arcs = sorted(g.arcs, reverse=True)
    # a stack of trails, not recursion, so long chains cannot exhaust the
    # interpreter's recursion limit; reversed order pops the smallest first
    stack = [(s,) for s in sorted(g.starts, reverse=True)]
    while stack:
        trail = stack.pop()
        if trail[-1] in g.finishes:
            words.append(trail)
        stack.extend(trail + (b,) for a, b in arcs if a == trail[-1])
    return words


@dataclass(frozen=True)
class CrossCheck:
    ok: bool
    expected: tuple[Word, ...]
    actual: tuple[Word, ...]
    missing: tuple[Word, ...]
    extra: tuple[Word, ...]


def cross_check_initial(g: Dg) -> CrossCheck:
    """Compare the model's path enumeration against the naive walk."""
    expected = naive_enumerate(g)
    actual = model_from_graph(g).re.terms
    missing = tuple(sorted(set(expected) - set(actual)))
    extra = tuple(sorted(set(actual) - set(expected)))
    return CrossCheck(ok=not missing and not extra,
                      expected=tuple(sorted(set(expected))),
                      actual=actual, missing=missing, extra=extra)


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


def _count_violations(entries) -> list[str]:
    problems: list[str] = []
    stack = list(entries)
    while stack:
        e = stack.pop()
        stack.extend(e.sub)
        if isinstance(e.op, ArcInsert):
            if e.terms_removed:
                problems.append(f"{e.notation}: insertion removed terms")
            if e.added_bound is not None and e.terms_added > e.added_bound:
                problems.append(
                    f"{e.notation}: added {e.terms_added} > bound {e.added_bound}")
        elif isinstance(e.op, ArcOmit):
            if e.removed_expected is not None and e.terms_removed != e.removed_expected:
                problems.append(
                    f"{e.notation}: removed {e.terms_removed} != {e.removed_expected}")
            if e.added_bound is not None and e.terms_added > e.added_bound:
                problems.append(
                    f"{e.notation}: added {e.terms_added} > bound {e.added_bound}")
    return problems


def _invariant_violations(st: ModelState) -> list[str]:
    problems: list[str] = []
    witness = validate_acyclic(st.dg)
    if witness is not None:
        problems.append(f"cyclic graph: {' -> '.join(witness)}")
    for term in st.re:
        if len(set(term)) != len(term):
            problems.append(f"repeated symbol in term {''.join(term)}")
    if not st.re.symbols() <= st.dg.nodes:
        problems.append("expression mentions undeclared nodes")
    if parse_graph(render_graph(st.dg)) != st.dg:
        problems.append("graph text round-trip diverged")
    if parse_sopf(print_sopf(st.re)) != st.re:
        problems.append("expression text round-trip diverged")
    return problems


def run_differential(trials: int = 200, base_seed: int = 0, max_nodes: int = 10,
                     max_script: int = 6, *, check_counts: bool = True,
                     check_invariants: bool = True,
                     corrupt: Callable[[int, int, SopfRe], SopfRe] | None = None,
                     ) -> VerifyReport:
    """Seeded random models and scripts, applied through the efficient
    implementation and the naive reference side by side; every step must
    agree.  ``corrupt`` is a test-only hook that perturbs the
    implementation's expression before comparison."""
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

        check = cross_check_initial(g)
        if not check.ok:
            fail(0, "equivalence", "initial enumeration mismatch")
            continue
        state = ModelState(g, SopfRe(check.actual))
        lang = NaiveLang(list(check.expected))
        if check_invariants and parse_script(script_text) != script:
            fail(0, "invariant", "script notation round-trip diverged")
        broken = False
        for step, op in enumerate(script, 1):
            companion = state.dg
            try:
                state, entry = apply_op(state, op)
                lang = ref_apply(lang, op, companion)
            except ModelError as exc:
                fail(step, "error", str(exc))
                broken = True
                break
            steps += 1
            shown = state.re
            if corrupt is not None:
                shown = corrupt(trial, step, shown)
            if not equivalent(shown, lang):
                fail(step, "equivalence",
                     f"implementation {print_sopf(shown)} vs reference "
                     f"{print_sopf(SopfRe(tuple(lang.words)))}")
                broken = True
                break
            if check_counts:
                for problem in _count_violations([entry]):
                    fail(step, "counts", problem)
            if check_invariants:
                for problem in _invariant_violations(state):
                    fail(step, "invariant", problem)
        if broken:
            continue
    return VerifyReport(trials=trials, steps_checked=steps, failures=tuple(failures))

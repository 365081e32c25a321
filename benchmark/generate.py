"""Seeded input generation for the dagmut benchmark.

Everything here is independent of the ``dagmut`` package: graphs are kept
as plain adjacency sets (:class:`Tracker`), scripts are written as text,
and the path enumerator and path counter used by the correctness checks
live here too.  The program under test only ever sees the ``.dg`` text and
the script text produced by this module.

Node names are multi-character (``n123``), so the expression side always
takes the dotted text path.
"""
from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass

# An operator as plain data:
#   ("i_a", src, dst)  ("o_a", src, dst)
#   ("i_n", node, outgoing, ingoing)  ("o_n", node)
Op = tuple


@dataclass(frozen=True)
class Model:
    """One generated input: a graph file and an always-valid script for it."""

    name: str
    dg_text: str
    script_text: str
    ops: tuple[Op, ...]


class Tracker:
    """Independent graph-side model with the package's sticky-flag rules.

    Arc insertion keeps flags; arc omission flags an endpoint left without
    outgoing (ingoing) arcs as finish (start); a new node is flagged both
    ways; node omission drops the node's arcs (outgoing first) and then the
    node and its flags.
    """

    def __init__(self, nodes, arcs, starts=None, finishes=None):
        self.succ: dict[str, set[str]] = {v: set() for v in nodes}
        self.pred: dict[str, set[str]] = {v: set() for v in nodes}
        for a, b in arcs:
            self.succ[a].add(b)
            self.pred[b].add(a)
        if starts is None:
            starts = {v for v in self.succ if not self.pred[v]}
        if finishes is None:
            finishes = {v for v in self.succ if not self.succ[v]}
        self.starts = set(starts)
        self.finishes = set(finishes)

    def copy(self) -> "Tracker":
        return Tracker(self.succ, self.arcs(), self.starts, self.finishes)

    def arcs(self) -> set[tuple[str, str]]:
        return {(a, b) for a, outs in self.succ.items() for b in outs}

    def snapshot(self):
        """Hashable (nodes, arcs, starts, finishes) for comparisons."""
        return (frozenset(self.succ), frozenset(self.arcs()),
                frozenset(self.starts), frozenset(self.finishes))

    # -- operators ---------------------------------------------------------

    def _omit_arc(self, a: str, b: str) -> None:
        self.succ[a].discard(b)
        self.pred[b].discard(a)
        for v in (a, b):
            if not self.succ[v]:
                self.finishes.add(v)
            if not self.pred[v]:
                self.starts.add(v)

    def apply(self, op: Op) -> None:
        kind = op[0]
        if kind == "i_a":
            _, a, b = op
            self.succ[a].add(b)
            self.pred[b].add(a)
        elif kind == "o_a":
            self._omit_arc(op[1], op[2])
        elif kind == "i_n":
            _, v, outgoing, ingoing = op
            self.succ[v], self.pred[v] = set(), set()
            self.starts.add(v)
            self.finishes.add(v)
            for w in outgoing:
                self.succ[v].add(w)
                self.pred[w].add(v)
            for u in ingoing:
                self.succ[u].add(v)
                self.pred[v].add(u)
        elif kind == "o_n":
            v = op[1]
            for w in sorted(self.succ[v]):
                self._omit_arc(v, w)
            for u in sorted(self.pred[v]):
                self._omit_arc(u, v)
            del self.succ[v], self.pred[v]
            self.starts.discard(v)
            self.finishes.discard(v)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    # -- queries -----------------------------------------------------------

    def topological(self) -> list[str]:
        """Kahn's order, smallest name first, so it does not depend on set
        iteration order (which varies with ``PYTHONHASHSEED``)."""
        indeg = {v: len(p) for v, p in self.pred.items()}
        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(indeg):
            raise ValueError("tracker graph is cyclic")
        return order

    def prefix_counts(self, order=None) -> dict[str, int]:
        """Start-to-``v`` path counts (Python ints, no overflow)."""
        counts = {}
        for v in order or self.topological():
            counts[v] = (v in self.starts) + sum(counts[u] for u in self.pred[v])
        return counts

    def suffix_counts(self, order=None) -> dict[str, int]:
        """``v``-to-finish path counts."""
        counts = {}
        for v in reversed(order or self.topological()):
            counts[v] = (v in self.finishes) + sum(counts[w] for w in self.succ[v])
        return counts

    def path_count(self) -> int:
        """Number of start-to-finish paths, by a topological DP."""
        pre = self.prefix_counts()
        return sum(pre[v] for v in self.finishes)

    def reaches(self, src: str, dst: str) -> bool:
        seen, stack = {src}, [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in self.succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def enumerate_paths(self) -> set[tuple[str, ...]]:
        """Every start-to-finish node sequence, by an iterative walk."""
        words = set()
        for s in self.starts:
            stack = [(s, (s,))]
            while stack:
                v, trail = stack.pop()
                if v in self.finishes:
                    words.add(trail)
                for w in self.succ[v]:
                    stack.append((w, trail + (w,)))
        return words


# --------------------------------------------------------------------------
# text

def dg_text(t: Tracker) -> str:
    """Graph file text.  Flags are left to the degree-rule default."""
    lines = [f"node {v}" for v in sorted(t.succ) if not t.succ[v] and not t.pred[v]]
    lines += [f"arc {a} {b}" for a, b in sorted(t.arcs())]
    return "".join(line + "\n" for line in lines)


def op_text(op: Op) -> str:
    kind = op[0]
    if kind in ("i_a", "o_a"):
        return f"({op[1]},{op[2]}){kind}"
    if kind == "o_n":
        return f"({op[1]})o_n"
    _, v, outgoing, ingoing = op
    pairs = [f"({v},{w})" for w in outgoing] + [f"({u},{v})" for u in ingoing]
    return f"({v},{{{','.join(pairs)}}})i_n"


def script_text(ops) -> str:
    return " ".join(op_text(op) for op in ops)


# --------------------------------------------------------------------------
# graph shapes

def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct multi-character names whose sort order is unrelated
    to the graph structure."""
    ids = list(range(count))
    rng.shuffle(ids)
    return [f"n{k}" for k in ids]


def sparse_graph(rng: random.Random, node_count: int) -> Tracker:
    """An out-branching tree (each node hangs under a uniformly chosen
    earlier node) plus about 5% extra merge arcs, all pointing forward in
    creation order so the graph stays acyclic."""
    names = _names(rng, node_count)
    arcs = set()
    for k in range(1, node_count):
        arcs.add((names[rng.randrange(k)], names[k]))
    # merge arcs: each multiplies the tree's paths through it only a little
    # (counts taken on the tree), as where a model joins nearby branches
    tree = Tracker(names, arcs)
    pre, suf = tree.prefix_counts(), tree.suffix_counts()
    target = len(arcs) + node_count // 20
    while len(arcs) < target:
        i, j = sorted(rng.sample(range(node_count), 2))
        a, b = names[i], names[j]
        if (a, b) not in arcs and pre[a] * suf[b] <= 4:
            arcs.add((a, b))
    return Tracker(names, arcs)


def dense_graph(rng: random.Random) -> Tracker:
    """A layered lattice of 20-30 nodes in 10-12 layers of width 1-3, with
    (almost) complete bipartite arcs between consecutive layers and a few
    skip arcs."""
    while True:
        depth = rng.randint(10, 12)
        widths = [rng.choice((1, 2, 2, 2, 3)) for _ in range(depth)]
        if 20 <= sum(widths) <= 30:
            break
    names = _names(rng, sum(widths))
    layers, k = [], 0
    for w in widths:
        layers.append(names[k:k + w])
        k += w
    arcs = set()
    for upper, lower in zip(layers, layers[1:]):
        pairs = [(a, b) for a in upper for b in lower]
        for a, b in pairs:
            if len(pairs) < 4 or rng.random() < 0.85:
                arcs.add((a, b))
        # every node keeps an arc into the next layer and out of the last
        for a in upper:
            if not any((a, b) in arcs for b in lower):
                arcs.add((a, rng.choice(lower)))
        for b in lower:
            if not any((a, b) in arcs for a in upper):
                arcs.add((rng.choice(upper), b))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(depth - 2)
        arcs.add((rng.choice(layers[i]), rng.choice(layers[i + 2])))
    return Tracker(names, arcs)


# --------------------------------------------------------------------------
# scripts

KINDS = ("i_a", "o_a", "i_n", "o_n")


def _candidate(rng: random.Random, t: Tracker, kind: str, fresh: str,
               pre: dict, suf: dict, order: list[str], max_new: int) -> Op | None:
    """One random valid operator of ``kind``; ``None`` if the draw failed.
    Insertions are restricted to ones adding at most ``max_new`` paths."""
    if kind == "i_a":
        a, b = rng.sample(order, 2)
        if b in t.succ[a] or pre[a] * suf[b] > max_new or t.reaches(b, a):
            return None
        return ("i_a", a, b)
    if kind == "o_a":
        arcs = sorted(t.arcs())
        return ("o_a", *rng.choice(arcs)) if arcs else None
    if kind == "o_n":
        return ("o_n", rng.choice(order))
    # node insertion: ingoing arcs from the left of a topological split,
    # outgoing arcs into its right, so no cycle can close
    pivot = rng.randint(1, len(order) - 1)
    left, right = order[:pivot], order[pivot:]
    ingoing = sorted(rng.sample(left, min(len(left), rng.randint(1, 2))))
    outgoing = sorted(rng.sample(right, min(len(right), rng.randint(1, 2))))
    added = (1 + sum(pre[u] for u in ingoing)) * (1 + sum(suf[w] for w in outgoing))
    if added > max_new:
        return None
    return ("i_n", fresh, tuple(outgoing), tuple(ingoing))


def make_script(rng: random.Random, t: Tracker, fresh_base: int,
                max_new: int, draws: int = 8) -> tuple[Op, ...]:
    """A script with one operator of each of the four kinds in a seeded
    order.  Each operator is valid where it is applied.  Of ``draws``
    valid candidates, the one leaving the path count closest (by ratio) to
    the graph's initial count is kept, so the term count stays in a band
    around it.  ``t`` is left unchanged."""
    target = t.path_count()
    t = t.copy()
    kinds = list(KINDS)
    rng.shuffle(kinds)
    ops = []
    for n, kind in enumerate(kinds):
        order = t.topological()
        pre, suf = t.prefix_counts(order), t.suffix_counts(order)
        best = None
        found = 0
        for _ in range(50 * draws):
            op = _candidate(rng, t, kind, f"n{fresh_base + n}", pre, suf, order, max_new)
            if op is None:
                continue
            trial = t.copy()
            trial.apply(op)
            count = max(trial.path_count(), 1)
            score = max(count / target, target / count)
            if best is None or score < best[0]:
                best = (score, op, trial)
            found += 1
            if found == draws:
                break
        if best is None:
            raise RuntimeError(f"no valid {kind} operator found")
        _, op, t = best
        ops.append(op)
    return tuple(ops)


# --------------------------------------------------------------------------
# workloads
#
# Both workloads draw a fixed ladder of model sizes, so every seed gives the
# same mix and only the structure varies; the ladders have an odd number of
# rungs so the median falls on one model rather than between two.

#: Sparse models: node counts spread geometrically over 500-2000 (median
#: 1000), which keeps 100 quadratic-time converts within a short run.
SPARSE_SIZES = tuple(round(500 * 4 ** (k / 24)) for k in range(25))
#: Dense models: path counts evenly spread over 1.5*10^3 to 4*10^3.
DENSE_TERMS = tuple(1500 + 2600 * k // 25 for k in range(26))
#: Random lattices drawn for the dense models; enough to fill every band for
#: nearly all seeds.
DENSE_DRAWS = 3000


def sparse_models(seed: int, sizes=SPARSE_SIZES) -> list[Model]:
    rng = random.Random(f"sparse:{seed}")
    models = []
    for k, size in enumerate(sizes):
        t = sparse_graph(rng, size)
        ops = make_script(rng, t, size, 8, draws=1)
        models.append(Model(f"sparse{k}", dg_text(t), script_text(ops), ops))
    return models


def dense_models(seed: int, bands=DENSE_TERMS) -> list[Model]:
    """One model per ``[bands[k], bands[k + 1])`` path-count band: of
    ``DENSE_DRAWS`` random lattices (more while a band is empty), the one whose
    path count is closest to the band's middle.  A fixed number of draws
    keeps generation time the same from seed to seed, and the closest pick
    keeps each band's path count nearly the same too."""
    rng = random.Random(f"dense:{seed}")
    best: list[tuple[int, Tracker] | None] = [None] * (len(bands) - 1)
    drawn = 0
    while drawn < DENSE_DRAWS or None in best:
        t = dense_graph(rng)
        drawn += 1
        count = t.path_count()
        k = bisect.bisect_right(bands, count) - 1
        if 0 <= k < len(best):
            off = abs(2 * count - bands[k] - bands[k + 1])
            if best[k] is None or off < best[k][0]:
                best[k] = (off, t)
    models = []
    for k, (_, t) in enumerate(best):
        ops = make_script(rng, t, 100, bands[-1])
        models.append(Model(f"dense{k}", dg_text(t), script_text(ops), ops))
    return models


def parse_dg_text(text: str) -> Tracker:
    """Read back :func:`dg_text` output (``node``/``arc`` lines only)."""
    nodes, arcs = set(), set()
    for line in text.splitlines():
        keyword, *args = line.split()
        if keyword == "node":
            nodes.add(args[0])
        else:
            arcs.add((args[0], args[1]))
            nodes.update(args)
    return Tracker(nodes, arcs)

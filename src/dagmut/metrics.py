"""Primitive-operation counting and empirical growth-rate validation.

Cost is machine-independent: the terms an operation searches, builds and
hashes, tallied into an explicit :class:`OpCounters` context threaded
through the term-set operations.  :func:`trend` runs an operation over
size-doubling corpora, fits the log-log slope and checks it against the
operation's worst-case bound exponent (in term-set size, with term length
held fixed) plus a fixed slack.  One table, ``_KINDS``, gives each bench
kind its bound exponent, its operation and its corpus builder.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import linear_regression
from typing import Callable, Sequence

from .graph import Dg
from .mutate import ModelState, apply_op, model_from_graph
from .ops import ArcInsert, ArcOmit, NodeInsert, NodeOmit
from .sopf import SopfRe, ht, pt, set_concat, set_difference, set_union, tt

#: Fitted exponents may exceed the bound by at most this much (small-size
#: noise allowance; corpora are average-case while bounds are worst-case).
SLACK = 0.3

#: Largest term-set size :func:`trend` accepts: ``set_concat`` builds
#: size**2 terms, about a million and a peak of about 300 MB at this size.
MAX_TREND_SIZE = 1024


@dataclass
class OpCounters:
    """Monotone tallies of the primitive work done by term-set operations.

    Each field counts terms, one per term a pass handles:

    - ``symbol_comparisons``: terms read by a search pass (``in``,
      ``str.find``, ``str.index``, ``str.rindex``), one per term visited.
      A pass that may stop at its first hit (``any``, a tuple ``in`` or
      ``index``) counts every term it is given.  The graph walk that
      spells an operator's fragments (``graph._spell_from``) counts each
      node it enters as one item searched; in table mode, which it enters
      once it has entered more nodes than the graph has, an entry that
      splices in a node's table counts once, and the nodes below it none.
      So does
      the count kernel (``graph._count_from``) that gives node
      omission's arc steps their counts: an entry of a node already
      counted counts once, and goes no deeper.
    - ``term_copies``: new terms built: each fragment cut or spelled by
      the graph walk (a word spliced in from a table counts as built,
      not visited; the table's own words are not counted) and each
      product joined, before deduplication, and each term appended bare.
    - ``set_lookups``: terms hashed by ``dict.fromkeys``, ``set(...)`` or a
      set probe.
    """

    symbol_comparisons: int = 0
    term_copies: int = 0
    set_lookups: int = 0

    def cost(self) -> int:
        return self.symbol_comparisons + self.term_copies + self.set_lookups


@dataclass(frozen=True)
class TrendReport:
    op_kind: str
    series: tuple[tuple[int, int], ...]
    fitted_exponent: float
    bound_exponent: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


# --------------------------------------------------------------------------
# corpora

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
#: length of the random terms of the term-set operations' corpora
_TERM_LEN = 6


def _random_re(rng: random.Random, count: int,
               plant: str | None = None, every: int = 1) -> SopfRe:
    """``count`` distinct random terms of length ``_TERM_LEN``; ``plant``
    puts a marker symbol into every ``every``-th term."""
    terms: set[tuple[str, ...]] = set()
    k = 0
    while len(terms) < count:
        term = tuple(rng.choice(_ALPHABET) for _ in range(_TERM_LEN))
        if plant is not None and k % every == 0:
            pos = rng.randrange(_TERM_LEN)
            term = term[:pos] + (plant,) + term[pos + 1:]
        k += 1
        terms.add(term)
    return SopfRe(tuple(terms))


def _layered_state(width: int) -> ModelState:
    """Entry -> one of ``width`` middles -> exit: exactly ``width`` terms,
    all of length 3, so term-set size scales while term length stays put."""
    entry, exit_ = "in0", "out0"
    mids = [f"m{k}" for k in range(width)]
    nodes = frozenset([entry, exit_, *mids])
    arcs = frozenset([(entry, m) for m in mids] + [(m, exit_) for m in mids])
    return model_from_graph(Dg(nodes, arcs, frozenset([entry]), frozenset([exit_])))


def _random_pair(size: int, rng: random.Random) -> tuple[SopfRe, SopfRe]:
    return (_random_re(rng, size), _random_re(rng, size))


def _planted(every: int) -> Callable:
    """Random terms, every ``every``-th holding ``q``, and the selection ``q``."""
    return lambda size, rng: (_random_re(rng, size, plant="q", every=every), ("q",))


def _layered(*args) -> Callable:
    """A layered state of the series size, then ``args``."""
    return lambda size, rng: (_layered_state(size), *args)


def _state_only(operator: Callable) -> Callable:
    """``operator`` returning its state without the log entry."""
    return lambda *inputs: operator(*inputs)[0]


#: The bench kinds: each kind's worst-case growth exponent in term-set size
#: at fixed term length, its operation (counters passed last) and its
#: corpus builder (series size, seeded rng).  Selectors and operators are
#: bounded quadratically, as a term-side operator deduplicating its
#: fragments pairwise is (the operators spell theirs from the graph and
#: hash no term); set concatenation with pairwise filtering quartically.
_KINDS: dict[str, tuple[float, Callable, Callable]] = {
    "set_union": (2.0, set_union, _random_pair),
    "set_difference": (2.0, set_difference, _random_pair),
    "set_concat": (4.0, set_concat, _random_pair),
    "pt": (2.0, pt, _planted(2)),
    "ht": (2.0, ht, _planted(1)),
    "tt": (2.0, tt, _planted(1)),
    "arc_insert": (2.0, _state_only(apply_op), _layered(ArcInsert("in0", "out0"))),
    "arc_omit": (2.0, _state_only(apply_op), _layered(ArcOmit("m0", "out0"))),
    "node_insert": (2.0, _state_only(apply_op), _layered(NodeInsert("v0", ("out0",), ("in0",)))),
    "node_omit": (2.0, _state_only(apply_op), _layered(NodeOmit("m0"))),
}

#: Worst-case growth exponent of each bench kind (see ``_KINDS``).
BOUND_EXPONENTS: dict[str, float] = {kind: bound for kind, (bound, _, _) in _KINDS.items()}


def fit_exponent(series: Sequence[tuple[int, int]]) -> float:
    """Least-squares slope of log(cost) against log(size)."""
    if len(series) < 4:
        raise ValueError("need at least 4 series points for a trend fit")
    if any(cost <= 0 for _, cost in series):
        raise ValueError("degenerate series: zero cost")
    if len({size for size, _ in series}) < 2:
        raise ValueError("degenerate series: all sizes equal")
    slope, _ = linear_regression([math.log(s) for s, _ in series],
                                 [math.log(c) for _, c in series])
    return slope


def trend(kind: str, sizes: Sequence[int], *, seed: int = 0) -> TrendReport:
    """Measure ``kind`` over corpora of the given term-set sizes and fit
    the log-log growth exponent by least squares."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 4:
        raise ValueError("need at least 4 series points for a trend fit")
    for size in sizes:
        if not 2 <= size <= MAX_TREND_SIZE:
            raise ValueError(f"series sizes must be in 2..{MAX_TREND_SIZE}, got {size}")
    try:
        bound_exponent, operation, corpus = _KINDS[kind]
    except KeyError:
        raise ValueError(f"no bound exponent known for {kind!r}") from None
    series = []
    for index, size in enumerate(sizes):
        rng = random.Random(seed * 7919 + index * 104729 + size)
        counters = OpCounters()
        operation(*corpus(size, rng), counters)
        series.append((size, counters.cost()))
    slope = fit_exponent(series)
    return TrendReport(op_kind=kind, series=tuple(series),
                       fitted_exponent=slope,
                       bound_exponent=bound_exponent,
                       passed=slope <= bound_exponent + SLACK)

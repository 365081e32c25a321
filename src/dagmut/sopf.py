"""Sum-of-products term algebra for star-free regular expressions.

A product term is a nonempty tuple of symbols.  A :class:`SopfRe` is a
duplicate-free set of product terms; equality is set equality, which is
language equality.  Canonical order (shortest first, then lexicographic by
symbol sequence) is computed once, on the first read of
:attr:`SopfRe.terms` (printing, iteration, :func:`sets_equal`); the
selectors and set operations work on the terms in the order they were
built and never sort.

Every operation optionally threads an :class:`~dagmut.metrics.OpCounters`
instance through which it tallies symbol comparisons, term copies and set
lookups; passing ``None`` (the default) skips all accounting.

The counts follow a per-position scan model.  A pattern search compares
the pattern's first symbol at every position up to its match (to the end
of the term for a last occurrence or a miss), and its second symbol after
every hit of the first.  A set probe compares every symbol of the probed
term.  Every term written into a result is one copy.  The operations do
not run that scan: their per-term work runs in C builtins
(``tuple.index``, ``dict.fromkeys``, set filtering) and the counts are
computed in closed form, so counted and uncounted runs take the same path
and the totals equal those of the per-position scan.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import compress, filterfalse, repeat
from operator import contains
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ParseError

if TYPE_CHECKING:
    from .metrics import OpCounters

Term = tuple[str, ...]

#: Characters that may never appear inside a symbol id, on top of whitespace.
RESERVED_CHARS = frozenset("(){},+.#")

#: Spelling of the empty expression in textual form; not a legal symbol id.
EMPTY_TOKEN = "EMPTY"


def validate_symbol(sym: str) -> str:
    """Check that ``sym`` is a legal symbol id and return it unchanged."""
    if not isinstance(sym, str) or not sym:
        raise ValueError("symbol must be a nonempty string")
    if sym == EMPTY_TOKEN:
        raise ValueError(f"{EMPTY_TOKEN!r} is reserved for the empty expression")
    for ch in sym:
        if ch.isspace() or ch in RESERVED_CHARS:
            raise ValueError(f"symbol {sym!r} contains reserved character {ch!r}")
    return sym


def term_key(term: Term) -> tuple[int, Term]:
    return (len(term), term)


def _canonical_order(terms: tuple[Term, ...]) -> tuple[Term, ...]:
    # a lexicographic sort, then a stable sort by length: the order of
    # term_key without a Python-level key call per term
    return tuple(sorted(sorted(terms), key=len))


class SopfRe:
    """A duplicate-free set of product terms (possibly empty).

    Construction drops repeated terms and keeps the rest in the order
    given.  The first read of :attr:`terms` sorts them into canonical order
    and stores the sorted tuple in place of the unsorted one.  ``==`` and
    ``hash`` are those of the term set, so they never sort.  Code in this
    package that needs no order reads ``_terms``, which holds the terms in
    whichever of the two orders they are in.
    """

    __slots__ = ("_terms", "_canonical")

    def __init__(self, terms: Iterable[Sequence[str]] = ()):
        unique = dict.fromkeys(map(tuple, terms))
        if () in unique:
            raise ValueError("product terms must be nonempty")
        object.__setattr__(self, "_terms", tuple(unique))
        object.__setattr__(self, "_canonical", len(unique) < 2)

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms in canonical order: shortest first, then lexicographic."""
        if not self._canonical:
            object.__setattr__(self, "_terms", _canonical_order(self._terms))
            object.__setattr__(self, "_canonical", True)
        return self._terms

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy through the constructor; the fields are read-only
        return SopfRe, (self._terms,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SopfRe):
            return NotImplemented
        # both sides are duplicate-free, so equal sizes and one inclusion
        # make equal sets
        return len(self._terms) == len(other._terms) and set(self._terms).issuperset(other._terms)

    def __hash__(self) -> int:
        return hash(frozenset(self._terms))

    def __repr__(self) -> str:
        return f"SopfRe(terms={self.terms!r})"

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term) -> bool:
        return tuple(term) in self._terms

    def symbols(self) -> frozenset[str]:
        return frozenset().union(*self._terms)


# --------------------------------------------------------------------------
# counter plumbing

def _count_scan(counters: "OpCounters | None", n: int) -> None:
    if counters is not None:
        counters.symbol_comparisons += n


def _count_probes(counters: "OpCounters | None", terms: Sequence[Term]) -> None:
    # a set membership probe hashes/compares the whole term
    if counters is not None:
        counters.set_lookups += len(terms)
        counters.symbol_comparisons += sum(map(len, terms))


def _count_copies(counters: "OpCounters | None", n: int) -> None:
    if counters is not None:
        counters.term_copies += n


# --------------------------------------------------------------------------
# selectors

def check_pattern(pattern: Sequence[str]) -> Term:
    """Coerce and validate a search pattern of one or two symbols."""
    pat = tuple(pattern)
    if not 1 <= len(pat) <= 2:
        raise ValueError("patterns are limited to one or two symbols")
    return pat


def _find(term: Term, pattern: Term, counters: "OpCounters | None",
          *, last: bool = False) -> int | None:
    """Index of the first (or last) occurrence of ``pattern`` in ``term``.

    Only the occurrences of ``pattern[0]`` are visited (``tuple.index``);
    the comparison count is the scan model's, in closed form.
    """
    p0 = pattern[0]
    two = len(pattern) == 2
    stop = len(term) - len(pattern) + 1      # positions a match may start at
    hits = term.count(p0)                    # occurrences of p0 among them
    if two and term[-1] == p0:
        hits -= 1
    found = None
    k = -1
    for seen in range(1, hits + 1):
        k = term.index(p0, k + 1)
        if two and term[k + 1] != pattern[1]:
            continue
        found = k
        if not last:
            if counters is not None:
                counters.symbol_comparisons += k + 1 + (seen if two else 0)
            return k
    if counters is not None:
        counters.symbol_comparisons += max(stop, 0) + (hits if two else 0)
    return found


def _cut_points(terms: Sequence[Term], pattern: Term, counters: "OpCounters | None",
                *, last: bool) -> list[int]:
    """Index of the first (or last) occurrence of ``pattern`` in each term;
    every term must contain it."""
    p0 = pattern[0]
    if len(pattern) == 1 and all(map(contains, terms, repeat(p0))):
        if last:
            ks = [len(t) - 1 - t[::-1].index(p0) for t in terms]
        else:
            ks = list(map(tuple.index, terms, repeat(p0)))
        if counters is not None:
            # a last occurrence is scanned to the end, a first one up to itself
            counters.symbol_comparisons += sum(map(len, terms)) if last else sum(ks) + len(ks)
        return ks
    ks = [_find(t, pattern, counters, last=last) for t in terms]
    if None in ks:
        # name the canonically first term without the pattern
        term = min((t for t, k in zip(terms, ks) if k is None), key=term_key)
        raise ValueError(f"term {''.join(term)!r} does not contain the pattern")
    return ks


def pt(r: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Terms of ``r`` containing ``pattern`` as a contiguous symbol run."""
    pat = check_pattern(pattern)
    p0 = pat[0]
    terms = r._terms
    # a term without the first symbol cannot match; only the others are searched
    held = list(compress(terms, map(contains, terms, repeat(p0))))
    if len(pat) == 1:
        picked = held
    else:
        picked = [t for t in held if _find(t, pat, counters) is not None]
    if counters is not None:
        # every position of a skipped term is scanned; a single symbol is
        # found at its first occurrence
        skipped = len(terms) - len(held)
        counters.symbol_comparisons += (sum(map(len, terms)) - sum(map(len, held))
                                        - (len(pat) - 1) * skipped)
        if len(pat) == 1:
            counters.symbol_comparisons += sum(map(tuple.index, held, repeat(p0))) + len(held)
        counters.term_copies += len(picked)
    return SopfRe(tuple(picked))


def ht(p: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Prefixes of the terms of ``p``, each cut just after the first occurrence
    of ``pattern``.  Every term of ``p`` must contain the pattern."""
    pat = check_pattern(pattern)
    ends = _cut_points(p._terms, pat, counters, last=False)
    heads = [t[:k + len(pat)] for t, k in zip(p._terms, ends)]
    _count_copies(counters, len(heads))
    _count_probes(counters, heads)
    return SopfRe(tuple(heads))


def tt(p: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Suffixes of the terms of ``p``, each starting at the last occurrence
    of ``pattern``.  Every term of ``p`` must contain the pattern."""
    pat = check_pattern(pattern)
    starts = _cut_points(p._terms, pat, counters, last=True)
    tails = [t[k:] for t, k in zip(p._terms, starts)]
    _count_copies(counters, len(tails))
    _count_probes(counters, tails)
    return SopfRe(tuple(tails))


# --------------------------------------------------------------------------
# set operations

def set_union(a: SopfRe, b: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    merged = SopfRe(a._terms + b._terms)
    _count_probes(counters, a._terms)
    _count_probes(counters, b._terms)
    _count_copies(counters, len(merged))
    return merged


def set_difference(r: SopfRe, c: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    drop = set(c._terms)
    kept = tuple(filterfalse(drop.__contains__, r._terms))
    _count_probes(counters, c._terms)
    _count_probes(counters, r._terms)
    _count_copies(counters, len(kept))
    return SopfRe(kept)


def set_concat(a: SopfRe, b: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    """All pairwise concatenations; duplicates collapse at insertion."""
    joined = [x + y for x in a._terms for y in b._terms]
    _count_copies(counters, len(joined))
    _count_probes(counters, joined)
    return SopfRe(tuple(joined))


def add_term(r: SopfRe, term: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    t = tuple(term)
    if not t:
        raise ValueError("product terms must be nonempty")
    _count_probes(counters, (t,))
    if t in r._terms:
        return r
    _count_copies(counters, 1)
    return SopfRe(r._terms + (t,))


def remove_term(r: SopfRe, term: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    t = tuple(term)
    _count_probes(counters, (t,))
    if t not in r._terms:
        return r
    return SopfRe(filterfalse(t.__eq__, r._terms))


def sets_equal(a: SopfRe, b: SopfRe, counters: "OpCounters | None" = None) -> bool:
    """Set equality, counted as a walk over both term sets in canonical
    order that stops at the first mismatch."""
    if len(a) != len(b):
        return False
    for x, y in zip(a.terms, b.terms):
        _count_scan(counters, min(len(x), len(y)))
        if x != y:
            return False
    return True


# --------------------------------------------------------------------------
# textual form
#
# Compact form spells a term by concatenating single-character symbols;
# dotted form joins symbols with ".".  A dot anywhere in the input switches
# the whole expression to dotted reading.  Note the inherent ambiguity of
# the compact spelling: a dot-free multi-character token is always read as
# single-character symbols, so an expression whose every term is one
# multi-character symbol does not survive a text round-trip unless the
# reader passes ``dotted=True``.

def parse_sopf(text: str, *, dotted: bool | None = None) -> SopfRe:
    """Parse the textual sum-of-products form.

    ``dotted`` forces the term reading; ``None`` auto-detects (dotted iff a
    "." occurs anywhere in the input).
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty expression text")
    if stripped == EMPTY_TOKEN:
        return SopfRe()
    if dotted is None:
        dotted = "." in stripped
    terms = []
    for chunk in stripped.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty product term")
        parts = chunk.split(".") if dotted else list(chunk)
        try:
            terms.append(tuple(validate_symbol(p) for p in parts))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return SopfRe(tuple(terms))


def print_sopf(r: SopfRe, *, dotted: bool = False) -> str:
    """Render in canonical order; the empty expression prints as ``EMPTY``."""
    if not r.terms:
        return EMPTY_TOKEN
    use_dots = dotted or max(map(len, r.symbols())) > 1
    sep = "." if use_dots else ""
    return " + ".join(sep.join(term) for term in r.terms)

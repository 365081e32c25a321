"""Sum-of-products term algebra for star-free regular expressions.

A product term is a nonempty tuple of symbols.  A :class:`SopfRe` is a
duplicate-free set of product terms; equality is set equality, which is
language equality.  Canonical order (shortest first, then lexicographic by
symbol sequence) is computed at most once, on the first read of
:attr:`SopfRe.terms` (printing, iteration); the selectors and set
operations work on the terms in the order they were built and never sort.
:func:`dagmut.graph.enumerate_paths` builds its result already in
canonical order, so a converted graph is never sorted.

The public constructor drops repeated terms, which hashes every term it is
given.  Results that are duplicate-free by construction skip that step
through the private :func:`_trusted`: the filters :func:`pt`,
:func:`set_difference` and :func:`remove_term` (and :func:`_remove_at`,
which drops a term at a known position), :func:`add_term` (after its one
probe) and :func:`dagmut.graph.enumerate_paths` (distinct trails).
Unions go through one private helper, :func:`_extend`, which adds terms
to an expression and checks them only against the terms they can equal,
which the caller names: :func:`set_union` names the whole first operand,
arc insertion only the terms that hold the arc's source.

The mutation operators call no :func:`set_difference`.  Omission splits
an expression once into the terms that hold a symbol and the others
(:func:`_split`), keeps the others whole and filters only the first, so
it never probes the terms it keeps; its fragments can equal no kept term
and are appended unchecked.

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
from operator import contains, eq, is_not, itemgetter, not_
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
    if sym.isidentifier():
        return sym  # letters, digits and underscores: nothing reserved
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
    and stores the sorted tuple in place of the unsorted one, unless they
    were built in that order (:func:`dagmut.graph.enumerate_paths`).
    ``==`` and ``hash`` are those of the term set, so they never sort.
    Code in this package that needs no order reads ``_terms``, which holds
    the terms in whichever of the two orders they are in.
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


def _trusted(terms: tuple[Term, ...], *, canonical: bool = False) -> SopfRe:
    """A :class:`SopfRe` over ``terms`` without the constructor's checks.

    The caller guarantees a tuple of distinct nonempty tuples: a filter of
    one expression's terms, or terms it built distinct.  ``canonical``
    says that they are already in canonical order, so no read sorts them.
    """
    r = object.__new__(SopfRe)
    object.__setattr__(r, "_terms", terms)
    object.__setattr__(r, "_canonical", canonical or len(terms) < 2)
    return r


# --------------------------------------------------------------------------
# counter plumbing

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


def _find(terms: Sequence[Term], pattern: Term, counters: "OpCounters | None",
          *, last: bool = False) -> list[int | None]:
    """Index of the first (or last) occurrence of ``pattern`` in each term,
    ``None`` where it is missing.

    Only the occurrences of ``pattern[0]`` are visited (``tuple.index``).
    A search for the first occurrence stops there when it matches; the
    occurrences are counted only when it misses, and looped over only when
    the symbol repeats.  The comparison count is the scan model's, in
    closed form.
    """
    p0 = pattern[0]
    p1 = pattern[-1]
    w = len(pattern) - 1            # 1 if a second symbol is checked
    ks: list[int | None] = []
    cost = 0
    for t in terms:
        n = len(t)
        k = -1
        seen = 0                    # occurrences of p0 visited so far
        if not last:
            try:
                k = t.index(p0)
                seen = 1
            except ValueError:      # no p0: only on ht's and tt's error path
                pass
            else:
                if not w or (k + 1 < n and t[k + 1] == p1):
                    ks.append(k)
                    cost += k + 1 + w
                    continue
        hits = t.count(p0) - (w and t[-1] == p0)    # where a match may start
        found = None
        while seen < hits:
            seen += 1
            k = t.index(p0, k + 1)
            if not w or t[k + 1] == p1:
                found = k
                if not last:
                    break
        ks.append(found)
        if found is None or last:
            # every start position, and the second symbol after each hit
            cost += n - w + w * hits
        else:
            cost += found + 1 + w * seen
    if counters is not None:
        counters.symbol_comparisons += cost
    return ks


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
    ks = _find(terms, pattern, counters, last=last)
    if None in ks:
        # name the canonically first term without the pattern
        term = min((t for t, k in zip(terms, ks) if k is None), key=term_key)
        raise ValueError(f"term {''.join(term)!r} does not contain the pattern")
    return ks


def _select(r: SopfRe, held: tuple[Term, ...], pattern: Term,
            counters: "OpCounters | None") -> SopfRe:
    """``pt(r, pattern)``, given ``held``: the terms of ``r`` that hold
    ``pattern[0]``, in ``r``'s order.  Counted as :func:`pt`'s scan of all
    of ``r``.

    A pair is searched for only in the terms that also hold its second
    symbol; the others are counted as scanned to their end.
    """
    if len(pattern) == 1:
        picked = held
    else:
        both = tuple(compress(held, map(contains, held, repeat(pattern[1]))))
        picked = tuple(compress(both, map(is_not, _find(both, pattern, counters),
                                          repeat(None))))
    if counters is not None:
        _count_select(r._terms, held, pattern, len(picked), counters)
    return _trusted(picked)


def _count_select(terms: Sequence[Term], held: Sequence[Term], pattern: Term,
                  picked: int, counters: "OpCounters") -> None:
    """Count :func:`pt`'s scan of ``terms`` for ``pattern``, given ``held``,
    the terms that hold ``pattern[0]``, and the number of matches: all of
    it but the pair search in the terms that hold both symbols, which
    :func:`_find` counts."""
    # every position of a skipped term is scanned; a single symbol is
    # found at its first occurrence
    skipped = len(terms) - len(held)
    counters.symbol_comparisons += (sum(map(len, terms)) - sum(map(len, held))
                                    - (len(pattern) - 1) * skipped)
    if len(pattern) == 1:
        counters.symbol_comparisons += (sum(map(tuple.index, held, repeat(pattern[0])))
                                        + len(held))
    else:
        # a term without the second symbol is a miss: every start
        # position, and the second symbol after each hit of the first
        # (_find's count)
        p0, p1 = pattern
        rest = tuple(compress(held, map(not_, map(contains, held, repeat(p1)))))
        counters.symbol_comparisons += (
            sum(map(len, rest)) - len(rest)
            + sum(map(tuple.count, rest, repeat(p0)))
            - sum(map(eq, map(itemgetter(-1), rest), repeat(p0))))
    counters.term_copies += picked


def _split(terms: tuple[Term, ...], sym: str) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The terms that hold ``sym`` and the others, each in ``terms``' order:
    :func:`pt`'s one-symbol selection and its complement, from one scan."""
    holds = list(map(contains, terms, repeat(sym)))
    return tuple(compress(terms, holds)), tuple(compress(terms, map(not_, holds)))


def pt(r: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Terms of ``r`` containing ``pattern`` as a contiguous symbol run."""
    pat = check_pattern(pattern)
    terms = r._terms
    # a term without the first symbol cannot match; only the others are searched
    held = tuple(compress(terms, map(contains, terms, repeat(pat[0]))))
    return _select(r, held, pat, counters)


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
    return _extend(a, b, a._terms, counters)


def _extend(r: SopfRe, extra: SopfRe, candidates: Sequence[Term],
            counters: "OpCounters | None" = None) -> SopfRe:
    """The union of ``r`` and ``extra``, hashing only ``extra`` and
    ``candidates``: ``r``'s terms, then those of ``extra`` not among them.

    ``candidates`` are the terms of ``r`` that may equal a term of
    ``extra``; the caller guarantees that no other term of ``r`` does
    (:func:`set_union` names all of ``r``).  The counts are the union's: a
    probe of every term of both sets.
    """
    fresh = extra._terms
    if fresh and candidates:
        fresh = tuple(filterfalse(set(candidates).__contains__, fresh))
    _count_probes(counters, r._terms)
    _count_probes(counters, extra._terms)
    _count_copies(counters, len(r) + len(fresh))
    return _trusted(r._terms + fresh) if fresh else r


def set_difference(r: SopfRe, c: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    drop = set(c._terms)
    kept = tuple(filterfalse(drop.__contains__, r._terms))
    _count_probes(counters, c._terms)
    _count_probes(counters, r._terms)
    _count_copies(counters, len(kept))
    return _trusted(kept)


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
    return _trusted(r._terms + (t,))


def remove_term(r: SopfRe, term: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    t = tuple(term)
    _count_probes(counters, (t,))
    if t not in r._terms:
        return r
    return _trusted(tuple(filterfalse(t.__eq__, r._terms)))


def _remove_at(r: SopfRe, k: int, counters: "OpCounters | None" = None) -> SopfRe:
    """``remove_term(r, term)`` for a term known to sit at position ``k``
    of ``r._terms``: no scan, the same counts."""
    terms = r._terms
    _count_probes(counters, (terms[k],))
    return _trusted(terms[:k] + terms[k + 1:])


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
    return " + ".join(map(sep.join, r.terms))

"""Sum-of-products term algebra for star-free regular expressions.

A product term is a nonempty sequence of symbols.  A :class:`SopfRe` is a
duplicate-free set of product terms; equality is set equality, which is
language equality.  Canonical order (shortest first, then lexicographic by
symbol sequence) is computed at most once, on the first read of
:attr:`SopfRe.terms` (printing, iteration); the selectors and set
operations work on the terms in the order they were built and never sort.
:func:`dagmut.graph.enumerate_paths` builds its result already in
canonical order, so a converted graph is never sorted.

Terms are stored as strings with one code point per symbol.  A
process-wide, append-only alphabet gives each symbol its code the first
time a term is built from it or an operator names it: an ASCII
character that is a legal symbol is its own code point, every other
symbol gets the next free one from U+0100 upwards (surrogates skipped).
Only legal symbols get a code: a term with an illegal one is refused
before any of its symbols is registered.  So a symbol search is
``str.__contains__``, a cut is ``str.index`` or ``str.rindex``, and a
two-symbol pattern is a two-code-point substring; all of them are exact
whether or not a term repeats a symbol.  The public API takes and
returns tuples of symbol names: :class:`SopfRe`'s constructor,
:attr:`~SopfRe.terms`, iteration, ``in``, :meth:`~SopfRe.symbols`,
pickling and the text form.  Canonical
order is that of the names, not of the codes; the two agree when every
symbol is ASCII, and only then is a term sorted as its string.  Otherwise
the sort decodes each term once, and the first read that sorts returns
those decoded terms.

The public constructor drops repeated terms, which hashes every term it is
given.  Results that are duplicate-free by construction skip that step
through the private :func:`_trusted`: the filters :func:`pt` and
:func:`set_difference` and :func:`dagmut.graph.enumerate_paths`
(distinct trails).
:func:`set_union` hashes its two operands and appends the new terms of
the second.  The mutation operators call none of those operations: on a
model every term they add is new by construction (see
:mod:`dagmut.mutate`).

:func:`ht` and :func:`tt` cut their fragments in one pass, one
``str.index`` (``str.rindex``) of the cut pattern per term, and turn the
``ValueError`` of a term without the pattern into one that names it.
Every fragment holds the cut pattern, so none is empty and the fragments
are deduplicated into :func:`_trusted`.  The mutation operators cut no
term: they spell their fragments from the graph
(:func:`dagmut.graph._spell_from`), in the same codes.  Node omission
keeps the terms without its node, one ``in`` per term, and counts what
each of its arc steps drops on the graph
(:func:`dagmut.graph._count_from`) instead of searching a term again.

A query (``in``, :func:`pt`, :func:`ht`, :func:`tt`) gives no symbol a
code: it looks each one up, and one the alphabet has never seen stands
for ``_UNHELD``, a surrogate code point that the alphabet never hands out
and so no term holds.

Every operation optionally threads an :class:`~dagmut.metrics.OpCounters`
instance through which it tallies the work it does: the terms it hands
to a search (one ``in`` or cut each), the terms it builds and the terms
it hashes (see :class:`~dagmut.metrics.OpCounters`).  Each tally is the
length of a sequence the operation already holds; passing ``None`` (the
default) skips all accounting.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import filterfalse, repeat
from threading import Lock
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import ModelError, ParseError

if TYPE_CHECKING:
    from .metrics import OpCounters

#: A term as the public API spells it: a tuple of symbol names.
Term = tuple[str, ...]
#: A term as it is stored: one code point per symbol.
Code = str

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


# --------------------------------------------------------------------------
# the alphabet

#: the symbols that are their own code points: every ASCII character that
#: is a legal symbol
_OWN_CODES = frozenset(ch for ch in map(chr, range(128))
                       if not (ch.isspace() or ch in RESERVED_CHARS))
#: symbol -> code point
_CODES: dict[str, str] = dict(zip(_OWN_CODES, _OWN_CODES))
#: code point -> symbol, the inverse of ``_CODES``
_NAMES: dict[str, str] = dict(_CODES)
#: the code point the next new symbol gets
_next_code = 0x100
_SURROGATES = range(0xD800, 0xE000)
#: held while a symbol is handed its code, so that two threads meeting a
#: new symbol at once give it one code
_REGISTERING = Lock()
#: the code of a symbol that a query names and the alphabet has not seen:
#: a surrogate, which the alphabet never hands out, so no term holds it
_UNHELD = chr(_SURROGATES.start)


def _code(sym: str) -> Code:
    """The code point of ``sym``, handing out the next free one to a
    symbol not seen before."""
    global _next_code
    code = _CODES.get(sym)
    if code is None:
        with _REGISTERING:
            code = _CODES.get(sym)
            if code is None:
                n = _next_code
                if n in _SURROGATES:
                    n = _SURROGATES.stop
                if n > 0x10FFFF:
                    raise ModelError(f"alphabet full: no code point left for symbol {sym!r}")
                # decodable before any reader can find it
                code = chr(n)
                _NAMES[code] = sym
                _CODES[sym] = code
                _next_code = n + 1
    return code


def _codes(symbols: Iterable[str]) -> Mapping[str, Code]:
    """The symbol -> code map of the alphabet, once each of ``symbols``
    has a code."""
    for sym in filterfalse(_CODES.__contains__, symbols):
        _code(sym)
    return _CODES


def _encode(term: Sequence[str]) -> Code:
    """The code string of a term given as a sequence of symbols.  Raises
    ``ValueError``, giving no symbol a code, if a symbol is not legal."""
    if not isinstance(term, (tuple, list, str)):
        term = tuple(term)
    try:
        code = "".join(term)
    except TypeError:  # a symbol that is not a string
        code = ""
    # every symbol one legal ASCII character: each is its own code
    if len(code) == len(term) and code.isascii() and _OWN_CODES.issuperset(code):
        return code
    # every symbol with a code is legal
    for sym in filterfalse(_CODES.__contains__, term):
        validate_symbol(sym)
    return "".join(map(_code, term))


def _lookup(term: Iterable[str]) -> Code:
    """The code string of a term or pattern that a query names, giving no
    symbol a code: one the alphabet has not seen is ``_UNHELD``."""
    return "".join(map(_CODES.get, term, repeat(_UNHELD)))


def _decode(code: Code) -> Term:
    """The symbols of a code string."""
    return tuple(code) if code.isascii() else tuple(map(_NAMES.__getitem__, code))


def _decode_all(codes: tuple[Code, ...]) -> tuple[Term, ...]:
    """The symbols of each code string, in order."""
    # every code ASCII: each character is its own symbol
    return tuple(map(tuple if all(map(str.isascii, codes)) else _decode, codes))


def _canonical_order(terms: tuple[Code, ...]) -> tuple[tuple[Code, ...], tuple[Term, ...] | None]:
    """``terms`` in canonical order, and their symbols in that order when
    the sort had to decode them (``None`` if it did not)."""
    if all(map(str.isascii, terms)):
        # a lexicographic sort, then a stable sort by length: canonical
        # order without a Python-level key call per term, when every code
        # is its symbol
        return tuple(sorted(sorted(terms), key=len)), None
    # each term decoded once, for the sort and for the result: positions
    # sorted by decoded term, then stably by length
    names = list(map(_decode, terms))
    order = sorted(range(len(terms)), key=names.__getitem__)
    order.sort(key=list(map(len, terms)).__getitem__)
    return tuple(map(terms.__getitem__, order)), tuple(map(names.__getitem__, order))


class SopfRe:
    """A duplicate-free set of product terms (possibly empty).

    Construction drops repeated terms and keeps the rest in the order
    given.  The first read of :attr:`terms` sorts them into canonical order
    and stores the sorted tuple in place of the unsorted one, unless they
    were built in that order (:func:`dagmut.graph.enumerate_paths`).
    ``==`` and ``hash`` are those of the term set, so they never sort.
    Code in this package that needs no order reads ``_terms``, the code
    strings in whichever of the two orders they are in.
    """

    __slots__ = ("_terms", "_canonical")

    def __init__(self, terms: Iterable[Sequence[str]] = ()):
        unique = dict.fromkeys(map(_encode, terms))
        if "" in unique:
            raise ValueError("product terms must be nonempty")
        object.__setattr__(self, "_terms", tuple(unique))
        object.__setattr__(self, "_canonical", len(unique) < 2)

    def _sort(self) -> tuple[Term, ...] | None:
        """Put ``_terms`` in canonical order if they are not; the terms'
        symbols in that order if the sort decoded them, else ``None``."""
        if self._canonical:
            return None
        terms, names = _canonical_order(self._terms)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_canonical", True)
        return names

    def _sorted(self) -> tuple[Code, ...]:
        """``_terms`` in canonical order, sorted on the first call."""
        self._sort()
        return self._terms

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms in canonical order: shortest first, then lexicographic."""
        names = self._sort()
        return _decode_all(self._terms) if names is None else names

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy through the constructor, by symbol names: another
        # process gives the symbols other codes
        return SopfRe, (_decode_all(self._terms),)

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
        return _lookup(term) in self._terms

    def symbols(self) -> frozenset[str]:
        return frozenset(map(_NAMES.__getitem__, set("".join(self._terms))))


def _trusted(terms: tuple[Code, ...], *, canonical: bool = False) -> SopfRe:
    """A :class:`SopfRe` over ``terms`` without the constructor's checks.

    The caller guarantees a tuple of distinct nonempty code strings: a
    filter of one expression's terms, or terms it built distinct.
    ``canonical`` says that they are already in canonical order, so no
    read sorts them.
    """
    r = object.__new__(SopfRe)
    object.__setattr__(r, "_terms", terms)
    object.__setattr__(r, "_canonical", canonical or len(terms) < 2)
    return r


# --------------------------------------------------------------------------
# counting

def _tally(counters: "OpCounters | None", searched: int = 0, built: int = 0,
           hashed: int = 0) -> None:
    """Add to ``counters``, if given, the terms a pass ``searched``, the
    terms it ``built`` and the terms it ``hashed``."""
    if counters is not None:
        counters.symbol_comparisons += searched
        counters.term_copies += built
        counters.set_lookups += hashed


# --------------------------------------------------------------------------
# selectors

def _pattern(pattern: Sequence[str]) -> Code:
    """The code string of a search pattern of one or two symbols."""
    pat = tuple(pattern)
    if not 1 <= len(pat) <= 2:
        raise ValueError("patterns are limited to one or two symbols")
    return _lookup(pat)


def pt(r: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Terms of ``r`` containing ``pattern`` as a contiguous symbol run."""
    pat = _pattern(pattern)
    terms = r._terms
    _tally(counters, searched=len(terms))
    return _trusted(tuple([t for t in terms if pat in t]))


def _cut(p: SopfRe, pattern: Sequence[str], last: bool,
         counters: "OpCounters | None") -> SopfRe:
    """The distinct fragments of the terms of ``p``: each term cut just
    after its first ``pattern`` by one ``str.index``, or at its ``last``
    by one ``str.rindex``.  A term without the pattern is named in the
    error, the canonically first one, spelled as :func:`print_sopf` spells
    it."""
    pat = _pattern(pattern)
    terms = p._terms
    try:
        cuts = ([t[t.rindex(pat):] for t in terms] if last
                else [t[:t.index(pat) + len(pat)] for t in terms])
    except ValueError:
        missing = _trusted(tuple(t for t in terms if pat not in t))
        term = print_sopf(_trusted(missing._sorted()[:1]))
        raise ValueError(f"term {term!r} does not contain the pattern") from None
    _tally(counters, searched=len(cuts), built=len(cuts), hashed=len(cuts))
    # every cut holds the pattern it was cut at, so none is empty
    return _trusted(tuple(dict.fromkeys(cuts)))


def ht(p: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Prefixes of the terms of ``p``, each cut just after the first occurrence
    of ``pattern``.  Every term of ``p`` must contain the pattern."""
    return _cut(p, pattern, False, counters)


def tt(p: SopfRe, pattern: Sequence[str], counters: "OpCounters | None" = None) -> SopfRe:
    """Suffixes of the terms of ``p``, each starting at the last occurrence
    of ``pattern``.  Every term of ``p`` must contain the pattern."""
    return _cut(p, pattern, True, counters)


# --------------------------------------------------------------------------
# set operations

def set_union(a: SopfRe, b: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    """``a``'s terms, then those of ``b`` not among them; ``a`` itself if
    that adds none."""
    fresh = b._terms
    if fresh and a._terms:
        fresh = tuple(filterfalse(set(a._terms).__contains__, fresh))
        _tally(counters, hashed=len(a) + len(b))
    return _trusted(a._terms + fresh) if fresh else a


def set_difference(r: SopfRe, c: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    drop = set(c._terms)
    _tally(counters, hashed=len(c) + len(r))
    return _trusted(tuple(filterfalse(drop.__contains__, r._terms)))


def set_concat(a: SopfRe, b: SopfRe, counters: "OpCounters | None" = None) -> SopfRe:
    """All pairwise concatenations; duplicates collapse at insertion."""
    joined = [x + y for x in a._terms for y in b._terms]
    _tally(counters, built=len(joined), hashed=len(joined))
    # both factors are nonempty, so no product is
    return _trusted(tuple(dict.fromkeys(joined)))


# --------------------------------------------------------------------------
# textual form
#
# Compact form spells a term by concatenating single-character symbols;
# dotted form joins symbols with ".".  A dot anywhere in the input switches
# the whole expression to dotted reading.  Note the inherent ambiguity of
# the compact spelling: a dot-free multi-character token is always read as
# single-character symbols, so an expression whose every term is one
# multi-character symbol does not survive a text round-trip unless the
# reader passes ``dotted=True``.  A lone term whose compact spelling is
# ``EMPTY`` (the symbols E, M, P, T, Y) is printed dotted, since the
# compact text would read back as the empty expression.

def parse_sopf(text: str, *, dotted: bool | None = None) -> SopfRe:
    """Parse the textual sum-of-products form.

    ``dotted`` forces the term reading; ``None`` auto-detects (dotted iff a
    "." occurs anywhere in the input).  Compact text whose every symbol is
    its own code is read at C speed, each ``+``-separated chunk being its
    term's code string; any other text is read symbol by symbol, each
    distinct token validated once.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty expression text")
    if stripped == EMPTY_TOKEN:
        return SopfRe()
    if dotted is None:
        dotted = "." in stripped
    if not dotted:
        chunks = list(map(str.strip, stripped.split("+")))
        # every character a symbol that is its own code: each chunk is
        # its term's code string, and none needs a check of its own
        if all(chunks) and _OWN_CODES.issuperset("".join(chunks)):
            return _trusted(tuple(dict.fromkeys(chunks)))
    # token -> code: each distinct token is validated once per call
    seen: dict[str, Code] = {}

    def code(token: str) -> Code:
        c = seen.get(token)
        if c is None:
            try:
                validate_symbol(token)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            c = seen[token] = _code(token)
        return c

    terms = []
    for chunk in stripped.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty product term")
        terms.append("".join(map(code, chunk.split(".") if dotted else chunk)))
    # every term holds at least one validated, nonempty symbol
    return _trusted(tuple(dict.fromkeys(terms)))


def print_sopf(r: SopfRe, *, dotted: bool = False) -> str:
    """Render in canonical order; the empty expression prints as ``EMPTY``."""
    names = r._sort()
    terms = r._terms
    if not terms:
        return EMPTY_TOKEN
    if names is None and all(map(str.isascii, terms)):
        # every symbol is one character, its own code; a lone term spelled
        # EMPTY is dotted, so that it does not read as the empty expression
        if dotted or terms == (EMPTY_TOKEN,):
            return " + ".join(map(".".join, terms))
        return " + ".join(terms)
    use_dots = dotted or max(map(len, r.symbols())) > 1
    return " + ".join(map(("." if use_dots else "").join, names or map(_decode, terms)))

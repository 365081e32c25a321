"""Mutation operator descriptions and their textual notation.

Four operator kinds exist: arc insertion ``i_a``, arc omission ``o_a``,
node insertion ``i_n`` and node omission ``o_n``.  A script is a sequence
of applications ``(<args>)<mnemonic>`` in this grammar:

- an id is one or more characters, none of them whitespace or one of
  ``(){},+.#``, and not ``EMPTY`` (:func:`sopf.validate_symbol`);
- an arc operator takes two ids, side by side if both are single
  characters (``(cd)o_a``), else comma-separated (``(n1,n2)i_a``);
- node omission takes one id (``(n)o_n``);
- node insertion takes the new id, a comma and braces around a
  comma-separated list of arc pairs, each with the new id at one end
  (``(v,{(v,b),(a,v)})i_n``; ``(v,{})i_n`` inserts an isolated node);
- whitespace may stand around applications, which may also abut, and
  around every id, comma, pair and brace in one (``( v , { ( v , b ) } )i_n``),
  but not inside an id, between compact ids or before a mnemonic.

Ids hold no bracket, so brackets nest to a fixed depth: the notation is a
regular language, read by one pattern and one reader per operator kind.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Union

from .errors import ParseError
from .sopf import validate_symbol


#: one application: its group, parentheses three deep (one more than a pair
#: needs, so a stray group in a pair reaches its reader), the text inside,
#: three characters for the mnemonic, one more unless whitespace or a '('
_APP = re.compile(r"(\(((?:[^()]|\((?:[^()]|\([^()]*\))*\))*)\))(.{0,3})([^\s(]?)\s*", re.S)
#: one comma-ended part of a list: a comma ends it only where a count of
#: open brackets, of either kind alike, is zero
_PART = re.compile(r"((?:[^(){},]"
                   r"|[({](?:[^(){}]|[({][^(){}]*[)}])*[)}]"  # a group, two deep
                   r"|[)}](?:[^(){}]|[)}][^(){}]*[({])*[({])*"  # one closing first
                   r"(?:[(){}].*)?),", re.S)  # from a bracket in no group: the rest


def _split(text: str) -> list[str]:
    """``text``'s comma-separated parts, stripped; commas in brackets stay."""
    return [part.strip() for part in _PART.findall(text + ",")]


@dataclass(frozen=True)
class _ArcOp:
    """The fields, checks and notation that both arc operators share."""

    src: str
    dst: str

    def __post_init__(self):
        validate_symbol(self.src)
        validate_symbol(self.dst)

    @classmethod
    def _read(cls, args: str) -> _ArcOp:
        if "," in args:
            ends = _split(args)
            if len(ends) != 2:
                raise ValueError("expected exactly two node ids")
            return cls(*ends)
        args = args.strip()
        if len(args) != 2:
            raise ValueError("compact form needs exactly two single-character ids")
        return cls(*args)

    def _args(self) -> str:
        if len(self.src) == len(self.dst) == 1:
            return self.src + self.dst
        return f"{self.src},{self.dst}"


@dataclass(frozen=True)
class ArcInsert(_ArcOp):
    """Arc insertion ``(ij)i_a``."""


@dataclass(frozen=True)
class ArcOmit(_ArcOp):
    """Arc omission ``(ij)o_a``."""


@dataclass(frozen=True)
class NodeInsert:
    node: str
    outgoing: tuple[str, ...] = ()
    ingoing: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "outgoing", tuple(self.outgoing))
        object.__setattr__(self, "ingoing", tuple(self.ingoing))
        validate_symbol(self.node)
        for group in (self.outgoing, self.ingoing):
            for sym in group:
                validate_symbol(sym)
            if len(set(group)) != len(group):
                raise ValueError("duplicate neighbor in node insertion")
        if self.node in self.outgoing or self.node in self.ingoing:
            raise ValueError("node insertion may not loop on the new node")

    @classmethod
    def _read(cls, args: str) -> NodeInsert:
        parts = _split(args)
        if len(parts) != 2:
            raise ValueError("node insertion needs '<id>,{...}'")
        node, body = parts
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError("expected a brace-enclosed arc list")
        outgoing: list[str] = []
        ingoing: list[str] = []
        for pair in _split(body[1:-1]) if body[1:-1].strip() else ():
            if not (pair.startswith("(") and pair.endswith(")")):
                raise ValueError(f"malformed arc pair {pair!r}")
            ends = _split(pair[1:-1])
            if len(ends) != 2:
                raise ValueError("arc pair needs two node ids")
            a, b = ends
            if a == node:
                outgoing.append(b)
            elif b == node:
                ingoing.append(a)
            else:
                raise ValueError(f"arc pair ({a},{b}) does not involve the new node")
        return cls(node, tuple(outgoing), tuple(ingoing))

    def _args(self) -> str:
        pairs = [f"({self.node},{x})" for x in self.outgoing]
        pairs += [f"({y},{self.node})" for y in self.ingoing]
        return f"{self.node},{{{','.join(pairs)}}}"


@dataclass(frozen=True)
class NodeOmit:
    node: str

    def __post_init__(self):
        validate_symbol(self.node)

    @classmethod
    def _read(cls, args: str) -> NodeOmit:
        if "," in args:
            raise ValueError("node omission takes a single id")
        return cls(args.strip())

    def _args(self) -> str:
        return self.node


MutationOp = Union[ArcInsert, ArcOmit, NodeInsert, NodeOmit]

#: operator kind -> mnemonic and mnemonic -> operator kind
_KINDS: dict = {ArcInsert: "i_a", ArcOmit: "o_a", NodeInsert: "i_n", NodeOmit: "o_n"}
_KINDS.update({mnemonic: kind for kind, mnemonic in _KINDS.items()})


def format_op(op: MutationOp) -> str:
    """Render one operator application in script notation."""
    return f"({op._args()}){_KINDS[type(op)]}"


def format_script(ops: Iterable[MutationOp]) -> str:
    return " ".join(format_op(op) for op in ops)


def parse_script(text: str) -> tuple[MutationOp, ...]:
    """Parse a sequence of operator applications (grammar: module docstring)."""
    ops: list[MutationOp] = []
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        app = _APP.match(text, pos)
        if app is None:
            if text[pos] != "(":
                raise ParseError(f"expected '(' at position {pos}, found {text[pos]!r}")
            depths = list(accumulate((ch == "(") - (ch == ")") for ch in text[pos:]))
            if 0 in depths:  # the group closes, so it nests deeper than _APP reads
                raise ParseError(f"'(' at position {pos + depths.index(4)} nests four deep: "
                                 "ids may not contain '('")
            raise ParseError("unbalanced parentheses in script")
        group, args, mnemonic, stray = app.groups()
        if len(mnemonic) < 3 or mnemonic[1] != "_":
            raise ParseError(f"missing operator mnemonic after {group!r}")
        if mnemonic not in _KINDS:
            raise ParseError(f"unknown operator mnemonic {mnemonic!r}")
        if stray:
            raise ParseError(f"unexpected text after {group + mnemonic!r}")
        # the reader checks the layout, the constructor the node ids
        try:
            ops.append(_KINDS[mnemonic]._read(args))
        except ValueError as exc:
            raise ParseError(f"{group}{mnemonic}: {exc}") from exc
        pos = app.end()
    return tuple(ops)

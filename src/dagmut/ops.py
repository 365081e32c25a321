"""Mutation operator descriptions and their textual notation.

Four operator kinds exist: arc insertion ``i_a``, arc omission ``o_a``,
node insertion ``i_n`` and node omission ``o_n``.  An application is
written ``(<args>)<mnemonic>``, e.g. ``(cd)o_a`` or ``(v,{(v,b),(a,v)})i_n``;
a script is a whitespace-separated sequence of applications.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import ParseError
from .sopf import validate_symbol


@dataclass(frozen=True)
class ArcInsert:
    src: str
    dst: str

    def __post_init__(self):
        validate_symbol(self.src)
        validate_symbol(self.dst)


@dataclass(frozen=True)
class ArcOmit:
    src: str
    dst: str

    def __post_init__(self):
        validate_symbol(self.src)
        validate_symbol(self.dst)


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


@dataclass(frozen=True)
class NodeOmit:
    node: str

    def __post_init__(self):
        validate_symbol(self.node)


MutationOp = Union[ArcInsert, ArcOmit, NodeInsert, NodeOmit]

_ARC_MNEMONICS = {"i_a": ArcInsert, "o_a": ArcOmit}
_MNEMONICS = {"i_a", "o_a", "i_n", "o_n"}


def format_op(op: MutationOp) -> str:
    """Render one operator application in script notation."""
    if isinstance(op, (ArcInsert, ArcOmit)):
        mnemonic = "i_a" if isinstance(op, ArcInsert) else "o_a"
        if len(op.src) == 1 and len(op.dst) == 1:
            return f"({op.src}{op.dst}){mnemonic}"
        return f"({op.src},{op.dst}){mnemonic}"
    if isinstance(op, NodeOmit):
        return f"({op.node})o_n"
    pairs = [f"({op.node},{x})" for x in op.outgoing]
    pairs += [f"({y},{op.node})" for y in op.ingoing]
    return f"({op.node},{{{','.join(pairs)}}})i_n"


def format_script(ops: Iterable[MutationOp]) -> str:
    return " ".join(format_op(op) for op in ops)


def _split_top(text: str) -> list[str]:
    """Split on commas not nested inside parentheses or braces."""
    parts: list[str] = []
    cur: list[str] = []
    depth = 0
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _arc_args(inner: str, notation: str) -> tuple[str, str]:
    inner = inner.strip()
    if "," in inner:
        parts = _split_top(inner)
        if len(parts) != 2:
            raise ParseError(f"{notation}: expected exactly two node ids")
        return parts[0].strip(), parts[1].strip()
    if len(inner) != 2:
        raise ParseError(
            f"{notation}: compact form needs exactly two single-character ids")
    return inner[0], inner[1]


def _node_insert_args(inner: str, notation: str) -> NodeInsert:
    parts = _split_top(inner)
    if len(parts) != 2:
        raise ParseError(f"{notation}: node insertion needs '<id>,{{...}}'")
    name = parts[0].strip()
    body = parts[1].strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"{notation}: expected a brace-enclosed arc list")
    outgoing: list[str] = []
    ingoing: list[str] = []
    pair_text = body[1:-1].strip()
    if pair_text:
        for chunk in _split_top(pair_text):
            chunk = chunk.strip()
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ParseError(f"{notation}: malformed arc pair {chunk!r}")
            ends = _split_top(chunk[1:-1])
            if len(ends) != 2:
                raise ParseError(f"{notation}: arc pair needs two node ids")
            a, b = (e.strip() for e in ends)
            if a == name:
                outgoing.append(b)
            elif b == name:
                ingoing.append(a)
            else:
                raise ParseError(
                    f"{notation}: arc pair ({a},{b}) does not involve the new node")
    return NodeInsert(name, tuple(outgoing), tuple(ingoing))


def parse_script(text: str) -> tuple[MutationOp, ...]:
    """Parse a whitespace-separated sequence of operator applications."""
    ops: list[MutationOp] = []
    pos, n = 0, len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if text[pos] != "(":
            raise ParseError(f"expected '(' at position {pos}, found {text[pos]!r}")
        start = pos
        depth = 0
        while pos < n:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        if depth != 0:
            raise ParseError("unbalanced parentheses in script")
        inner = text[start + 1:pos]
        pos += 1
        mnemonic = text[pos:pos + 3]
        notation = text[start:pos] + mnemonic
        if len(mnemonic) < 3 or mnemonic[1] != "_":
            raise ParseError(f"missing operator mnemonic after {text[start:pos]!r}")
        if mnemonic not in _MNEMONICS:
            raise ParseError(f"unknown operator mnemonic {mnemonic!r}")
        pos += 3
        if pos < n and not text[pos].isspace() and text[pos] != "(":
            raise ParseError(f"unexpected text after {notation!r}")
        # each constructor checks its node ids
        try:
            if mnemonic in _ARC_MNEMONICS:
                ops.append(_ARC_MNEMONICS[mnemonic](*_arc_args(inner, notation)))
            elif mnemonic == "o_n":
                if "," in inner:
                    raise ParseError(f"{notation}: node omission takes a single id")
                ops.append(NodeOmit(inner.strip()))
            else:
                ops.append(_node_insert_args(inner, notation))
        except ValueError as exc:
            raise ParseError(f"{notation}: {exc}") from exc
    return tuple(ops)

"""Output checks for the dagmut benchmark, run outside the timed region.

``convert`` output is compared against this benchmark's own path
enumerator and a topological-DP path count (:mod:`generate`).  Operator
results are compared step by step against the package's brute-force
reference :func:`dagmut.oracle.ref_apply`, driven by the benchmark's own
graph tracker.  The reference is computed once per model; timed samples are
compared to it by digest.
"""
from __future__ import annotations

from collections import Counter

import generate
from dagmut.graph import Dg
from dagmut.ops import ArcInsert, ArcOmit, NodeInsert, NodeOmit
from dagmut.oracle import NaiveLang, ref_apply


def op_objects(ops) -> tuple:
    """The package's operator values for generated operators."""
    out = []
    for op in ops:
        kind = op[0]
        if kind == "i_a":
            out.append(ArcInsert(op[1], op[2]))
        elif kind == "o_a":
            out.append(ArcOmit(op[1], op[2]))
        elif kind == "i_n":
            out.append(NodeInsert(op[1], op[2], op[3]))
        else:
            out.append(NodeOmit(op[1]))
    return tuple(out)


def digest(terms, nodes, arcs, starts, finishes) -> int:
    """Order-free digest of an expression's term set and a graph."""
    return hash((frozenset(map(tuple, terms)), frozenset(nodes), frozenset(arcs),
                 frozenset(starts), frozenset(finishes)))


def state_digest(state) -> int:
    dg = state.dg
    return digest(state.re.terms, dg.nodes, dg.arcs, dg.starts, dg.finishes)


def parse_machine_expression(text: str) -> list[tuple[str, ...]]:
    """Terms of ``convert --format machine`` output, read independently."""
    text = text.strip()
    if text == "EMPTY":
        return []
    return [tuple(term.split(".")) for term in text.split(" + ")]


def convert_error(model: generate.Model, rc: int, text: str) -> str | None:
    """``None`` if one ``convert`` run printed the model's path language."""
    if rc != 0:
        return f"{model.name}: convert exited {rc}"
    terms = parse_machine_expression(text)
    t = generate.parse_dg_text(model.dg_text)
    expected = t.enumerate_paths()
    if len(terms) != len(set(terms)):
        return f"{model.name}: convert printed a term twice"
    if set(terms) != expected or len(terms) != t.path_count():
        return f"{model.name}: convert printed {len(terms)} terms, expected {len(expected)}"
    return None


class Reference:
    """Per-step reference results of one model's script.

    ``digests[j]`` is the digest of the expected state after step ``j``.
    """

    def __init__(self, model: generate.Model):
        t = generate.parse_dg_text(model.dg_text)
        lang = NaiveLang(sorted(t.enumerate_paths()))
        self.digests: list[int] = []
        for op, obj in zip(model.ops, op_objects(model.ops)):
            companion = Dg(*t.snapshot())
            lang = ref_apply(lang, obj, companion)
            t.apply(op)
            self.digests.append(digest(lang.words, *t.snapshot()))


class OutputLog:
    """Outputs seen during a run, tallied so each distinct one is checked once.

    ``converts[(model, text_hash, rc)]`` and ``steps[(model, step, digest)]``
    count the samples that produced that output; ``texts`` keeps one text
    per distinct convert output.
    """

    def __init__(self):
        self.converts: Counter = Counter()
        self.texts: dict[tuple[int, int], str] = {}
        self.steps: Counter = Counter()
        self.errors = 0
        self.messages: list[str] = []

    def error(self, message: str) -> None:
        """A call that raised, or that the harness could not judge."""
        self.errors += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def convert(self, m: int, rc: int, text: str) -> None:
        key = (m, hash(text), rc)
        self.converts[key] += 1
        self.texts.setdefault(key[:2], text)

    def step(self, m: int, j: int, state) -> None:
        self.steps[(m, j, state_digest(state))] += 1

    @property
    def attempted(self) -> int:
        return sum(self.converts.values()) + sum(self.steps.values()) + self.errors

    def __eq__(self, other) -> bool:
        """Same outputs, as often: two passes over the same work agree."""
        return (isinstance(other, OutputLog) and self.converts == other.converts
                and self.steps == other.steps and self.errors == other.errors)


class Checker:
    """Verdicts on logged outputs, each distinct output judged once."""

    def __init__(self, models):
        self.models = models
        self._refs: dict[int, Reference] = {}
        self._converts: dict[tuple, str | None] = {}

    def reference(self, m: int) -> Reference:
        if m not in self._refs:
            self._refs[m] = Reference(self.models[m])
        return self._refs[m]

    def failures(self, log: OutputLog) -> tuple[int, list[str]]:
        """Samples in ``log`` whose output is wrong, plus one message per
        distinct wrong output."""
        failed, problems = log.errors, list(log.messages)
        for key, n in sorted(log.converts.items()):
            if key not in self._converts:
                m, text_hash, rc = key
                self._converts[key] = convert_error(self.models[m], rc,
                                                    log.texts[(m, text_hash)])
            if self._converts[key]:
                failed += n
                problems.append(self._converts[key])
        for (m, j, seen), n in sorted(log.steps.items()):
            if self.reference(m).digests[j] != seen:
                failed += n
                model = self.models[m]
                problems.append(f"{model.name}: step {j + 1} "
                                f"({generate.op_text(model.ops[j])}) differs from the reference")
        return failed, problems

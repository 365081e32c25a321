"""Shared fixtures: the branching sample model and its expected languages,
and random models with scripts."""
from hypothesis import strategies as st

from dagmut.graph import Dg, apply_dg_op
from dagmut.oracle import GenConfig, NaiveLang, random_model, random_script
from dagmut.sopf import SopfRe
from dagmut.oracle import MAX_GEN_NODES
from dagmut.sopf import _decode

# Seventeen nodes a..q, twenty arcs, one start (a) and one finish (q).
SAMPLE_ARCS = [
    ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"),
    ("e", "f"), ("f", "g"), ("d", "g"), ("g", "h"), ("h", "i"),
    ("h", "j"), ("i", "l"), ("j", "k"), ("k", "l"), ("k", "n"),
    ("l", "m"), ("m", "p"), ("n", "o"), ("o", "p"), ("p", "q"),
]

SAMPLE_GRAPH_TEXT = "".join(f"arc {a} {b}\n" for a, b in SAMPLE_ARCS)

# The nine start-to-finish paths of the sample model.
SAMPLE_TERMS = (
    "abdghilmpq",
    "abdghjklmpq",
    "abdghjknopq",
    "acdghilmpq",
    "acdghjklmpq",
    "acdghjknopq",
    "acefghilmpq",
    "acefghjklmpq",
    "acefghjknopq",
)

# Result of applying "(cd)o_a (df)i_a (n)o_n" to the sample model.
MUTATED_TERMS = (
    "abdghilmpq",
    "abdghjklmpq",
    "abdfghilmpq",
    "abdfghjklmpq",
    "acefghilmpq",
    "acefghjklmpq",
    "opq",
)


def term_key(term: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """The sort key of canonical order: shortest first, then lexicographic
    by symbol sequence."""
    return (len(term), term)


def equivalent(re: SopfRe, lang: NaiveLang) -> bool:
    """True iff the expression and the naive language hold the same words."""
    return set(re.terms) == {tuple(w) for w in lang.words}


def reaches(g: Dg, src: str, dst: str) -> bool:
    """True iff a directed path (length >= 0) leads from ``src`` to ``dst``
    in ``g``: a search over ``Dg.successors``, apart from the graph
    module's own."""
    seen, frontier = {src}, [src]
    while frontier:
        for w in g.successors(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return dst in seen


def sopf(*words: str) -> SopfRe:
    """Build an expression from compact single-character-symbol spellings."""
    return SopfRe(tuple(tuple(w) for w in words))


def count_calls(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` for the test by a wrapper that appends the
    arguments of each call to the returned list."""
    calls: list = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def built(re: SopfRe) -> list[tuple[str, ...]]:
    """The terms of ``re`` as symbol tuples, in the order they are stored
    (construction order until the first sorted read)."""
    return list(map(_decode, re._terms))


def spell(re: SopfRe) -> set[str]:
    """Compact spellings of all terms, as a set."""
    return {"".join(term) for term in re}


@st.composite
def scripted_models(draw):
    """A random model with a random valid script, as the oracle makes them."""
    cfg = GenConfig(node_count=draw(st.integers(0, MAX_GEN_NODES)),
                    arc_density=draw(st.floats(0.0, 1.0)),
                    seed=draw(st.integers(0, 2**32)),
                    script_length=draw(st.integers(0, 8)))
    g = random_model(cfg)
    return g, random_script(cfg, g)


@st.composite
def flagged_models(draw):
    """A scripted model after its script, so operators have left sticky
    flags on inner nodes, renamed to multi-character names, with more
    start and finish flags on top."""
    g, script = draw(scripted_models())
    for op in script:
        g = apply_dg_op(g, op)
    nodes = sorted(g.nodes)
    # names over a small alphabet share prefixes ("a" < "a1" < "ab"), so
    # the order of name sequences differs from that of their spellings;
    # "-" sorts below the "." of the dotted spelling, so "a-" < "a" . "b"
    names = draw(st.lists(st.text("ab1-", min_size=1, max_size=3),
                          min_size=len(nodes), max_size=len(nodes), unique=True))
    rename = dict(zip(nodes, names))
    extra = st.sets(st.sampled_from(nodes)) if nodes else st.just(set())
    starts = g.starts | draw(extra)
    finishes = g.finishes | draw(extra)
    return Dg({rename[v] for v in g.nodes}, {(rename[a], rename[b]) for a, b in g.arcs},
              {rename[v] for v in starts}, {rename[v] for v in finishes})

"""Shared fixtures: the branching sample model and its expected languages,
and random models with scripts."""
from hypothesis import strategies as st

from dagmut import GenConfig, SopfRe, random_model, random_script
from dagmut.oracle import MAX_GEN_NODES

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

"""Script notation and the synchronized mutation operators."""
import inspect
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagmut import graph
from dagmut import mutate as mutate_module
from dagmut import sopf as sopf_module
from dagmut import (
    ArcInsert,
    ArcOmit,
    InsertionCycleError,
    ModelError,
    NodeInsert,
    NodeOmit,
    OperationError,
    ParseError,
    ScriptError,
    apply_script,
    model_from_graph,
    parse_graph,
    parse_script,
    print_sopf,
)
from dagmut.graph import Dg, apply_dg_op, enumerate_paths
from dagmut.metrics import OpCounters
from dagmut.mutate import (
    LogEntry,
    ModelState,
    apply_op,
    arc_insert,
    arc_omit,
    node_insert,
    node_omit,
)
from dagmut.ops import format_op, format_script
from dagmut.oracle import GenConfig, NaiveLang, equivalent, random_model, random_script, ref_apply
from dagmut.sopf import (SopfRe, _code, _codes, _trusted, add_term, ht, pt, remove_term, term_key,
                         tt)

from support import MUTATED_TERMS, built, count_calls, scripted_models, spell, sopf


# --------------------------------------------------------------------------
# notation

def test_parse_script_compact_forms():
    assert parse_script("(cd)o_a (df)i_a (n)o_n") == (
        ArcOmit("c", "d"), ArcInsert("d", "f"), NodeOmit("n"))


def test_parse_script_node_insertion():
    assert parse_script("(v,{(v,b),(a,v)})i_n") == (
        NodeInsert("v", outgoing=("b",), ingoing=("a",)),)


def test_parse_script_isolated_node():
    assert parse_script("(v,{})i_n") == (NodeInsert("v"),)


def test_parse_script_comma_forms():
    assert parse_script("(n1,n2)i_a") == (ArcInsert("n1", "n2"),)


def test_parse_script_errors():
    with pytest.raises(ParseError, match="unknown operator mnemonic"):
        parse_script("(x y)q_z")
    with pytest.raises(ParseError):
        parse_script("(abc)i_a")                 # compact form needs 2 chars
    with pytest.raises(ParseError):
        parse_script("(a,b,c)i_a")               # arity
    with pytest.raises(ParseError):
        parse_script("(v,{(a,b)})i_n")           # pair misses the new node
    with pytest.raises(ParseError):
        parse_script("(v,{(v,v)})i_n")           # self-loop pair
    with pytest.raises(ParseError):
        parse_script("(a,b)")                    # missing mnemonic
    with pytest.raises(ParseError):
        parse_script("(a,b")                     # unbalanced
    with pytest.raises(ParseError):
        parse_script("a b i_a")                  # no parentheses


def test_format_op_spellings():
    assert format_op(ArcOmit("c", "d")) == "(cd)o_a"
    assert format_op(ArcInsert("n1", "n2")) == "(n1,n2)i_a"
    assert format_op(NodeOmit("n")) == "(n)o_n"
    assert format_op(NodeInsert("v", ("b",), ("a",))) == "(v,{(v,b),(a,v)})i_n"


ids = st.text(alphabet="abcdxyz", min_size=1, max_size=2)


@st.composite
def operators(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return ArcInsert(draw(ids), draw(ids))
    if kind == 1:
        return ArcOmit(draw(ids), draw(ids))
    if kind == 2:
        return NodeOmit(draw(ids))
    node = draw(ids)
    neighbors = draw(st.lists(ids.filter(lambda s: s != node),
                              max_size=3, unique=True))
    cut = draw(st.integers(0, len(neighbors)))
    return NodeInsert(node, tuple(neighbors[:cut]), tuple(neighbors[cut:]))


@given(st.lists(operators(), max_size=5))
def test_notation_round_trip(ops):
    assert parse_script(format_script(ops)) == tuple(ops)


# --------------------------------------------------------------------------
# model construction

def test_model_from_graph(sample_state):
    assert len(sample_state.re) == 9


def test_operators_after_model_from_graph_build_no_predecessor_index(monkeypatch, sample_graph):
    calls = count_calls(monkeypatch, graph, "_predecessor_index")
    state = model_from_graph(sample_graph)
    assert len(calls) == 1
    # a node insertion first: it derives the state that every later step
    # derives from, so an index built there would be built per run
    script = parse_script("(v,{(v,q),(a,v)})i_n (cd)o_a (df)i_a (n)o_n (v)o_n (w,{(w,b)})i_n")
    state, _ = apply_script(state, script)
    assert len(calls) == 1
    assert all(state.dg.predecessors(v) == sorted(u for u, w in state.dg.arcs if w == v)
               for v in state.dg.nodes)


def test_model_single_node():
    st_ = model_from_graph(parse_graph("node a"))
    assert st_.re == sopf("a")


def test_model_empty_graph():
    assert model_from_graph(parse_graph("")).re == SopfRe()


def test_model_state_rejects_stray_symbols():
    g = parse_graph("arc a b\narc b c")
    assert ModelState(g, sopf("abc")).re == sopf("abc")
    assert ModelState(g, SopfRe()).re == SopfRe()      # a subset of the paths
    for term in ("abcb", "ab", "abz"):                 # a repeated symbol, no path, no node
        with pytest.raises(ModelError, match=f"term '{term}' is not a start-to-finish path"):
            ModelState(g, sopf("abc", term))
    with pytest.raises(ModelError, match="node 'z' lies on no start-to-finish path"):
        ModelState(parse_graph("arc a b\nnode z\nstart a\nfinish b"), sopf("ab"))


@settings(max_examples=60, deadline=None)
@given(scripted_models())
def test_operator_states_and_logs_stay_exact(model):
    # operators derive their states without the constructor's check, and
    # count their log entries from the terms they touched
    g, script = model
    state = model_from_graph(g)
    assert state.re.symbols() <= state.dg.nodes
    for op in script:
        before = set(state.re)
        state, entry = apply_op(state, op)
        assert state.re.symbols() <= state.dg.nodes
        after = set(state.re)
        assert (entry.terms_added, entry.terms_removed) == (len(after - before),
                                                            len(before - after))


@st.composite
def flagged_states(draw):
    """A scripted model as a state, with more start and finish flags than
    random_model's degree rule sets: they keep its graph trim, and the
    script does not depend on flags, so it stays valid."""
    g, script = draw(scripted_models())
    extra = st.sets(st.sampled_from(sorted(g.nodes))) if g.nodes else st.just(set())
    return model_from_graph(Dg(g.nodes, g.arcs, g.starts | draw(extra),
                               g.finishes | draw(extra))), script


def stepped(state, script):
    """``state`` and the state after each operator of ``script``."""
    yield state
    for op in script:
        state, _ = apply_op(state, op)
        yield state


@settings(max_examples=100, deadline=None)
@given(flagged_states())
def test_operators_keep_the_graph_language_under_explicit_flags(model):
    # the flag rules of the operators must keep the expression the graph's
    # path language
    for state in stepped(*model):
        assert state.re == enumerate_paths(state.dg)
        mutate_module._require_trim(state.dg, state.re)


# --------------------------------------------------------------------------
# arc insertion

def test_arc_insert_shortcut():
    st_ = model_from_graph(parse_graph("arc a b\narc b c"))
    out, entry = arc_insert(st_, "a", "c")
    assert out.re == sopf("abc", "ac")
    assert ("a", "c") in out.dg.arcs
    assert entry.terms_added == 1 and entry.terms_removed == 0
    assert entry.added_bound == 1


def test_arc_insert_cycle_rejected():
    st_ = model_from_graph(parse_graph("arc a b\narc b c"))
    with pytest.raises(OperationError, match="cycle"):
        arc_insert(st_, "c", "a")


def test_arc_insert_reachability_is_authoritative():
    # explicit flags strand j->x->i off every start-finish path, so no term
    # would witness the ordering: such a graph makes no model
    text = "arc a b\narc j x\narc x i\nstart a\nfinish b\n"
    with pytest.raises(ModelError, match="node 'i' lies on no start-to-finish path"):
        model_from_graph(parse_graph(text))
    # flagged so that the chain is a path, the graph is trim, and graph
    # reachability refuses the cycle
    st_ = model_from_graph(parse_graph(text + "start j\nfinish i\n"))
    assert "jxi" in spell(st_.re)
    with pytest.raises(InsertionCycleError) as err:
        arc_insert(st_, "i", "j")
    assert str(err.value) == "inserting arc i -> j would create a cycle"


def test_arc_insert_between_isolated_nodes_keeps_old_terms():
    st_ = model_from_graph(parse_graph("node a\nnode b"))
    out, entry = arc_insert(st_, "a", "b")
    assert out.re == sopf("a", "b", "ab")
    assert entry.terms_added == 1


def test_arc_insert_duplicate_arc():
    st_ = model_from_graph(parse_graph("arc a b"))
    with pytest.raises(OperationError, match="already present"):
        arc_insert(st_, "a", "b")


@settings(max_examples=100, deadline=None)
@given(flagged_states())
def test_graph_fragments_and_exhaustion_equal_the_term_side(model):
    # the paper's term-side selectors, as a theorem of the path language:
    # on every state, the walk spells the heads ht(pt(re, v), v) and the
    # tails tt(pt(re, v), v) of every node, so of both endpoints of every
    # arc that can be inserted or omitted; and omitting an arc newly flags
    # an endpoint exactly when every term holding it holds the pair
    def omitted(work, u, w):
        paths = enumerate_paths(work)
        joined = pt(paths, (u, w))
        after = apply_dg_op(work, ArcOmit(u, w))
        assert (u in after.finishes - work.finishes) == (pt(paths, (u,)) == joined)
        assert (w in after.starts - work.starts) == (pt(paths, (w,)) == joined)
        return after

    for state in stepped(*model):
        g, re = state.dg, state.re
        for v in g.nodes:
            held = pt(re, (v,))
            assert _trusted(graph._spell_from(g, v, True)) == ht(held, (v,))
            assert _trusted(graph._spell_from(g, v, False)) == tt(held, (v,))
        for u, w in g.arcs:
            omitted(g, u, w)
        # and on every arc step of a node omission, on the graphs that its
        # earlier steps leave
        for v in g.nodes:
            work = g
            for u, w in [(v, x) for x in g.successors(v)] + [(y, v) for y in g.predecessors(v)]:
                work = omitted(work, u, w)


def ladder_arcs(rungs):
    """The arcs of a two-wide ladder: rung ``k`` is the pair ``r{k}a``,
    ``r{k}b``, each with an arc to both nodes of the next rung."""
    return [(f"r{k}{x}", f"r{k + 1}{y}")
            for k in range(rungs - 1) for x in "ab" for y in "ab"]


def arc_graph(arcs):
    """The graph of ``arcs``, flagged by the degree rule, its names coded."""
    g = parse_graph("".join(f"arc {a} {b}\n" for a, b in arcs))
    _codes(g.nodes)
    return g


@st.composite
def lattice_states(draw):
    """A layered lattice with multi-character names, as a state: two-wide
    ladders and lattices of widths 1-3 whose arcs between consecutive
    layers are at least half there, a skip arc or two, and more start and
    finish flags on top.  Most of them have a walk that outgrows the
    graph."""
    if draw(st.booleans()):
        arcs = set(ladder_arcs(draw(st.integers(4, 9))))
    else:
        widths = draw(st.lists(st.integers(1, 3), min_size=4, max_size=9))
        layers = [[f"n{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
        arcs = set()
        for upper, lower in zip(layers, layers[1:]):
            pairs = [(a, b) for a in upper for b in lower]
            arcs.update(set(pairs) - draw(st.sets(st.sampled_from(pairs),
                                                  max_size=len(pairs) // 2)))
            # every node keeps an arc into the next layer and one from the last
            arcs.update((a, lower[0]) for a in upper if not any((a, b) in arcs for b in lower))
            arcs.update((upper[0], b) for b in lower if not any((a, b) in arcs for a in upper))
        for i in draw(st.lists(st.integers(0, len(layers) - 3), max_size=2)):
            arcs.add((draw(st.sampled_from(layers[i])), draw(st.sampled_from(layers[i + 2]))))
    g = arc_graph(arcs)
    extra = st.sets(st.sampled_from(sorted(g.nodes)), max_size=3)
    return model_from_graph(Dg(g.nodes, arcs, g.starts | draw(extra), g.finishes | draw(extra)))


@settings(max_examples=60, deadline=None)
@given(lattice_states())
def test_table_mode_fragments_equal_the_term_side(state):
    # a walk that outgrows the graph goes on in table mode, and still
    # spells the heads ht(pt(re, v), v) and the tails tt(pt(re, v), v)
    g, re = state.dg, state.re
    with pytest.MonkeyPatch.context() as mp:
        tabled = count_calls(mp, graph, "_splice_words")
        for v in g.nodes:
            held = pt(re, (v,))
            assert _trusted(graph._spell_from(g, v, True)) == ht(held, (v,))
            assert _trusted(graph._spell_from(g, v, False)) == tt(held, (v,))
    assume(tabled)


def assert_counts_equal_spelled_words(g):
    # one memo per direction for all nodes, as an operator shares one
    # across its steps, and a fresh one per node
    for backward in (False, True):
        memo = {}
        for v in sorted(g.nodes):
            words = len(graph._spell_from(g, v, backward))
            assert graph._count_from(g, v, backward, memo) == words
            assert graph._count_from(g, v, backward, {}) == words


@settings(max_examples=100, deadline=None)
@given(flagged_states())
def test_path_counts_equal_the_spelled_words(model):
    # sticky flags and extra ones: a start may have predecessors and a
    # finish successors, and neither ends a path
    for state in stepped(*model):
        assert_counts_equal_spelled_words(state.dg)


@settings(max_examples=40, deadline=None)
@given(lattice_states())
def test_path_counts_equal_the_spelled_words_on_lattices(state):
    assert_counts_equal_spelled_words(state.dg)


def test_path_count_enters_each_node_once():
    # a chain of 3000 nodes needs no recursion; a node already counted is
    # entered once and its count read, and a lattice counts each node once
    names = [f"c{k}" for k in range(3000)]
    g = arc_graph(zip(names, names[1:]))
    memo, counters = {}, OpCounters()
    assert graph._count_from(g, names[0], False, memo, counters) == 1
    assert counters.symbol_comparisons == 3000 and len(memo) == 3000
    assert graph._count_from(g, names[1], False, memo, counters) == 1
    assert counters.symbol_comparisons == 3001
    g = arc_graph(ladder_arcs(12))
    counters = OpCounters()
    assert graph._count_from(g, "r0a", False, {}, counters) == 2 ** 11
    # the root, and the two successors of r0a and of each node of rungs 1-10
    assert counters == OpCounters(symbol_comparisons=1 + 2 * 21)


@settings(max_examples=60, deadline=None)
@given(flagged_states())
def test_arc_insert_products_equal_no_term(model):
    # every product holds the new adjacency src dst, which no term of the
    # model without the arc holds, and a path holds src once, so the
    # products are distinct new terms, appended unprobed
    for state in stepped(*model):
        g = state.dg
        terms = set(state.re._terms)
        for src, dst in [(u, w) for u in sorted(g.nodes) for w in sorted(g.nodes)
                         if u != w and w not in g._succ.get(u, ())
                         and not graph.path_exists(g, w, u)]:
            out, entry = arc_insert(state, src, dst)
            products = out.re._terms[len(state.re):]
            assert out.re._terms[:len(state.re)] == state.re._terms
            assert not terms.intersection(products)
            assert len(set(products)) == len(products) == entry.terms_added == entry.added_bound
            assert out.re == enumerate_paths(out.dg)


@pytest.mark.parametrize("text, expected", [
    ("node a\nnode b\nnode c", ("a", "b", "c", "ab")),
    ("node a\narc c b\narc d b", ("a", "cb", "db", "ab")),
    ("arc a c\narc a d\nnode b", ("ac", "ad", "b", "ab")),
], ids=["selections_equal", "source_selection_smaller", "target_selection_smaller"])
def test_arc_insert_product_equal_to_a_hand_built_term(text, expected):
    # "ab" is the one product of a -> b, whether fewer terms hold a than
    # b, fewer hold b, or as many: it is appended behind the terms it
    # cannot equal, and the expression equals the hand-built terms
    st_ = model_from_graph(parse_graph(text))
    out, entry = arc_insert(st_, "a", "b")
    assert out.re._terms[:len(st_.re)] == st_.re._terms
    assert out.re == rebuilt(out.re) == sopf(*expected)
    assert entry.terms_added == entry.added_bound == 1 and entry.terms_removed == 0


# --------------------------------------------------------------------------
# arc omission

def test_arc_omit_splits_the_single_path():
    st_ = model_from_graph(parse_graph("arc a b\narc b c"))
    out, entry = arc_omit(st_, "b", "c")
    assert out.re == sopf("ab", "c")
    assert entry.terms_removed == 1
    assert entry.terms_added == 2 and entry.added_bound == 2


def test_arc_omit_with_alternative_routes(sample_state):
    out, entry = arc_omit(sample_state, "c", "d")
    assert spell(out.re) == {
        "abdghilmpq", "abdghjklmpq", "abdghjknopq",
        "acefghilmpq", "acefghjklmpq", "acefghjknopq"}
    assert entry.terms_removed == 3 and entry.terms_added == 0
    assert entry.added_bound == 0


def test_arc_omit_two_node_path():
    out, _ = arc_omit(model_from_graph(parse_graph("arc a b")), "a", "b")
    assert out.re == sopf("a", "b")


def test_arc_omit_missing_arc(sample_state):
    with pytest.raises(OperationError, match="not present"):
        arc_omit(sample_state, "a", "q")


def rebuilt(re: SopfRe) -> SopfRe:
    """``re`` through the public constructor, after checking that its terms
    are already distinct."""
    assert len(set(re._terms)) == len(re._terms)
    return SopfRe(built(re))


@pytest.mark.parametrize("text, flagged, expected, counts", [
    ("arc a b\narc a c\narc d b", (False, False), ("ac", "db"), (0, 1, 0)),
    ("arc a b\narc c b", (True, False), ("a", "cb"), (1, 1, 1)),
    ("arc a b\narc a c", (False, True), ("ac", "b"), (1, 1, 1)),
    ("arc x a\narc y a\narc a b\narc b c\narc b d", (True, True),
     ("xa", "ya", "bc", "bd"), (4, 4, 4)),
], ids=["neither_flagged", "source_flagged", "target_flagged", "both_flagged"])
def test_arc_omit_adds_the_words_of_each_newly_flagged_endpoint(text, flagged, expected,
                                                                counts):
    # omitting a -> b flags a finish iff b was its last successor, and b
    # start iff a was its last predecessor; the heads of a flagged a and the
    # tails of a flagged b come back, spelled by the graph and appended
    # behind the kept terms, which hold neither
    st_ = model_from_graph(parse_graph(text))
    out, entry = arc_omit(st_, "a", "b")
    assert ("a" in out.dg.finishes - st_.dg.finishes,
            "b" in out.dg.starts - st_.dg.starts) == flagged
    assert out.re == rebuilt(out.re) == sopf(*expected) == enumerate_paths(out.dg)
    assert (entry.terms_added, entry.terms_removed, entry.added_bound) == counts


def test_arc_omit_finds_the_last_holder_of_its_target():
    # "cb" is the one term holding b that is not joined; it holds no a and
    # sits last, behind a term that holds neither endpoint (the terms are
    # the graph's paths, in an order that enumeration does not give)
    st_ = ModelState(parse_graph("arc a b\narc c b\nnode d"), sopf("ab", "d", "cb"))
    expected = ref_apply(NaiveLang(built(st_.re)), ArcOmit("a", "b"), st_.dg)
    out, entry = arc_omit(st_, "a", "b")
    assert out.re == rebuilt(out.re) == sopf("a", "d", "cb")
    assert equivalent(out.re, expected)
    # the head "a" comes back, no tail does
    assert (entry.terms_added, entry.terms_removed, entry.added_bound) == (1, 1, 1)


@st.composite
def hand_built_states(draw):
    """A scripted model whose expression holds some of its paths, in any
    order: operators then see selections that no enumeration gives."""
    g, script = draw(scripted_models())
    paths = built(model_from_graph(g).re)
    terms = draw(st.lists(st.sampled_from(paths), unique=True)) if paths else []
    return ModelState(g, SopfRe(terms)), script


@st.composite
def shuffled_states(draw):
    """A scripted model whose expression holds all of its paths, in any
    order: the reference, the graph's path language, is then the answer."""
    g, script = draw(scripted_models())
    paths = built(model_from_graph(g).re)
    return ModelState(g, SopfRe(draw(st.permutations(paths)))), script


@settings(max_examples=80, deadline=None)
@given(shuffled_states())
def test_operator_results_are_distinct_and_match_the_reference(model):
    state, script = model
    for op in script:
        expected = ref_apply(NaiveLang(built(state.re)), op, state.dg)
        state, _ = apply_op(state, op)
        assert state.re == rebuilt(state.re)
        assert equivalent(state.re, expected)


# Node operators as the step-by-step composition of the public arc
# operators around the bare term: the result and the log entry with every
# inner step must be those of the composition.  The intermediate states
# are built with ``mutate._state``.

def composed_node_insert(state, op):
    work = mutate_module._state(apply_dg_op(state.dg, NodeInsert(op.node)),
                                add_term(state.re, (op.node,)))
    sub = []
    for x in op.outgoing:
        work, step = arc_insert(work, op.node, x)
        sub.append(step)
    for y in op.ingoing:
        work, step = arc_insert(work, y, op.node)
        sub.append(step)
    return work, sub


def composed_node_omit(state, op):
    work = state
    sub = []
    for x in state.dg.successors(op.node):
        work, step = arc_omit(work, op.node, x)
        sub.append(step)
    for y in state.dg.predecessors(op.node):
        work, step = arc_omit(work, y, op.node)
        sub.append(step)
    return mutate_module._state(apply_dg_op(work.dg, op), remove_term(work.re, (op.node,))), sub


def check_against_composition(state, op):
    compose = composed_node_insert if isinstance(op, NodeInsert) else composed_node_omit
    try:
        expected, sub = compose(state, op)
    except (OperationError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            apply_op(state, op)
        assert str(err.value) == str(exc)
        return
    out, entry = apply_op(state, op)
    assert out.dg == expected.dg
    assert out.re == rebuilt(out.re) == expected.re
    before, after = set(state.re._terms), set(out.re._terms)
    assert entry == LogEntry(op, terms_added=len(after - before),
                             terms_removed=len(before - after), sub=tuple(sub))


@settings(max_examples=80, deadline=None)
@given(shuffled_states(), st.data())
def test_node_operators_equal_their_arc_composition(model, data):
    state, script = model
    nodes = sorted(state.dg.nodes)
    extra = []
    if nodes:
        extra.append(NodeOmit(data.draw(st.sampled_from(nodes))))
        neighbors = data.draw(st.lists(st.sampled_from(nodes), max_size=4, unique=True))
        cut = data.draw(st.integers(0, len(neighbors)))
        extra.append(NodeInsert("new", tuple(neighbors[:cut]), tuple(neighbors[cut:])))
    for op in extra:
        check_against_composition(state, op)
    for op in script:
        if isinstance(op, (NodeInsert, NodeOmit)):
            check_against_composition(state, op)
        state, _ = apply_op(state, op)


def test_node_omit_sees_a_fragment_left_by_an_earlier_step():
    # omitting v -> a leaves the tail "ab", which holds no v; it is then the
    # only other term holding b, so omitting v -> b brings no tail "b" back
    state = model_from_graph(parse_graph("arc v a\narc v b\narc a b"))
    assert state.re == sopf("vab", "vb")
    expected = ref_apply(NaiveLang(built(state.re)), NodeOmit("v"), state.dg)
    out, entry = node_omit(state, "v")
    assert [step.notation for step in entry.sub] == ["(va)o_a", "(vb)o_a"]
    assert [step.terms_added for step in entry.sub] == [1, 1]
    assert out.re == rebuilt(out.re) == sopf("ab")
    assert equivalent(out.re, expected)
    composed, sub = composed_node_omit(state, NodeOmit("v"))
    assert out.re == composed.re and entry.sub == tuple(sub)


def applied_with_and_without_counts(state, op):
    """The result of ``op`` on ``state``, after checking that applying it
    with counters gives the same result, log entry or error."""
    try:
        expected, expected_entry = apply_op(state, op)
    except (OperationError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            apply_op(state, op, OpCounters())
        assert str(err.value) == str(exc)
        return None
    out, entry = apply_op(state, op, OpCounters())
    assert (out.dg, out.re, entry) == (expected.dg, expected.re, expected_entry)
    return out


@settings(max_examples=80, deadline=None)
@given(hand_built_states())
def test_counting_never_changes_results(model):
    state, script = model
    for node in sorted(state.dg.nodes)[:3]:
        applied_with_and_without_counts(state, NodeOmit(node))
    for src, dst in sorted(state.dg.arcs)[:3]:
        applied_with_and_without_counts(state, ArcOmit(src, dst))
    for op in script:
        state = applied_with_and_without_counts(state, op)
        if state is None:
            return


def kernel_calls(state, ops, counters):
    """The number of calls of each function of ``dagmut.sopf``, from
    ``sopf`` and ``mutate``, while ``ops`` are applied in turn to
    ``state`` with ``counters``; an operator that fails is skipped."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in list(vars(sopf_module).items()):
            if not (inspect.isfunction(fn) and fn.__module__ == sopf_module.__name__):
                continue

            def spy(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in (sopf_module, mutate_module):
                if getattr(module, name, None) is fn:
                    mp.setattr(module, name, spy)
        for op in ops:
            try:
                state, _ = apply_op(state, op, counters)
            except (OperationError, ValueError):
                pass
    return calls


@settings(max_examples=60, deadline=None)
@given(shuffled_states())
def test_counting_calls_the_same_kernels(model):
    # counters tally the work of each kernel from lengths it holds: a
    # counted run does no search, cut or probe that an uncounted run skips
    state, script = model
    ops = ([NodeOmit(node) for node in sorted(state.dg.nodes)[:2]]
           + [ArcOmit(src, dst) for src, dst in sorted(state.dg.arcs)[:2]] + list(script))
    assert kernel_calls(state, ops, OpCounters()) == kernel_calls(state, ops, None)


# The summed counts of a fixed set of seeded runs.  The counts are the cost
# model of the term algebra, so a change that moves them must say so.  No
# operator hashes a term: every word it adds is new by construction.
PINNED_COUNTS = OpCounters(symbol_comparisons=22618, term_copies=6191,
                           set_lookups=0)


def test_operator_counts_are_pinned():
    total = OpCounters()
    steps = 0
    for seed in range(40):
        cfg = GenConfig(node_count=12, arc_density=0.2 + 0.15 * (seed % 5), seed=seed,
                        script_length=8)
        g = random_model(cfg)
        _, log = apply_script(model_from_graph(g), random_script(cfg, g), total)
        steps += len(log)
    assert steps == 320
    assert total == PINNED_COUNTS


# --------------------------------------------------------------------------
# node insertion

def test_node_insert_with_both_directions():
    # v is flagged start and finish, and keeps both flags with its arcs, so
    # its bare term stays
    st_ = model_from_graph(parse_graph("arc a b"))
    out, entry = node_insert(st_, "v", outgoing=("b",), ingoing=("a",))
    assert out.re == sopf("ab", "v", "vb", "av", "avb") == enumerate_paths(out.dg)
    assert ("v", "b") in out.dg.arcs and ("a", "v") in out.dg.arcs
    assert len(entry.sub) == 2


def test_node_insert_isolated():
    st_ = model_from_graph(parse_graph("arc a b"))
    out, entry = node_insert(st_, "v")
    assert out.re == sopf("ab", "v")
    assert entry.terms_added == 1 and not entry.sub


def test_node_insert_only_outgoing():
    st_ = model_from_graph(parse_graph("arc a b"))
    out, _ = node_insert(st_, "v", outgoing=("a",))
    assert out.re == sopf("ab", "v", "vab") == enumerate_paths(out.dg)


def test_node_insert_errors():
    st_ = model_from_graph(parse_graph("arc a b"))
    with pytest.raises(OperationError, match="already present"):
        node_insert(st_, "a")
    with pytest.raises(OperationError, match="unknown node"):
        node_insert(st_, "v", outgoing=("zz",))
    with pytest.raises(OperationError, match="cycle"):
        node_insert(st_, "v", outgoing=("a",), ingoing=("b",))
    with pytest.raises(ValueError):
        node_insert(st_, "v", outgoing=("v",))
    # j -> x -> i lies on no start-to-finish path: no model, so no cycle
    # through v that no term witnesses
    with pytest.raises(ModelError, match="node 'i' lies on no start-to-finish path"):
        model_from_graph(parse_graph("arc a b\narc j x\narc x i\nstart a\nfinish b"))


def test_insertions_check_reachability_once(monkeypatch):
    # arc insertion runs one search from the target that stops at the
    # source, and asks path_exists nothing, which would check both
    # endpoints again; node insertion runs one search from its outgoing
    # targets, which serves every ingoing arc
    asked = count_calls(monkeypatch, graph, "path_exists")
    searches = count_calls(monkeypatch, graph, "_reached")
    st_ = model_from_graph(parse_graph("arc a b\narc b c\narc x b"))
    arc_insert(st_, "a", "c")
    assert not asked and [args[1:] for args in searches] == [(("c",), "a")]
    asked.clear()
    searches.clear()
    node_insert(st_, "v", outgoing=("b", "c"), ingoing=("a", "x"))
    assert not asked and [args[1] for args in searches] == [("b", "c")]
    searches.clear()
    with pytest.raises(OperationError, match="inserting arc c -> w would create a cycle"):
        node_insert(st_, "w", outgoing=("b",), ingoing=("a", "c", "x"))
    assert not asked and len(searches) == 1


def chain_state(n):
    """The model of an ``n``-node chain, and its node names in chain order."""
    names = [f"c{k}" for k in range(n)]
    g = parse_graph("".join(f"arc {a} {b}\n" for a, b in zip(names, names[1:])))
    return model_from_graph(g), names


def insert_across_the_middle(state, names, counters=None):
    """An arc and a node insertion that each bypass the middle node."""
    mid = len(names) // 2
    return (arc_insert(state, names[mid - 1], names[mid + 1], counters),
            node_insert(state, "v", (names[mid + 1],), (names[mid - 1],), counters))


def test_operators_on_a_deep_chain():
    # the walk follows a run of one-neighbour nodes without a stack frame,
    # so a chain far deeper than the recursion limit raises no
    # RecursionError, whether an insertion or an omission spells the words
    state, names = chain_state(10_000)
    mid = len(names) // 2
    (arc_out, arc_entry), (node_out, node_entry) = insert_across_the_middle(state, names)
    assert arc_out.re == enumerate_paths(arc_out.dg)
    assert arc_entry.terms_added == 1
    assert node_out.re == enumerate_paths(node_out.dg)
    assert [step.terms_added for step in node_entry.sub] == [1, 2]
    # omitting an arc or a node of the middle cuts the chain's one term in
    # two, each re-added as the walk spells it
    arc_out, arc_entry = arc_omit(state, names[mid - 1], names[mid])
    assert arc_out.re == enumerate_paths(arc_out.dg) == SopfRe([names[:mid], names[mid:]])
    assert (arc_entry.terms_added, arc_entry.terms_removed) == (2, 1)
    node_out, node_entry = node_omit(state, names[mid])
    assert node_out.re == enumerate_paths(node_out.dg) == SopfRe([names[:mid], names[mid + 1:]])
    assert [step.terms_added for step in node_entry.sub] == [2, 2]


@pytest.mark.parametrize("backward", [False, True])
def test_deep_chain_feeding_a_ladder(backward):
    # forward from the chain's first node, the walk outgrows the graph in
    # the ladder, with the whole chain on its trail; backward from the
    # ladder's end, it goes on in table mode above the chain, which one
    # table word then holds.  Neither raises a RecursionError.
    chain = [f"c{k}" for k in range(10_000)]
    # a ladder of 12 rungs whose first is one node, r0a, fed by the chain
    rungs = [arc for arc in ladder_arcs(12) if arc[0] != "r0b"]
    arcs = list(zip(chain, chain[1:])) + [(chain[-1], "r0a")] + rungs
    g, ladder = arc_graph(arcs), arc_graph(rungs)
    with pytest.MonkeyPatch.context() as mp:
        tabled = count_calls(mp, graph, "_splice_words")
        words = graph._spell_from(g, "r11a" if backward else chain[0], backward)
    assert tabled
    # every word is the chain, then a word of the ladder alone
    spelled = "".join(map(_code, chain))
    assert all(w.startswith(spelled) for w in words)
    assert (sorted(w[len(chain):] for w in words)
            == sorted(graph._spell_from(ladder, "r11a" if backward else "r0a", backward)))
    assert len(words) == 2 ** (10 if backward else 11)


def test_walks_that_never_outgrow_the_graph_stay_trie_walks():
    # no walk on a tree or a chain enters more nodes than the graph has,
    # so none goes on in table mode and none splices a table; nor does a
    # walk across a three-rung ladder beside a chain, which enters two
    # rung nodes twice but no more nodes than the graph has
    tree = arc_graph([(f"t{k // 2}", f"t{k}") for k in range(2, 256)])
    chain = arc_graph([(f"c{k}", f"c{k + 1}") for k in range(4999)])
    ladder = arc_graph(ladder_arcs(3) + [(f"c{k}", f"c{k + 1}") for k in range(9)])
    walks = ([(tree, v) for v in sorted(tree.nodes)] + [(chain, v) for v in ("c0", "c2500", "c4999")]
             + [(ladder, "r0a"), (ladder, "r2b")])
    with pytest.MonkeyPatch.context() as mp:
        spliced = count_calls(mp, graph, "_splice_words")
        for g, v in walks:
            for backward in (False, True):
                assert graph._spell_from(g, v, backward)
    assert not spliced


def test_table_mode_work_is_linear_in_the_graph():
    # the trie walk would visit each of the 2**17 - 1 prefixes of the
    # heads; in table mode every node is expanded at most twice and every
    # further entry splices a table
    arcs = ladder_arcs(16) + [("r15a", "z"), ("r15b", "z")]
    g = arc_graph(arcs)
    counters = OpCounters()
    heads = graph._spell_from(g, "z", True, counters)
    assert len(heads) == len(set(heads)) == 2 ** 16
    assert counters.term_copies == 2 ** 16
    assert counters.symbol_comparisons <= 3 * (len(g.nodes) + len(arcs))


def test_walk_work_on_a_chain_grows_linearly():
    # each node the walks pass is visited once, however deep the chain
    def work(n):
        counters = OpCounters()
        insert_across_the_middle(*chain_state(n), counters)
        return counters.cost()

    assert work(4000) <= 2.05 * work(2000)


# --------------------------------------------------------------------------
# node omission

def test_node_omit_merges_fragments():
    # v's sticky flags make its bare term and the fragments vb and av words
    # of the graph; omitting b joins ab, vb and avb, and brings no
    # fragment back that is not a term already
    st0 = model_from_graph(parse_graph("arc a b"))
    st_, _ = node_insert(st0, "v", outgoing=("b",), ingoing=("a",))
    assert st_.re == sopf("ab", "v", "vb", "av", "avb")
    out, entry = node_omit(st_, "b")
    assert out.re == sopf("v", "av") == enumerate_paths(out.dg)
    assert "b" not in out.dg.nodes
    assert len(entry.sub) == 2


def test_node_omit_isolated():
    st_ = model_from_graph(parse_graph("node v\narc a b"))
    out, _ = node_omit(st_, "v")
    assert out.re == sopf("ab")


@pytest.mark.parametrize("text, node, steps, counted, added, removed, result, work", [
    # a is newly flagged start, so its tails give t(a); b keeps c, so the
    # kernel counts t(b); the last ingoing step drops what h leaves
    ("arc u v\narc v a\narc v b\narc c b\narc a f\narc b f", "v",
     [("(va)o_a", 1, 1), ("(vb)o_a", 1, 1), ("(uv)o_a", 2, 1)],
     [("b", False)], 2, 2, ("af", "u", "cbf"), (8, 2)),
    # v is a start with predecessors: h counts its bare head, which no
    # ingoing step drops; a keeps its arc to b, so the kernel counts pre(a)
    ("arc a v\narc c v\narc v b\narc a b\nstart a\nstart c\nstart v\nfinish b", "v",
     [("(vb)o_a", 3, 3), ("(av)o_a", 0, 1), ("(cv)o_a", 1, 1)],
     [("b", False), ("a", True)], 1, 3, ("ab", "c"), (7, 1)),
    # v is a finish with successors: its bare tail joins the heads, and
    # the last outgoing step re-adds no head
    ("arc a v\narc v b\nstart a\nfinish v\nfinish b", "v",
     [("(vb)o_a", 1, 1), ("(av)o_a", 2, 1)], [], 2, 2, ("b", "a"), (4, 2)),
    ("arc a b", "a", [("(ab)o_a", 2, 1)], [], 1, 1, ("b",), (2, 1)),
    ("arc a b", "b", [("(ab)o_a", 2, 1)], [], 1, 1, ("a",), (2, 1)),
    ("node v\narc a b", "v", [], [], 0, 1, ("ab",), (2, 0)),
], ids=["merge_target", "start_with_predecessors", "finish_with_successors",
        "chain_source", "chain_target", "isolated"])
def test_node_omit_counts_each_step_from_its_source(monkeypatch, text, node, steps, counted,
                                                    added, removed, result, work):
    # each arc step's counts come from the words the operator re-adds, the
    # count kernel or arithmetic, never from a term; the kernel runs only
    # for a neighbour that keeps its flag.  The operator searches each
    # term once and each node its walks and count passes enter, and
    # builds only the words it re-adds
    state = model_from_graph(parse_graph(text))
    kernel = count_calls(monkeypatch, mutate_module, "_count_from")
    counters = OpCounters()
    out, entry = node_omit(state, node, counters)
    assert counters == OpCounters(*work)
    assert [(s.notation, s.terms_added, s.terms_removed) for s in entry.sub] == steps
    assert [args[1:3] for args in kernel] == counted
    assert (entry.terms_added, entry.terms_removed) == (added, removed)
    assert out.re == sopf(*result)
    check_against_composition(state, NodeOmit(node))


def test_node_operators_select_their_node_once(monkeypatch, sample_state):
    # node omission reads every term once, by its node, and no inner arc
    # step reads a term: their counts come from the graph; arc omission
    # scans every term once for its pair; every operator reads its
    # fragments off the graph, so none cuts or merges terms, and node
    # insertion selects and cuts no term
    reads = Counter()

    class SpiedTerm(str):
        """A term that records each search of it."""

        def __contains__(self, sym):
            reads[self] += 1
            return str.__contains__(self, sym)

    spied = ModelState(sample_state.dg, _trusted(tuple(map(SpiedTerm, sample_state.re._terms))))
    unjoined = count_calls(monkeypatch, mutate_module, "_unjoined")
    _, entry = node_omit(spied, "h", OpCounters())
    assert len(entry.sub) == 3
    assert sorted(reads) == sorted(sample_state.re._terms) and set(reads.values()) == {1}
    assert not unjoined
    calls = kernel_calls(sample_state, [NodeOmit("h")], OpCounters())
    assert calls.keys() <= {"_code", "_tally", "_trusted"}
    calls = kernel_calls(sample_state, [ArcOmit("g", "h")], OpCounters())
    assert [args[1:3] for args in unjoined] == [("g", "h")]
    assert not calls.keys() & {"ht", "tt", "set_union"}
    op = NodeInsert("v", ("h", "i"), ("a", "c"))
    calls = kernel_calls(sample_state, [op], OpCounters())
    assert not calls.keys() & {"pt", "ht", "tt"}
    _, entry = node_insert(sample_state, op.node, op.outgoing, op.ingoing)
    assert len(entry.sub) == 4


def test_uncounted_operators_run_no_pair_loop_and_reverse_no_term(sample_state):
    # terms are code-point strings: a pair is one substring search, and
    # every fragment is spelled by the graph walk, so no term is sliced
    steps = []

    class SpiedTerm(str):
        """A term that records the step of every slice taken of it."""

        def __getitem__(self, key):
            if isinstance(key, slice):
                steps.append(key.step)
            return str.__getitem__(self, key)

    spied = ModelState(sample_state.dg, _trusted(tuple(map(SpiedTerm, sample_state.re._terms))))
    ops = [ArcInsert("b", "e"), ArcOmit("c", "d"), ArcOmit("h", "j"),
           NodeInsert("v", ("h",), ("a", "c")), NodeOmit("h"), NodeOmit("g")]
    for op in ops:
        apply_op(spied, op)
    assert not steps


def test_node_omit_unknown(sample_state):
    with pytest.raises(OperationError, match="unknown node"):
        node_omit(sample_state, "zz")


def test_node_omit_matches_graph_side_operator(sample_state):
    out, _ = node_omit(sample_state, "k")
    assert out.dg == apply_dg_op(sample_state.dg, NodeOmit("k"))


# --------------------------------------------------------------------------
# scripts

def test_script_composition(sample_state):
    final, log = apply_script(sample_state, parse_script("(cd)o_a (df)i_a (n)o_n"))
    assert spell(final.re) == set(MUTATED_TERMS)
    expected_arcs = (sample_state.dg.arcs - {("c", "d"), ("k", "n"), ("n", "o")}) \
        | {("d", "f")}
    assert final.dg.arcs == expected_arcs
    assert final.dg.starts == {"a", "o"}
    assert final.dg.finishes == {"q"}
    assert [(e.terms_added, e.terms_removed) for e in log] == \
        [(0, 3), (3, 0), (1, 3)]


def test_operators_sort_only_when_the_result_is_printed(monkeypatch):
    import dagmut.sopf
    sorted_sizes = []
    real = dagmut.sopf._canonical_order

    def counted(terms):
        sorted_sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(dagmut.sopf, "_canonical_order", counted)
    mids = [f"m{k}" for k in range(1000)]
    g = parse_graph("".join(f"arc in0 {m}\narc {m} out0\n" for m in mids))
    script = parse_script("(in0,out0)i_a (m0,out0)o_a (v,{(v,out0),(in0,v)})i_n (m1)o_n")
    final, _ = apply_script(model_from_graph(g), script)
    assert sorted_sizes == []
    text = print_sopf(final.re)
    assert sorted_sizes == [len(final.re)] and len(final.re) > 1000
    assert print_sopf(final.re) == text
    assert len(sorted_sizes) == 1
    assert text.split(" + ") == [".".join(t) for t in sorted(final.re, key=term_key)]


def test_empty_script_is_identity(sample_state):
    final, log = apply_script(sample_state, ())
    assert final == sample_state
    assert len(log) == 0


def test_failing_op_reports_its_index(sample_state):
    with pytest.raises(ScriptError) as err:
        apply_script(sample_state, parse_script("(cd)o_a (qa)i_a"))
    assert err.value.index == 2
    assert "(qa)i_a" in str(err.value)


def test_failed_script_returns_no_partial_state(sample_state):
    before = sample_state
    with pytest.raises(ScriptError):
        apply_script(sample_state, parse_script("(cd)o_a (zz)o_n"))
    assert sample_state == before


# --------------------------------------------------------------------------
# round-trip property (insert then omit the same arc)

@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_insert_then_omit_restores_fresh_states(seed):
    from dagmut.graph import path_exists
    from dagmut.oracle import GenConfig, random_model
    from dagmut.sopf import pt
    g = random_model(GenConfig(node_count=6, arc_density=0.5, seed=seed))
    st_ = model_from_graph(g)
    nodes = sorted(g.nodes)
    candidates = [(u, v) for u in nodes for v in nodes
                  if u != v and (u, v) not in g.arcs and not path_exists(g, v, u)]
    if not candidates:
        return
    u, v = candidates[seed % len(candidates)]
    inserted, _ = arc_insert(st_, u, v)
    joined = pt(inserted.re, (u, v))
    if pt(inserted.re, (u,)) == joined or pt(inserted.re, (v,)) == joined:
        return
    restored, _ = arc_omit(inserted, u, v)
    assert restored == st_

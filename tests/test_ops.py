"""Script notation and the synchronized mutation operators."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmut import (
    ArcInsert,
    ArcOmit,
    GenConfig,
    LogEntry,
    ModelState,
    NaiveLang,
    NodeInsert,
    NodeOmit,
    OpCounters,
    OperationError,
    ParseError,
    ScriptError,
    SopfRe,
    apply_dg_op,
    apply_op,
    apply_script,
    arc_insert,
    arc_omit,
    enumerate_paths,
    equivalent,
    format_op,
    format_script,
    model_from_graph,
    node_insert,
    node_omit,
    parse_graph,
    parse_script,
    print_sopf,
    random_model,
    random_script,
    ref_apply,
)
from dagmut import graph
from dagmut.sopf import add_term, remove_term, term_key

from support import MUTATED_TERMS, count_calls, scripted_models, spell, sopf


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
    with pytest.raises(ValueError, match=r"undeclared nodes: \['z'\]"):
        ModelState(parse_graph("arc a b"), sopf("abz"))


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
    # witnesses the ordering, yet inserting (i, j) would still close a cycle
    g = parse_graph("arc a b\narc j x\narc x i\nstart a\nfinish b")
    st_ = model_from_graph(g)
    with pytest.raises(OperationError, match="not witnessed"):
        arc_insert(st_, "i", "j")


def test_arc_insert_between_isolated_nodes_keeps_old_terms():
    st_ = model_from_graph(parse_graph("node a\nnode b"))
    out, entry = arc_insert(st_, "a", "b")
    assert out.re == sopf("a", "b", "ab")
    assert entry.terms_added == 1


def test_arc_insert_duplicate_arc():
    st_ = model_from_graph(parse_graph("arc a b"))
    with pytest.raises(OperationError, match="already present"):
        arc_insert(st_, "a", "b")


# --------------------------------------------------------------------------
# arc omission

def test_arc_omit_splits_the_single_path():
    st_ = model_from_graph(parse_graph("arc a b\narc b c"))
    out, entry = arc_omit(st_, "b", "c")
    assert out.re == sopf("ab", "c")
    assert entry.terms_removed == 1 and entry.removed_expected == 1
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


@pytest.mark.xfail(strict=True, reason="arc omission flags b, which never had an outgoing "
                   "arc, as finish; no term is added for the new start-finish node b")
def test_arc_omit_keeps_the_graph_language_when_the_target_had_no_outgoing_arc():
    # a is the only start and finish node, so the language is "a"; after
    # the omission b is flagged start (no ingoing arc) and finish (no
    # outgoing arc), so the graph's language is a + b, the expression's a
    out, _ = arc_omit(model_from_graph(parse_graph("arc a b\nstart a\nfinish a")), "a", "b")
    assert out.re == enumerate_paths(out.dg)


def test_arc_omit_missing_arc(sample_state):
    with pytest.raises(OperationError, match="not present"):
        arc_omit(sample_state, "a", "q")


# --------------------------------------------------------------------------
# hand-built states: terms that are not paths of the graph
#
# Operators build their results without re-deduplicating them, checking new
# terms only against the terms they can equal.  These states put such terms
# exactly where a product or a fragment lands.

def rebuilt(re: SopfRe) -> SopfRe:
    """``re`` through the public constructor, after checking that its terms
    are already distinct."""
    assert len(set(re._terms)) == len(re._terms)
    return SopfRe(re._terms)


@pytest.mark.parametrize("terms", [
    ("a", "b", "ab"),
    ("a", "b", "ab", "cb"),
    ("a", "b", "ab", "ac"),
], ids=["selections_equal", "source_selection_smaller", "target_selection_smaller"])
def test_arc_insert_product_equal_to_a_hand_built_term(terms):
    # "ab" is no path while a -> b is missing, and it is the one product;
    # the union checks it against the smaller of the terms holding a and
    # those holding b, and "ab" is in both
    st_ = ModelState(parse_graph("node a\nnode b\nnode c"), sopf(*terms))
    out, entry = arc_insert(st_, "a", "b")
    assert out.re == rebuilt(out.re) == sopf(*terms)
    assert entry.terms_added == 0 and entry.added_bound == 1


def test_arc_omit_keeps_a_hand_built_head_once():
    # "ab" is the head that "abc" would leave, but it holds b without the
    # pair, so no head comes back and "ab" stays once
    st_ = ModelState(parse_graph("arc a b\narc b c"), sopf("abc", "ab"))
    out, entry = arc_omit(st_, "b", "c")
    assert out.re == rebuilt(out.re) == sopf("ab", "c")
    assert (entry.terms_added, entry.terms_removed, entry.added_bound) == (1, 1, 1)


def test_arc_omit_merges_a_head_equal_to_a_tail():
    # both terms hold the pair b c; "cbc" leaves the head "cb" and "bcb" the
    # tail "cb"
    st_ = ModelState(parse_graph("arc b c"), sopf("bcb", "cbc"))
    out, entry = arc_omit(st_, "b", "c")
    assert out.re == rebuilt(out.re) == sopf("b", "cb", "c")
    assert (entry.terms_added, entry.added_bound) == (3, 4)


def test_arc_omit_finds_the_pair_past_a_first_miss():
    # the first b of "babc" is followed by a, the second by c
    st_ = ModelState(parse_graph("arc a b\narc b c"), sopf("babc", "bab"))
    out, entry = arc_omit(st_, "b", "c")
    assert out.re == rebuilt(out.re) == sopf("bab", "c")
    assert entry.removed_expected == 1 and entry.terms_removed == 1


def test_arc_omit_finds_the_last_holder_of_its_target():
    # "cb" is the one term holding b that is not joined; it holds no a and
    # sits last, behind a term that holds neither endpoint
    st_ = ModelState(parse_graph("arc a b\narc c b\nnode d"), sopf("ab", "d", "cb"))
    expected = ref_apply(NaiveLang(list(st_.re._terms)), ArcOmit("a", "b"), st_.dg)
    out, entry = arc_omit(st_, "a", "b")
    assert out.re == rebuilt(out.re) == sopf("a", "d", "cb")
    assert equivalent(out.re, expected)
    # the head "a" comes back, no tail does
    assert (entry.terms_added, entry.terms_removed, entry.added_bound) == (1, 1, 1)


@st.composite
def hand_built_states(draw):
    """A scripted model whose expression also holds terms over its nodes
    that need not be paths and may repeat a symbol."""
    g, script = draw(scripted_models())
    terms = []
    if g.nodes:
        terms = draw(st.lists(st.lists(st.sampled_from(sorted(g.nodes)), min_size=1,
                                       max_size=5).map(tuple), max_size=6))
    re = SopfRe(model_from_graph(g).re._terms + tuple(terms))
    return ModelState(g, re), script


@settings(max_examples=80, deadline=None)
@given(hand_built_states())
def test_operator_results_are_distinct_and_match_the_reference(model):
    state, script = model
    for op in script:
        expected = ref_apply(NaiveLang(list(state.re._terms)), op, state.dg)
        try:
            state, _ = apply_op(state, op)
        except ValueError:
            # node omission refuses a hand-built term left holding the node
            assert isinstance(op, NodeOmit)
            assert any(op.node in w for w in expected.words)
            return
        assert state.re == rebuilt(state.re)
        assert equivalent(state.re, expected)


# Node operators as the step-by-step composition of the public arc
# operators around the bare term: the result, the log entry with every
# inner step, and the counts must all be those of the composition.

def composed_node_insert(state, op, counters):
    work = ModelState(apply_dg_op(state.dg, NodeInsert(op.node)),
                      add_term(state.re, (op.node,), counters))
    sub = []
    for x in op.outgoing:
        work, step = arc_insert(work, op.node, x, counters)
        sub.append(step)
    for y in op.ingoing:
        work, step = arc_insert(work, y, op.node, counters)
        sub.append(step)
    if sub:
        work = ModelState(work.dg, remove_term(work.re, (op.node,), counters))
    return work, sub


def composed_node_omit(state, op, counters):
    work = state
    sub = []
    for x in state.dg.successors(op.node):
        work, step = arc_omit(work, op.node, x, counters)
        sub.append(step)
    for y in state.dg.predecessors(op.node):
        work, step = arc_omit(work, y, op.node, counters)
        sub.append(step)
    # the constructor refuses a term left holding the node
    return ModelState(apply_dg_op(work.dg, op), remove_term(work.re, (op.node,), counters)), sub


def check_against_composition(state, op):
    compose = composed_node_insert if isinstance(op, NodeInsert) else composed_node_omit
    expected_counters, counters = OpCounters(), OpCounters()
    try:
        expected, sub = compose(state, op, expected_counters)
    except (OperationError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            apply_op(state, op, counters)
        assert str(err.value) == str(exc)
        return
    out, entry = apply_op(state, op, counters)
    assert out.dg == expected.dg
    assert out.re == rebuilt(out.re) == expected.re
    before, after = set(state.re._terms), set(out.re._terms)
    assert entry == LogEntry(op, terms_added=len(after - before),
                             terms_removed=len(before - after), sub=tuple(sub))
    assert counters == expected_counters


@settings(max_examples=80, deadline=None)
@given(hand_built_states(), st.data())
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
        try:
            state, _ = apply_op(state, op)
        except ValueError:
            return


def test_node_omit_sees_a_fragment_left_by_an_earlier_step():
    # omitting v -> a leaves the tail "ab", which holds no v; it is then the
    # only other term holding b, so omitting v -> b brings no tail "b" back
    state = model_from_graph(parse_graph("arc v a\narc v b\narc a b"))
    assert state.re == sopf("vab", "vb")
    expected = ref_apply(NaiveLang(list(state.re._terms)), NodeOmit("v"), state.dg)
    out, entry = node_omit(state, "v")
    assert [step.notation for step in entry.sub] == ["(va)o_a", "(vb)o_a"]
    assert [step.terms_added for step in entry.sub] == [1, 1]
    assert out.re == rebuilt(out.re) == sopf("ab")
    assert equivalent(out.re, expected)
    composed, sub = composed_node_omit(state, NodeOmit("v"), None)
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


# The summed counts of a fixed set of seeded runs.  The counts are the cost
# model of the term algebra, so a change that moves them must say so.
PINNED_COUNTS = OpCounters(symbol_comparisons=2002203, term_copies=218212,
                           set_lookups=164149)


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
    st_ = model_from_graph(parse_graph("arc a b"))
    out, entry = node_insert(st_, "v", outgoing=("b",), ingoing=("a",))
    assert out.re == sopf("ab", "vb", "av", "avb")
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
    assert out.re == sopf("ab", "vab")


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
    stranded = model_from_graph(parse_graph("arc a b\narc j x\narc x i\nstart a\nfinish b"))
    with pytest.raises(OperationError, match="cycle .*not witnessed"):
        node_insert(stranded, "v", outgoing=("j",), ingoing=("i",))


def test_insertions_check_reachability_once(monkeypatch):
    import dagmut.graph
    import dagmut.mutate
    calls = []
    real = dagmut.graph.path_exists

    def counted(g, u, v):
        calls.append((u, v))
        return real(g, u, v)

    for module in (dagmut.graph, dagmut.mutate):
        monkeypatch.setattr(module, "path_exists", counted, raising=False)
    st_ = model_from_graph(parse_graph("arc a b\narc b c"))
    arc_insert(st_, "a", "c")
    assert calls == [("c", "a")]
    calls.clear()
    node_insert(st_, "v", outgoing=("c",), ingoing=("a",))
    assert calls == [("c", "v"), ("v", "a")]


# --------------------------------------------------------------------------
# node omission

def test_node_omit_merges_fragments():
    # the four-term state comes from insertion history, not fresh
    # enumeration: the bare fragments vb and av persist
    st0 = model_from_graph(parse_graph("arc a b"))
    st_, _ = node_insert(st0, "v", outgoing=("b",), ingoing=("a",))
    assert st_.re == sopf("ab", "vb", "av", "avb")
    out, entry = node_omit(st_, "b")
    assert out.re == sopf("av")
    assert "b" not in out.dg.nodes
    assert len(entry.sub) == 2


def test_node_omit_isolated():
    st_ = model_from_graph(parse_graph("node v\narc a b"))
    out, _ = node_omit(st_, "v")
    assert out.re == sopf("ab")


def test_node_omit_rejects_a_term_left_holding_the_node():
    # "ab" is not a path of the graph, so omitting a's (absent) arcs
    # leaves it in place
    st_ = ModelState(parse_graph("node a\nnode b"), sopf("ab"))
    with pytest.raises(ValueError, match=r"undeclared nodes: \['a'\]"):
        node_omit(st_, "a")


def test_node_operators_select_their_node_once(monkeypatch, sample_state):
    # node omission splits the expression once, by its node, and its inner
    # arc steps search only the terms holding it; arc omission splits once,
    # by its source; node insertion searches only for its neighbours
    import dagmut.mutate
    scans = []
    real_pt, real_split = dagmut.mutate.pt, dagmut.mutate._split

    def counted_pt(r, pattern, counters=None):
        scans.append(tuple(pattern))
        return real_pt(r, pattern, counters)

    def counted_split(terms, sym):
        scans.append((sym,))
        return real_split(terms, sym)

    monkeypatch.setattr(dagmut.mutate, "pt", counted_pt)
    monkeypatch.setattr(dagmut.mutate, "_split", counted_split)
    _, entry = node_omit(sample_state, "h", OpCounters())
    assert len(entry.sub) == 3
    assert scans == [("h",)]
    scans.clear()
    arc_omit(sample_state, "g", "h", OpCounters())
    assert scans == [("g",)]
    scans.clear()
    _, entry = node_insert(sample_state, "v", ("h", "i"), ("a", "c"), OpCounters())
    assert len(entry.sub) == 4
    assert ("v",) not in scans
    assert sorted(set(scans)) == [("a",), ("c",), ("h",), ("i",)]


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
    from dagmut import GenConfig, random_model, path_exists
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

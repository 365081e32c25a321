"""Graph parsing, validation, path enumeration and graph-side operators."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmut import (
    ArcInsert,
    ArcOmit,
    CycleError,
    Dg,
    NodeInsert,
    NodeOmit,
    OperationError,
    ParseError,
    apply_dg_op,
    enumerate_paths,
    parse_graph,
    path_exists,
    render_graph,
    validate_acyclic,
)
from dagmut.oracle import default_flags, naive_enumerate, topological_order
from dagmut.sopf import term_key

from support import SAMPLE_TERMS, scripted_models, spell


# --------------------------------------------------------------------------
# parsing

def test_single_node_is_start_and_finish():
    g = parse_graph("node a")
    assert g.nodes == {"a"}
    assert not g.arcs
    assert g.starts == {"a"} and g.finishes == {"a"}


def test_sample_file(sample_graph):
    assert len(sample_graph.nodes) == 17
    assert len(sample_graph.arcs) == 20
    assert sample_graph.starts == {"a"}
    assert sample_graph.finishes == {"q"}


def test_arcs_declare_their_endpoints():
    g = parse_graph("arc a b")
    assert g.nodes == {"a", "b"}


def test_self_loop_is_an_error():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("arc a a")


def test_duplicate_arc_is_an_error():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("arc a b\narc a b")


def test_unknown_keyword_and_arity():
    with pytest.raises(ParseError, match="unknown keyword"):
        parse_graph("edge a b")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("arc a")


def test_comments_and_blank_lines_are_ignored():
    g = parse_graph("# heading\n\narc a b  # trailing\n")
    assert g.arcs == {("a", "b")}


def test_explicit_flags_disable_the_degree_default():
    g = parse_graph("arc a b\nnode c\nstart a\nfinish b")
    assert g.starts == {"a"}          # c would be a start by degree
    assert g.finishes == {"b"}        # c would be a finish by degree


def test_flag_on_unknown_node():
    with pytest.raises(ParseError, match="unknown node"):
        parse_graph("node a\nstart b")


def test_bad_symbol_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("node a\nnode x+y")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("arc a b\narc b c\narc c x+y")


@pytest.mark.parametrize("text, message", [
    ("node", "line 1: 'node' takes one id"),
    ("arc a b\nnode a b", "line 2: 'node' takes one id"),
    ("arc a", "line 1: 'arc' takes two ids"),
    ("node a\n\narc a b c", "line 3: 'arc' takes two ids"),
    ("arc a b\nstart", "line 2: 'start' takes one id"),
    ("arc a b\nstart a b", "line 2: 'start' takes one id"),
    ("arc a b\nfinish", "line 2: 'finish' takes one id"),
    ("arc a b\nfinish a b", "line 2: 'finish' takes one id"),
    ("node x+y z", "line 1: 'node' takes one id"),
    ("edge a b", "line 1: unknown keyword 'edge'"),
    ("# a comment\nArc a b", "line 2: unknown keyword 'Arc'"),
    ("arc a b\narc b b", "line 2: self-loop arc on 'b'"),
    ("arc a b\narc b c\narc a b", "line 3: duplicate arc a -> b"),
    ("node a\nstart b", "line 2: flag references unknown node 'b'"),
    ("node a\nfinish b", "line 2: flag references unknown node 'b'"),
    # start lines are checked before finish lines
    ("node a\nfinish z\nstart y", "line 3: flag references unknown node 'y'"),
    ("node a\nnode x+y", "line 2: symbol 'x+y' contains reserved character '+'"),
    ("arc a b\narc b c\narc c x(y", "line 3: symbol 'x(y' contains reserved character '('"),
    ("arc a.b c", "line 1: symbol 'a.b' contains reserved character '.'"),
    ("node a\nstart a,b", "line 2: symbol 'a,b' contains reserved character ','"),
    ("node EMPTY", "line 1: 'EMPTY' is reserved for the empty expression"),
])
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].removeprefix("line "))


def test_layout_does_not_change_the_parsed_graph():
    plain = "node z\narc a b\narc b c\narc a c\nstart a\nstart b\nfinish c\nfinish b\n"
    spaced = ("# a model\n\n\tnode\tz\n  arc a   b  # first arc\n# arc x y\n"
              "arc\tb c\t\n\n   \narc a c#no space\nstart a\n  start b  \n"
              "finish c # end\nfinish\tb\n# trailing comment")
    g = parse_graph(plain)
    assert g == parse_graph(spaced) == parse_graph(plain.replace("\n", "\r\n"))
    assert render_graph(g) == render_graph(parse_graph(spaced))
    assert g.starts == {"a", "b"} and g.finishes == {"b", "c"}
    assert parse_graph("start a\narc a b") == parse_graph("arc a b\nstart a")


def test_parsed_graph_builds_its_predecessor_index_on_first_read(sample_graph):
    for g in (sample_graph, parse_graph("arc b a\narc c a\nnode d\narc a e\nstart b")):
        assert "_pred" not in vars(g)
        assert_index_matches_arcs(g)
        assert "_pred" in vars(g)


def test_parse_keeps_one_string_per_name():
    g = parse_graph("node n1\narc n1 n2\narc n2 n3\narc n1 n3\nstart n1")
    names = {id(v) for v in g.nodes}
    assert {id(v) for arc in g.arcs for v in arc} <= names
    assert {id(v) for v in g.starts | g.finishes} <= names


# --------------------------------------------------------------------------
# construction

def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError, match="reserved character"):
        Dg({"a", "x+y"})
    with pytest.raises(ValueError, match="undeclared node"):
        Dg({"a"}, {("a", "b")})
    with pytest.raises(ValueError, match="self-loop"):
        Dg({"a"}, {("a", "a")})
    with pytest.raises(ValueError, match="flag on an undeclared node"):
        Dg({"a"}, set(), {"b"})


# --------------------------------------------------------------------------
# acyclicity

def test_sample_graph_is_acyclic(sample_graph):
    assert validate_acyclic(sample_graph) is None


def test_two_cycle_witness():
    g = Dg({"a", "b"}, {("a", "b"), ("b", "a")}, set(), set())
    assert validate_acyclic(g) == ("a", "b", "a")


def test_empty_graph_is_acyclic():
    assert validate_acyclic(Dg()) is None


def _sort_based_kahn(g):
    """Reference Kahn order: re-sort the ready list after each pop and scan
    the arc set for neighbours."""
    indeg = {v: sum(1 for _, w in g.arcs if w == v) for v in g.nodes}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in sorted(w for u, w in g.arcs if u == v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    return order


def test_topological_order_pops_the_smallest_ready_node(sample_graph):
    cyclic = Dg({"a", "b", "c", "d", "e"}, {("a", "b"), ("b", "c"), ("c", "b"), ("a", "e")})
    for g in (sample_graph, cyclic, Dg(), parse_graph("arc b a\narc c a\nnode d")):
        assert topological_order(g) == _sort_based_kahn(g)
    assert topological_order(cyclic) == ["a", "d", "e"]


@st.composite
def digraphs(draw):
    """A graph on up to six nodes with any arcs but self-loops, so cyclic
    ones are drawn too."""
    names = "abcdef"[:draw(st.integers(0, 6))]
    pairs = [(u, v) for u in names for v in names if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Dg(set(names), arcs)


@settings(max_examples=150)
@given(digraphs())
def test_validate_acyclic_agrees_with_the_oracle_order(g):
    witness = validate_acyclic(g)
    assert (witness is None) == (len(topological_order(g)) == len(g.nodes))
    if witness is not None:
        assert witness[0] == witness[-1]
        assert all((u, v) in g.arcs for u, v in zip(witness, witness[1:]))


@settings(max_examples=100)
@given(digraphs())
def test_parse_graph_flags_by_the_degree_rule(g):
    text = "".join(line + "\n" for line in render_graph(g).splitlines()
                   if not line.startswith(("start", "finish")))
    parsed = parse_graph(text)
    assert (parsed.starts, parsed.finishes) == default_flags(g.nodes, g.arcs)
    assert parsed == Dg(g.nodes, g.arcs, *default_flags(g.nodes, g.arcs))


def test_longer_cycle_witness_is_closed():
    g = Dg({"a", "b", "c", "d"},
           {("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")},
           {"d"}, set())
    witness = validate_acyclic(g)
    assert witness is not None
    assert witness[0] == witness[-1]
    for u, v in zip(witness, witness[1:]):
        assert (u, v) in g.arcs


# --------------------------------------------------------------------------
# reachability

def test_path_exists_examples(sample_graph):
    assert path_exists(sample_graph, "a", "q")
    assert not path_exists(sample_graph, "q", "a")
    assert path_exists(sample_graph, "g", "g")


def test_path_exists_unknown_node(sample_graph):
    with pytest.raises(OperationError):
        path_exists(sample_graph, "a", "zz")


# --------------------------------------------------------------------------
# enumeration

def test_sample_language(sample_graph):
    assert spell(enumerate_paths(sample_graph)) == set(SAMPLE_TERMS)


def test_single_node_language():
    assert spell(enumerate_paths(parse_graph("node a"))) == {"a"}


def test_small_fanout():
    assert spell(enumerate_paths(parse_graph("arc a b\narc a c"))) == {"ab", "ac"}


def test_empty_graph_language():
    assert enumerate_paths(Dg()) == enumerate_paths(parse_graph(""))
    assert len(enumerate_paths(Dg())) == 0


def test_cyclic_graph_rejected():
    with pytest.raises(CycleError):
        enumerate_paths(Dg({"a", "b"}, {("a", "b"), ("b", "a")}, {"a"}, {"b"}))


def test_interior_finish_yields_prefix_terms():
    g = parse_graph("arc a b\narc b c\nstart a\nfinish b\nfinish c")
    assert spell(enumerate_paths(g)) == {"ab", "abc"}


# --------------------------------------------------------------------------
# graph-side operators

def test_arc_omit_flags_unchanged_when_degrees_stay_positive(sample_graph):
    g = apply_dg_op(sample_graph, ArcOmit("c", "d"))
    assert g.arcs == sample_graph.arcs - {("c", "d")}
    assert g.starts == sample_graph.starts
    assert g.finishes == sample_graph.finishes


def test_arc_omit_promotes_stranded_endpoints():
    g0 = parse_graph("arc a b\narc b c")
    g = apply_dg_op(g0, ArcOmit("b", "c"))
    assert g.arcs == {("a", "b")}
    assert g.starts == {"a", "c"}
    assert g.finishes == {"b", "c"}


def test_node_omit_removes_incident_arcs(sample_graph):
    g = apply_dg_op(sample_graph, ArcOmit("c", "d"))
    g = apply_dg_op(g, ArcInsert("d", "f"))
    g = apply_dg_op(g, NodeOmit("n"))
    assert "n" not in g.nodes
    assert ("k", "n") not in g.arcs and ("n", "o") not in g.arcs
    assert "o" in g.starts
    assert len(g.arcs) == 18


def test_node_insert_flags_both_ways():
    g = apply_dg_op(parse_graph("arc a b"), NodeInsert("v", ("b",), ("a",)))
    assert g.arcs == {("a", "b"), ("v", "b"), ("a", "v")}
    assert "v" in g.starts and "v" in g.finishes


def test_operator_precondition_errors(sample_graph):
    with pytest.raises(OperationError):
        apply_dg_op(sample_graph, ArcInsert("a", "b"))      # already present
    with pytest.raises(OperationError):
        apply_dg_op(sample_graph, ArcInsert("q", "a"))      # would cycle
    with pytest.raises(OperationError):
        apply_dg_op(sample_graph, ArcOmit("a", "q"))        # not present
    with pytest.raises(OperationError):
        apply_dg_op(sample_graph, NodeInsert("a"))          # exists
    with pytest.raises(OperationError):
        apply_dg_op(sample_graph, NodeOmit("zz"))           # unknown
    with pytest.raises(OperationError):
        apply_dg_op(parse_graph("arc a b"), NodeInsert("v", ("a",), ("b",)))


# --------------------------------------------------------------------------
# rendering

def test_render_single_node():
    assert render_graph(parse_graph("node a")) == "node a\nstart a\nfinish a\n"


def test_render_empty_graph():
    assert render_graph(Dg()) == ""


def test_render_round_trip(sample_graph):
    assert parse_graph(render_graph(sample_graph)) == sample_graph


# --------------------------------------------------------------------------
# properties

@st.composite
def dags(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    names = list("abcdef"[:n])
    order = draw(st.permutations(names))
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs.add((order[i], order[j]))
    starts, finishes = default_flags(frozenset(names), frozenset(arcs))
    return Dg(frozenset(names), frozenset(arcs), starts, finishes)


@settings(max_examples=60)
@given(dags())
def test_generated_graphs_are_acyclic_and_round_trip(g):
    assert validate_acyclic(g) is None
    assert parse_graph(render_graph(g)) == g


@settings(max_examples=60)
@given(dags())
def test_enumerated_terms_walk_arcs_without_repeats(g):
    for term in enumerate_paths(g):
        assert len(set(term)) == len(term)
        for u, v in zip(term, term[1:]):
            assert (u, v) in g.arcs


@settings(max_examples=40)
@given(dags(), st.integers(0, 5), st.integers(0, 5))
def test_path_exists_is_transitive_over_arcs(g, i, j):
    nodes = sorted(g.nodes)
    if not nodes:
        return
    u, v = nodes[i % len(nodes)], nodes[j % len(nodes)]
    assert path_exists(g, u, u)
    if path_exists(g, u, v):
        for w in g.successors(v):
            assert path_exists(g, u, w)


def assert_index_matches_arcs(g):
    for v in g.nodes | {"absent"}:
        assert g.successors(v) == sorted(w for u, w in g.arcs if u == v)
        assert g.predecessors(v) == sorted(u for u, w in g.arcs if w == v)
        assert g.out_degree(v) == sum(1 for u, _ in g.arcs if u == v)
        assert g.in_degree(v) == sum(1 for _, w in g.arcs if w == v)


@settings(max_examples=60, deadline=None)
@given(scripted_models())
def test_derived_graphs_keep_their_index_exact(model):
    g, script = model
    assert_index_matches_arcs(g)
    for op in script:
        g = apply_dg_op(g, op)
        assert_index_matches_arcs(g)
        assert "_succ" not in repr(g) and "_pred" not in repr(g)
        for same in (Dg(g.nodes, g.arcs, g.starts, g.finishes), parse_graph(render_graph(g))):
            assert g == same and hash(g) == hash(same)
            assert_index_matches_arcs(same)
            assert topological_order(same) == topological_order(g)
        assert validate_acyclic(g) is None
        assert topological_order(g) == _sort_based_kahn(g)


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
    # the order of name sequences differs from that of their spellings
    names = draw(st.lists(st.text("ab1", min_size=1, max_size=3),
                          min_size=len(nodes), max_size=len(nodes), unique=True))
    rename = dict(zip(nodes, names))
    extra = st.sets(st.sampled_from(nodes)) if nodes else st.just(set())
    starts = g.starts | draw(extra)
    finishes = g.finishes | draw(extra)
    return Dg({rename[v] for v in g.nodes}, {(rename[a], rename[b]) for a, b in g.arcs},
              {rename[v] for v in starts}, {rename[v] for v in finishes})


@settings(max_examples=150, deadline=None)
@given(flagged_models())
def test_enumerated_terms_come_out_in_canonical_order(g):
    re = enumerate_paths(g)
    assert re._canonical
    assert re._terms == tuple(sorted(re._terms, key=term_key))
    naive = naive_enumerate(g)
    assert len(re._terms) == len(naive) and set(re._terms) == set(naive)

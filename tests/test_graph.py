"""Graph parsing, validation, path enumeration and graph-side operators."""
import itertools
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmut import graph
from dagmut import (
    ArcInsert,
    ArcOmit,
    CycleError,
    NodeInsert,
    NodeOmit,
    OperationError,
    ParseError,
    parse_graph,
)
from dagmut.graph import (
    Dg,
    apply_dg_op,
    enumerate_paths,
    path_exists,
    render_graph,
    render_paths,
    topological_order,
    validate_acyclic,
)
from dagmut.mutate import ModelState, apply_op, model_from_graph
from dagmut.oracle import (
    MAX_GEN_NODES,
    GenConfig,
    _ref_edit,
    default_flags,
    naive_enumerate,
    random_model,
    random_script,
)
from dagmut.sopf import print_sopf, term_key

from support import SAMPLE_TERMS, built, flagged_models, scripted_models, spell


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


def test_graphs_are_immutable_values_with_a_sorted_repr():
    g = Dg(["b", "a"], [("a", "b"), ("a", "b")], ["a"], ["b"])
    assert repr(g) == ("Dg(nodes=frozenset({'a', 'b'}), arcs=frozenset({('a', 'b')}), "
                       "starts=frozenset({'a'}), finishes=frozenset({'b'}))")
    assert repr(Dg()) == ("Dg(nodes=frozenset(), arcs=frozenset(), starts=frozenset(), "
                          "finishes=frozenset())")
    assert g == parse_graph("arc a b") and hash(g) == hash(parse_graph("arc a b"))
    assert g != Dg({"a", "b"}, set(), {"a"}, {"b"}) and g != "a -> b"
    with pytest.raises(FrozenInstanceError):
        g.nodes = frozenset()
    with pytest.raises(FrozenInstanceError):
        del g.starts


# --------------------------------------------------------------------------
# acyclicity

def test_sample_graph_is_acyclic(sample_graph):
    assert validate_acyclic(sample_graph) is None


def test_two_cycle_witness():
    g = Dg({"a", "b"}, {("a", "b"), ("b", "a")}, set(), set())
    assert validate_acyclic(g) == ("a", "b", "a")


def test_empty_graph_is_acyclic():
    assert validate_acyclic(Dg()) is None


def _queue_kahn(g):
    """Reference Kahn order: a first-in first-out queue from the sorted
    sources; each node taken out scans the arc set for its successors and
    visits them in sorted order."""
    indeg = {v: sum(1 for _, w in g.arcs if w == v) for v in g.nodes}
    queue = sorted(v for v, d in indeg.items() if d == 0)
    for v in queue:
        for w in sorted(w for u, w in g.arcs if u == v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return queue


def test_topological_order_is_a_queue_from_the_sorted_sources(sample_graph):
    cyclic = Dg({"a", "b", "c", "d", "e"}, {("a", "b"), ("b", "c"), ("c", "b"), ("a", "e")})
    for g in (sample_graph, cyclic, Dg(), parse_graph("arc b a\narc c a\nnode d")):
        assert topological_order(g) == _queue_kahn(g)
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
    order = topological_order(g)
    assert (witness is None) == (len(order) == len(g.nodes))
    if witness is None:
        position = {v: k for k, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.arcs)
    else:
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


def folded(g, op):
    """The node operator ``op`` on ``g`` as the fold of its arc steps: the
    bare node, then its outgoing arcs, then its ingoing ones; or its
    outgoing arcs, then its ingoing ones, then the node dropped."""
    if isinstance(op, NodeInsert):
        g = apply_dg_op(g, NodeInsert(op.node))
        steps = [ArcInsert(op.node, x) for x in op.outgoing]
        steps += [ArcInsert(y, op.node) for y in op.ingoing]
        for step in steps:
            g = apply_dg_op(g, step)
        return g
    if op.node not in g.nodes:
        raise OperationError(f"unknown node {op.node!r}")
    for x in g.successors(op.node):
        g = apply_dg_op(g, ArcOmit(op.node, x))
    for y in g.predecessors(op.node):
        g = apply_dg_op(g, ArcOmit(y, op.node))
    gone = {op.node}
    return Dg(g.nodes - gone, g.arcs, g.starts - gone, g.finishes - gone)


@st.composite
def flagged_random_models(draw):
    """A random model, after a few steps of its script, with its flags as
    the steps left them (trim), with more flags on top (trim) or with
    flags drawn freely (often not trim)."""
    cfg = GenConfig(node_count=draw(st.integers(0, MAX_GEN_NODES)),
                    arc_density=draw(st.floats(0.0, 1.0)),
                    seed=draw(st.integers(0, 2**32)),
                    script_length=draw(st.integers(0, 3)))
    g = random_model(cfg)
    for op in random_script(cfg, g):
        g = apply_dg_op(g, op)
    flags = st.sets(st.sampled_from(sorted(g.nodes))) if g.nodes else st.just(set())
    how = draw(st.sampled_from(["kept", "added", "free"]))
    if how == "added":
        return Dg(g.nodes, g.arcs, g.starts | draw(flags), g.finishes | draw(flags))
    if how == "free":
        return Dg(g.nodes, g.arcs, draw(flags), draw(flags))
    return g


@st.composite
def node_ops(draw, g):
    """A node operator on ``g``'s nodes or new ones: "V", "Y" and "Z" are
    never nodes of a random model, so they are unknown, and they sort
    before its nodes."""
    names = sorted(g.nodes) + ["Y", "Z"]
    node = draw(st.sampled_from(names + ["V"]))
    if draw(st.booleans()):
        return NodeOmit(node)
    others = st.lists(st.sampled_from([n for n in names if n != node]), max_size=4, unique=True)
    return NodeInsert(node, tuple(draw(others)), tuple(draw(others)))


@settings(max_examples=300, deadline=None)
@given(flagged_random_models(), st.data())
def test_node_operators_equal_the_fold_of_their_arc_steps(g, data):
    op = data.draw(node_ops(g))
    try:
        expected = folded(g, op)
    except OperationError as exc:
        with pytest.raises(OperationError) as err:
            apply_dg_op(g, op)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
    else:
        out = apply_dg_op(g, op)
        assert out == expected
        assert_index_matches_arcs(out, expected.arcs)


#: what a graph holds once it is flat: a root's sets and indexes, and the
#: views a derived graph builds on their first read
FLAT_VIEWS = {"nodes", "starts", "finishes", "arcs", "_succ", "_pred"}


@settings(max_examples=60, deadline=None)
@given(scripted_models())
def test_operators_copy_only_what_they_change(model):
    # a derived child shares its parent's root and every change set the
    # operator leaves as it was, and holds no flat view; a child flattened
    # by an arc operator shares its root's node set unless nodes changed
    # since that root; no child inherits the arc set its parent derived
    g, script = model
    for op in script:
        g.arcs
        child = apply_dg_op(g, op)
        if child._root is None:
            if isinstance(op, (ArcInsert, ArcOmit)) and not (g._inserted or g._omitted):
                assert child.nodes is (g._root or g).nodes
        else:
            assert child._root is (g._root or g)
            assert not FLAT_VIEWS & vars(child).keys()
            for name in ("_inserted", "_omitted", "_dstarts", "_dfinishes"):
                if getattr(child, name) == getattr(g, name):
                    assert getattr(child, name) is getattr(g, name)
        assert child.arcs == frozenset((v, w) for v, ws in child._succ.items() for w in ws)
        g = child


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


@st.composite
def freely_flagged_dags(draw):
    """A graph of :func:`dags` under two-character names (so that
    :func:`enumerate_paths` takes the shared-node walk) with freely drawn
    flags: a node without predecessors may be no start, which leaves it
    and the nodes only it reaches unexpanded."""
    g = draw(dags())
    rename = {v: v + "0" for v in g.nodes}
    flags = st.sets(st.sampled_from(sorted(rename.values()))) if g.nodes else st.just(set())
    return Dg(set(rename.values()), {(rename[a], rename[b]) for a, b in g.arcs},
              draw(flags), draw(flags))


@settings(max_examples=150, deadline=None)
@given(freely_flagged_dags())
def test_walk_agrees_with_the_naive_walk_under_any_flags(g):
    re = enumerate_paths(g)
    terms = built(re)
    assert terms == sorted(terms, key=term_key)
    naive = naive_enumerate(g)
    assert len(terms) == len(naive) and set(terms) == set(naive)
    assert render_paths(g, dotted=True) == print_sopf(re, dotted=True)


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


def assert_index_matches_arcs(g, arcs=None):
    """Both halves of ``g``'s index hold exactly ``arcs`` (``g.arcs``, which
    is read off the successor half, if not given)."""
    arcs = g.arcs if arcs is None else arcs
    for v in g.nodes | {"absent"}:
        assert g.successors(v) == sorted(w for u, w in arcs if u == v)
        assert g.predecessors(v) == sorted(u for u, w in arcs if w == v)
        assert g.out_degree(v) == sum(1 for u, _ in arcs if u == v)
        assert g.in_degree(v) == sum(1 for _, w in arcs if w == v)


@settings(max_examples=60, deadline=None)
@given(scripted_models())
def test_derived_graphs_keep_their_index_exact(model):
    # each derived graph holds the arcs of the reference edit, which
    # builds its graph with the constructor from plain sets; it is the same
    # value as a graph built by the constructor or read from its text
    g, script = model
    ref = g
    assert_index_matches_arcs(g)
    for op in script:
        g, ref = apply_dg_op(g, op), _ref_edit(ref, op)
        assert_index_matches_arcs(g, ref.arcs)
        assert "_succ" not in repr(g) and "_pred" not in repr(g)
        listed = (sorted(s, reverse=True) for s in (g.nodes, ref.arcs, g.starts, g.finishes))
        for same in (ref, Dg(*listed), parse_graph(render_graph(g))):
            assert g == same and hash(g) == hash(same)
            assert repr(g) == repr(same) and render_graph(g) == render_graph(same)
            assert_index_matches_arcs(same, ref.arcs)
            assert topological_order(same) == topological_order(g)
        assert validate_acyclic(g) is None
        assert topological_order(g) == _queue_kahn(g)


@settings(max_examples=150, deadline=None)
@given(flagged_models())
def test_enumerated_terms_come_out_in_canonical_order(g):
    re = enumerate_paths(g)
    assert re._canonical
    terms = built(re)
    assert terms == sorted(terms, key=term_key)
    naive = naive_enumerate(g)
    assert len(terms) == len(naive) and set(terms) == set(naive)


# --------------------------------------------------------------------------
# derived graphs: a root's sets and indexes shared, the changes since it held

def tree_model(n, seed):
    """The model of a random tree on ``n`` nodes named ``t0``.. with root
    ``t0``, flagged by the degree rule."""
    rng = random.Random(seed)
    text = "".join(f"arc t{rng.randrange(k)} t{k}\n" for k in range(1, n))
    return model_from_graph(parse_graph(text))


def random_ops(g, length, seed):
    """A script of ``length`` operators of every kind, each valid where it
    applies on ``g``; a third of the way through it omits a node, and two
    thirds of the way through it inserts that name again.  Built on a copy
    of ``g``, so that the graphs its steps derive stay unread."""
    rng = random.Random(seed)
    cur = pickle.loads(pickle.dumps(g))
    fresh = (f"f{k}" for k in itertools.count())
    script, gone = [], None
    for step in range(length):
        nodes = sorted(cur.nodes)
        if step == length // 3:
            gone = rng.choice(nodes)
            op = NodeOmit(gone)
        else:
            kind = "node_insert" if step == 2 * length // 3 else rng.choice(
                ["arc_insert", "arc_insert", "arc_omit", "node_insert", "node_insert", "node_omit"])
            op = None
            if kind == "arc_insert":
                for _ in range(20):
                    u, v = rng.sample(nodes, 2)
                    if v not in cur.successors(u) and not path_exists(cur, v, u):
                        op = ArcInsert(u, v)
                        break
            elif kind == "arc_omit" and cur.arcs:
                op = ArcOmit(*rng.choice(sorted(cur.arcs)))
            elif kind == "node_omit" and len(nodes) > 2:
                op = NodeOmit(rng.choice(nodes))
            if op is None:
                # a node insertion, always valid: ingoing neighbours from
                # the front of a topological order, outgoing from the back
                name = gone if step == 2 * length // 3 else next(fresh)
                order = topological_order(cur)
                pivot = rng.randint(0, len(order))
                ingoing = rng.sample(order[:pivot], min(pivot, rng.randint(0, 2)))
                outgoing = rng.sample(order[pivot:], min(len(order) - pivot, rng.randint(0, 2)))
                op = NodeInsert(name, tuple(outgoing), tuple(ingoing))
        cur = apply_dg_op(cur, op)
        script.append(op)
    return script


def count_flattens(monkeypatch):
    """Count the calls of the flatten helper for the test; returns the
    list of the derived graphs it flattens."""
    flattened = []
    flatten = graph._flatten
    monkeypatch.setattr(graph, "_flatten", lambda g: flattened.append(g) or flatten(g))
    return flattened


def outgrown(g):
    """Whether the flatten rule fires on the changes of the derived ``g``."""
    touched = len(g._dsucc) + len(g._dpred)
    return touched > graph._FLATTEN_MIN and touched > g._root._size >> graph._FLATTEN_SHIFT


def assert_derived_as_the_rule_says(g, flattened, before):
    """``g``, just derived, is a root iff the flatten helper ran once for
    it, on changes that the rule says outgrew its root; otherwise it holds
    no flat view and its changes have not outgrown the root."""
    if len(flattened) > before:
        assert len(flattened) == before + 1 and outgrown(flattened[-1])
        assert g._root is None and FLAT_VIEWS - {"arcs"} <= vars(g).keys()
    else:
        assert g._root is not None and not outgrown(g)
        assert not FLAT_VIEWS & vars(g).keys()


def assert_same_graph(g, ref):
    """``g`` is the graph ``ref`` in every reading: value, hash, text, its
    neighbours node by node, topological order, and after a pickle round
    trip.  ``g``'s changes are read before any of its flat views."""
    succ, pred = {}, {}
    for u, v in sorted(ref.arcs):
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
    copy = pickle.loads(pickle.dumps(g))
    for v in ref.nodes | {"absent"}:
        for h in (g, copy):
            assert h.successors(v) == succ.get(v, []) and h.out_degree(v) == len(succ.get(v, ()))
            assert h.predecessors(v) == pred.get(v, []) and h.in_degree(v) == len(pred.get(v, ()))
    for h in (g, copy):
        assert h == ref and hash(h) == hash(ref) and repr(h) == repr(ref)
        assert render_graph(h) == render_graph(ref)
        assert topological_order(h) == topological_order(ref)


@pytest.mark.parametrize("size, length, seed", [(12, 90, 1), (12, 90, 2), (240, 70, 3)])
def test_derived_graphs_equal_rebuilt_ones(monkeypatch, size, length, seed):
    # a chain long enough to cross the flatten point: each graph is the
    # reference edit's, and equals its own rebuild; an operator on it gives
    # the state and log entry it gives on the rebuilt graph
    flattened = count_flattens(monkeypatch)
    if size == 12:
        first = random_model(GenConfig(node_count=12, arc_density=0.2, seed=seed))
        st_ = model_from_graph(first)
    else:
        st_ = tree_model(size, seed)
    script = random_ops(st_.dg, length, seed)
    ref = st_.dg
    roots = derived = 0
    for op in script:
        before = len(flattened)
        rebuilt = ModelState(Dg(st_.dg.nodes, st_.dg.arcs, st_.dg.starts, st_.dg.finishes), st_.re)
        nxt, entry = apply_op(st_, op)
        assert_derived_as_the_rule_says(nxt.dg, flattened, before)
        roots += nxt.dg._root is None
        derived += nxt.dg._root is not None
        ref = _ref_edit(ref, op)
        assert_same_graph(nxt.dg, ref)
        g = nxt.dg
        assert g == Dg(g.nodes, g.arcs, g.starts, g.finishes)
        assert apply_op(rebuilt, op) == (nxt, entry)
        st_ = nxt
    assert roots and derived


def test_operators_pay_no_copy_of_the_graph(monkeypatch):
    # on a tree of 10^4 nodes, no operator builds a flat set or index: each
    # derived graph holds its changes and its root's references only
    flattened = count_flattens(monkeypatch)
    st_ = tree_model(10_000, 5)
    script = random_ops(st_.dg, 50, 5)
    assert {type(op) for op in script} == {ArcInsert, ArcOmit, NodeInsert, NodeOmit}
    for op in script:
        before = len(flattened)
        st_, _ = apply_op(st_, op)
        assert_derived_as_the_rule_says(st_.dg, flattened, before)
    assert not flattened
    assert st_.dg._root._size == 10_000


def test_threads_share_states_and_derived_graphs():
    # more threads than cores apply their scripts from one state and read
    # the flat views of graphs derived from it, all built while they run;
    # they see what one thread sees
    base = tree_model(200, 7)
    shared = []
    g = base.dg
    for op in random_ops(base.dg, 12, 70):
        g = apply_dg_op(g, op)
        shared.append(g)
    scripts = [random_ops(base.dg, 10, 71 + k) for k in range(8)]

    def work(state, graphs, script):
        readings = [(hash(h), repr(h), sorted(h._pred.items()), topological_order(h))
                    for h in graphs]
        entries = []
        for op in script:
            state, entry = apply_op(state, op)
            entries.append(entry)
        return readings, render_graph(state.dg), print_sopf(state.re), entries

    # the sequential run reads copies, so the threads meet unbuilt views
    expected = [work(*pickle.loads(pickle.dumps((base, shared))), script) for script in scripts]
    results: dict[int, object] = {}

    def run(k):
        try:
            results[k] = work(base, shared[k % 3:] + shared[:k % 3], scripts[k])
        except Exception as exc:  # reported below, with the thread's number
            results[k] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(scripts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, want in enumerate(expected):
        readings, *rest = want
        k_readings = readings[k % 3:] + readings[:k % 3]
        assert results[k] == (k_readings, *rest)

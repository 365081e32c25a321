"""The naive reference, random generators and the differential harness."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings

from dagmut import (
    ArcInsert,
    ArcOmit,
    NodeInsert,
    NodeOmit,
    ModelError,
    MutationOp,
    OperationError,
    model_from_graph,
    parse_graph,
)
from dagmut import mutate as mutate_module
from dagmut import oracle as oracle_module
from dagmut.graph import (
    Dg,
    apply_dg_op,
    enumerate_paths,
    path_exists,
    topological_order,
    validate_acyclic,
)
from dagmut.oracle import (
    MAX_GEN_NODES,
    GenConfig,
    NaiveLang,
    equivalent,
    random_model,
    random_script,
    ref_apply,
    run_differential,
)
from dagmut.sopf import SopfRe
from dagmut.mutate import _state
from dagmut.oracle import (
    _NAMES,
    _invariant_violations,
    _reach_rows,
    naive_enumerate,
)

from support import count_calls, scripted_models, sopf


def words(*ws: str) -> NaiveLang:
    return NaiveLang([tuple(w) for w in ws])


# --------------------------------------------------------------------------
# reference semantics

def test_ref_arc_insert():
    g = parse_graph("arc a b\narc b c")
    out = ref_apply(words("abc"), ArcInsert("a", "c"), g)
    assert equivalent(sopf("abc", "ac"), out)


def test_ref_arc_omit():
    g = parse_graph("arc a b\narc b c")
    out = ref_apply(words("abc"), ArcOmit("b", "c"), g)
    assert equivalent(sopf("ab", "c"), out)


def test_ref_node_omit_isolated():
    g = parse_graph("node v\narc a b")
    out = ref_apply(words("ab", "v"), NodeOmit("v"), g)
    assert equivalent(sopf("ab"), out)


def test_ref_node_insert():
    g = parse_graph("arc a b")
    out = ref_apply(words("ab"), NodeInsert("v", ("b",), ("a",)), g)
    # v keeps its start and finish flags, so its bare term stays
    assert equivalent(sopf("ab", "v", "vb", "av", "avb"), out)


def test_ref_mirrors_preconditions():
    g = parse_graph("arc a b")
    with pytest.raises(OperationError):
        ref_apply(words("ab"), ArcInsert("b", "a"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), ArcOmit("b", "a"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), NodeOmit("v"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), ArcInsert("a", "b"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), ArcInsert("a", "v"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), NodeInsert("a"), g)
    with pytest.raises(OperationError):
        ref_apply(words("ab"), NodeInsert("v", ("b",), ("u",)), g)


# --------------------------------------------------------------------------
# equivalence predicate

def test_equivalent_is_order_insensitive():
    assert equivalent(sopf("ab", "c"), words("c", "ab"))
    assert not equivalent(sopf("ab"), words("ab", "c"))
    assert equivalent(SopfRe(), NaiveLang())


# --------------------------------------------------------------------------
# initial cross-check

def test_cross_check_sample_model(sample_graph):
    expected = naive_enumerate(sample_graph)
    assert equivalent(model_from_graph(sample_graph).re, NaiveLang(expected))
    assert len(expected) == 9


def test_cross_check_random_models():
    for seed in range(30):
        g = random_model(GenConfig(node_count=seed % 10, arc_density=0.6, seed=seed))
        assert equivalent(model_from_graph(g).re, NaiveLang(naive_enumerate(g)))


def test_cross_check_with_stranded_node():
    # explicit flags leave c unreachable; both enumerations agree it
    # appears in no word, so the graph makes no model
    g = parse_graph("arc a b\nnode c\nstart a\nfinish b")
    actual = enumerate_paths(g)
    assert equivalent(actual, NaiveLang(naive_enumerate(g)))
    assert all("c" not in word for word in actual.terms)
    with pytest.raises(ModelError, match="node 'c' lies on no start-to-finish path"):
        model_from_graph(g)


def test_naive_enumeration_matches_sample(sample_graph):
    assert len(naive_enumerate(sample_graph)) == 9


def test_cross_check_long_chain():
    # deeper than the interpreter's default recursion limit
    names = [f"n{k}" for k in range(1500)]
    g = parse_graph("".join(f"arc {u} {v}\n" for u, v in zip(names, names[1:])))
    expected = naive_enumerate(g)
    assert equivalent(model_from_graph(g).re, NaiveLang(expected))
    assert expected == [tuple(names)]


# --------------------------------------------------------------------------
# generators

def test_random_model_empty():
    g = random_model(GenConfig(node_count=0))
    assert not g.nodes and not g.arcs


def test_random_model_full_density():
    g = random_model(GenConfig(node_count=5, arc_density=1.0, seed=7))
    assert len(g.arcs) == 10          # all forward pairs of the permutation


def test_random_model_is_deterministic_and_acyclic():
    for seed in range(20):
        cfg = GenConfig(node_count=8, arc_density=0.4, seed=seed)
        g1, g2 = random_model(cfg), random_model(cfg)
        assert g1 == g2
        assert validate_acyclic(g1) is None


def test_random_script_is_deterministic_and_applicable():
    from dagmut import apply_script
    for seed in range(20):
        cfg = GenConfig(node_count=6, arc_density=0.5, seed=seed, script_length=5)
        g = random_model(cfg)
        s1, s2 = random_script(cfg, g), random_script(cfg, g)
        assert s1 == s2
        assert len(s1) == 5
        apply_script(model_from_graph(g), s1)   # must not raise


@settings(max_examples=80, deadline=None)
@given(scripted_models())
def test_reach_rows_match_path_exists(model):
    g, script = model
    for op in script:
        g = apply_dg_op(g, op)
    nodes = sorted(g.nodes)
    rows = _reach_rows(g, topological_order(g), nodes)
    assert rows.keys() == g.nodes
    for v in nodes:
        assert [bool(rows[v] >> k & 1) for k in range(len(nodes))] == \
            [path_exists(g, v, u) for u in nodes]
        assert rows[v] >> len(nodes) == 0


def _path_search_script(cfg: GenConfig, g: Dg) -> tuple[MutationOp, ...]:
    """``random_script`` as it was defined with one ``path_exists`` search
    per candidate arc; the scripts of the bit-row version must not differ."""
    rng = random.Random(cfg.seed ^ 0x5EED)
    cur = g
    fresh = [c for c in _NAMES if c not in g.nodes]
    ops: list[MutationOp] = []
    for _ in range(cfg.script_length):
        kinds = ["node_insert"] if fresh else []
        nodes = sorted(cur.nodes)
        arcs = sorted(cur.arcs)
        insertable = [(u, v) for u in nodes for v in nodes
                      if u != v and (u, v) not in cur.arcs
                      and not path_exists(cur, v, u)]
        if insertable:
            kinds.append("arc_insert")
        if arcs:
            kinds.append("arc_omit")
        if nodes:
            kinds.append("node_omit")
        kind = rng.choice(sorted(kinds))
        if kind == "arc_insert":
            op: MutationOp = ArcInsert(*rng.choice(insertable))
        elif kind == "arc_omit":
            op = ArcOmit(*rng.choice(arcs))
        elif kind == "node_omit":
            op = NodeOmit(rng.choice(nodes))
        else:
            name = fresh.pop(0)
            order = topological_order(cur)
            pivot = rng.randint(0, len(order))
            ingoing = sorted(rng.sample(order[:pivot], min(pivot, rng.randint(0, 2))))
            right = order[pivot:]
            outgoing = sorted(rng.sample(right, min(len(right), rng.randint(0, 2))))
            op = NodeInsert(name, tuple(outgoing), tuple(ingoing))
        cur = apply_dg_op(cur, op)
        ops.append(op)
    return tuple(ops)


def test_random_script_keeps_the_path_search_scripts():
    rng = random.Random(2009)
    for seed in range(3000):
        cfg = GenConfig(node_count=rng.randint(0, 12), arc_density=rng.uniform(0.0, 1.0),
                        seed=seed, script_length=rng.randint(0, 8))
        g = random_model(cfg)
        assert random_script(cfg, g) == _path_search_script(cfg, g), cfg


def test_gen_config_bounds():
    with pytest.raises(ValueError):
        GenConfig(node_count=13)
    with pytest.raises(ValueError):
        GenConfig(node_count=3, arc_density=1.5)
    with pytest.raises(ValueError):
        GenConfig(node_count=3, script_length=-1)


# --------------------------------------------------------------------------
# differential harness

def test_small_differential_run_passes():
    report = run_differential(trials=40, base_seed=123, max_nodes=8, max_script=5)
    assert report.ok
    assert report.passed_trials() == 40
    assert report.steps_checked > 0


def test_differential_arguments_are_checked_before_any_trial(monkeypatch):
    drawn = count_calls(monkeypatch, oracle_module, "random_model")
    for kwargs, message in [
            ({"trials": -3}, "trials must be nonnegative, got -3"),
            ({"max_nodes": MAX_GEN_NODES + 1},
             f"max_nodes must be in 0..{MAX_GEN_NODES}, got {MAX_GEN_NODES + 1}"),
            ({"max_nodes": -1}, f"max_nodes must be in 0..{MAX_GEN_NODES}, got -1"),
            ({"max_script": -1}, "max_script must be nonnegative, got -1")]:
        with pytest.raises(ValueError) as exc:
            run_differential(**{"trials": 50, **kwargs})
        assert str(exc.value) == message
        assert not drawn
    assert run_differential(trials=0).trials == 0 and not drawn
    report = run_differential(trials=3, max_nodes=MAX_GEN_NODES)
    assert report.ok and report.trials == 3 and len(drawn) == 3


def test_timing_probes_see_every_conversion_and_step(monkeypatch):
    # the verify benchmark times convert_s and op_ms by patching these names
    converted = count_calls(monkeypatch, oracle_module, "model_from_graph")
    applied = count_calls(monkeypatch, oracle_module, "apply_op")
    report = run_differential(trials=40, base_seed=123, max_nodes=8, max_script=5)
    assert report.ok
    assert len(converted) == 40
    assert len(applied) == report.steps_checked > 0


def test_invariant_violations_name_what_breaks_the_model():
    g = parse_graph("arc a b\narc b c")
    assert _invariant_violations(model_from_graph(g)) == []
    # a repeated symbol, and a term that is no path
    for extra in ("abcb", "ab"):
        assert _invariant_violations(_state(g, sopf("abc", extra))) == [
            "expression differs from the graph's path language"]
    stranded = parse_graph("arc a b\nnode c\nstart a\nfinish b")
    assert _invariant_violations(_state(stranded, sopf("ab"))) == [
        "node 'c' lies on no start-to-finish path (model not trim)"]
    cyclic = Dg({"a", "b"}, {("a", "b"), ("b", "a")}, {"a"}, {"b"})
    assert _invariant_violations(_state(cyclic, sopf("ab"))) == [
        "cycle detected: a -> b -> a"]


def test_graph_fault_is_reported_as_a_graph_failure(monkeypatch):
    # the implementation's arc omission forgets the start flags it adds;
    # its expression is still right, so only the graph check sees it
    def forgetful(g, op):
        out = apply_dg_op(g, op)
        if isinstance(op, ArcOmit):
            return Dg(out.nodes, out.arcs, g.starts, out.finishes)
        return out

    monkeypatch.setattr(mutate_module, "apply_dg_op", forgetful)
    report = run_differential(trials=200, base_seed=1, max_nodes=8)
    assert report.failures
    assert {f.kind for f in report.failures} == {"graph"}
    for f in report.failures:
        assert f.detail.startswith("starts: implementation only [], reference only ['")


def test_log_fault_is_reported_as_a_counts_failure(monkeypatch):
    # the implementation's log entry misstates one count; its graph and
    # expression are right, so only the counts check sees it
    def first_step_adds_one_less(e):
        if not e.sub:
            return e
        first = replace(e.sub[0], terms_added=e.sub[0].terms_added - 1)
        return replace(e, sub=(first, *e.sub[1:]))

    apply_op = oracle_module.apply_op
    for faulty, misstate in [
        (ArcInsert, lambda e: replace(e, terms_added=e.terms_added - 1)),
        (NodeOmit, lambda e: replace(e, terms_removed=e.terms_removed + 1)),
        (NodeInsert, first_step_adds_one_less),
    ]:
        def misreporting(st, op, faulty=faulty, misstate=misstate):
            out, entry = apply_op(st, op)
            return out, misstate(entry) if isinstance(op, faulty) else entry

        monkeypatch.setattr(oracle_module, "apply_op", misreporting)
        report = run_differential(trials=200, base_seed=1, max_nodes=8)
        assert report.failures, faulty
        assert {f.kind for f in report.failures} == {"counts"}, faulty


def test_injected_fault_is_detected_and_located():
    def corrupt(trial, step, re):
        if trial == 3 and step == 1:
            return SopfRe(re.terms + (("x", "x", "x"),)) if re.terms else sopf("zzz")
        return re

    report = run_differential(trials=6, base_seed=0, max_nodes=6, max_script=4,
                              corrupt=corrupt)
    bad = [f for f in report.failures if f.kind == "equivalence"]
    assert bad and bad[0].trial == 3 and bad[0].step == 1
    assert bad[0].script


# --------------------------------------------------------------------------
# arc steps of node operators, one at a time

def reference_steps(ref: Dg, op) -> tuple[list[MutationOp], list[set]]:
    """The arc steps of the node operator ``op`` on ``ref`` and the word
    sets of the reference graphs before each step and after the last,
    each graph edited from the one before by ``oracle._ref_edit``."""
    arcs = ref.arcs
    if isinstance(op, NodeOmit):
        graphs = [ref]
        steps = ([ArcOmit(op.node, b) for a, b in sorted(arcs) if a == op.node]
                 + [ArcOmit(a, op.node) for a, b in sorted(arcs) if b == op.node])
    else:
        graphs = [oracle_module._ref_edit(ref, NodeInsert(op.node))]
        steps = ([ArcInsert(op.node, x) for x in op.outgoing]
                 + [ArcInsert(y, op.node) for y in op.ingoing])
    for step in steps:
        graphs.append(oracle_module._ref_edit(graphs[-1], step))
    return steps, [set(naive_enumerate(g)) for g in graphs]


def step_violations(entry, steps: list[MutationOp], word_sets: list[set]) -> list[str]:
    """Each arc step of ``entry`` whose operator or counts differ from the
    reference's step and the words it gained and lost."""
    if len(entry.sub) != len(steps):
        return [f"{entry.notation}: {len(entry.sub)} arc steps, reference {len(steps)}"]
    problems = []
    for k, (sub, step) in enumerate(zip(entry.sub, steps)):
        before, after = word_sets[k], word_sets[k + 1]
        counts = (sub.terms_added, sub.terms_removed)
        if sub.op != step or counts != (len(after - before), len(before - after)):
            problems.append(f"{entry.notation} step {k + 1}: {sub.notation} {counts}, reference "
                            f"{step} {(len(after - before), len(before - after))}")
    return problems


def moved_removal(entry):
    """``entry`` with one removed term moved from its second arc step to
    its first: the steps' sum, and so the operator's net, stay put."""
    first, second = entry.sub[0], entry.sub[1]
    return replace(entry, sub=(replace(first, terms_removed=first.terms_removed + 1),
                               replace(second, terms_removed=second.terms_removed - 1),
                               *entry.sub[2:]))


def test_every_arc_step_of_a_node_operator_states_its_own_counts():
    # run_differential checks a node operator's arc steps only through
    # their sum; here each step is checked against the reference graphs
    # between the steps, and a removal moved between two steps is caught
    checked = moved = 0
    for seed in range(150):
        cfg = GenConfig(node_count=MAX_GEN_NODES, arc_density=0.15 + 0.15 * (seed % 5),
                        seed=seed, script_length=6)
        g = random_model(cfg)
        state, ref = model_from_graph(g), g
        words = set(naive_enumerate(ref))
        for op in random_script(cfg, g):
            state, entry = mutate_module.apply_op(state, op)
            edited = oracle_module._ref_edit(ref, op)
            after = set(naive_enumerate(edited))
            if isinstance(op, (NodeInsert, NodeOmit)):
                steps, word_sets = reference_steps(ref, op)
                assert step_violations(entry, steps, word_sets) == []
                checked += len(steps)
                if isinstance(op, NodeOmit) and len(steps) >= 2:
                    faulty = moved_removal(entry)
                    assert step_violations(faulty, steps, word_sets)
                    # the sum check of run_differential does not see it
                    assert not oracle_module._count_violations(faulty, words, after)
                    moved += 1
            ref, words = edited, after
    assert checked > 1000 and moved > 100

"""Command-line behavior: output, formats, exit codes."""
import contextlib
import io
import tracemalloc

import pytest
from hypothesis import given, settings

import dagmut.sopf
from dagmut import CycleError, cli, graph, model_from_graph, parse_graph, print_sopf
from dagmut.cli import main
from dagmut.graph import enumerate_paths, render_graph, render_paths, validate_acyclic
from dagmut.metrics import BOUND_EXPONENTS, MAX_TREND_SIZE
from dagmut.oracle import MAX_GEN_NODES, naive_enumerate
from dagmut.sopf import term_key

from support import MUTATED_TERMS, SAMPLE_GRAPH_TEXT, SAMPLE_TERMS, count_calls, flagged_models


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "model.dg"
    path.write_text(SAMPLE_GRAPH_TEXT)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# convert

def test_convert_sample(capsys, graph_file):
    code, out, err = run(capsys, "convert", graph_file)
    assert code == 0
    assert set(out.strip().split(" + ")) == set(SAMPLE_TERMS)


def test_convert_builds_no_predecessor_index(capsys, monkeypatch, graph_file, tmp_path):
    calls = count_calls(monkeypatch, graph, "_predecessor_index")
    chain = tmp_path / "chain.dg"
    chain.write_text("".join(f"arc n{k} n{k + 1}\n" for k in range(50)) + "node z\n")
    for path in (graph_file, chain):
        code, out, _ = run(capsys, "convert", path, "--format", "machine")
        assert code == 0 and out
    assert calls == []


def test_convert_single_node(capsys, tmp_path):
    path = tmp_path / "one.dg"
    path.write_text("node a\n")
    code, out, _ = run(capsys, "convert", path)
    assert code == 0 and out.strip() == "a"


def test_convert_cyclic_file(capsys, tmp_path):
    path = tmp_path / "loop.dg"
    path.write_text("arc a b\narc b a\n")
    for argv in (("convert", path), ("mutate", path, "--script", "(ab)o_a")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: cycle detected: a -> b -> a\n"


# four ways for a graph to hold a cycle; the walk finds the first, third
# and fourth itself, and leaves the second to validate_acyclic
CYCLE_SHAPES = {
    "reached_from_a_start": "arc s a\narc a b\narc b a\nstart s\nfinish b\n",
    "reached_from_no_start": "arc s t\narc x y\narc y x\nstart s\nfinish t\n",
    "start_on_the_cycle": "arc a b\narc b a\nstart a\nfinish b\n",
    "start_with_predecessors": "arc a b\narc b c\narc c b\nstart a\nstart b\nfinish c\n",
}


def lengthened(text: str) -> str:
    """``text`` with every node name followed by ``0``: model_from_graph
    walks graphs of one-character names without the shared-node walk."""
    return "".join(" ".join([keyword, *(v + "0" for v in names)]) + "\n"
                   for keyword, *names in map(str.split, text.splitlines()))


@pytest.mark.parametrize("long_names", [False, True], ids=["short_names", "long_names"])
@pytest.mark.parametrize("text", CYCLE_SHAPES.values(), ids=CYCLE_SHAPES)
def test_cyclic_graphs_raise_the_witness_of_validate_acyclic(capsys, tmp_path, text, long_names):
    text = lengthened(text) if long_names else text
    witness = validate_acyclic(parse_graph(text))
    assert witness is not None
    for convert in (render_paths, model_from_graph):
        with pytest.raises(CycleError) as caught:
            convert(parse_graph(text))
        assert caught.value.witness == witness
    path = tmp_path / "loop.dg"
    path.write_text(text)
    code, out, err = run(capsys, "convert", path)
    assert (code, out, err) == (1, "", "error: cycle detected: " + " -> ".join(witness) + "\n")


def test_convert_runs_the_kahn_pass_only_for_nodes_it_never_reached(monkeypatch):
    calls = count_calls(monkeypatch, graph, "validate_acyclic")
    reached = parse_graph(SAMPLE_GRAPH_TEXT)
    render_paths(reached)
    assert calls == []
    unreached = parse_graph(SAMPLE_GRAPH_TEXT + "arc x0 a\nstart a\n")
    assert render_paths(unreached) == render_paths(reached)
    assert len(calls) == 1


def test_convert_deep_chain_fed_by_dead_ends(capsys, tmp_path):
    # each a_k has a second predecessor, the dangling d_k, which no start
    # reaches: the walk counts one entry per a_k and walks the chain
    # inline, so it keeps no tables of nested suffixes (about 70 MB here)
    names = [f"a{k}" for k in range(1, 5001)]
    text = "".join(f"arc {a} {b}\n" for a, b in zip(names, names[1:]))
    text += "".join(f"arc d{k} {a}\n" for k, a in enumerate(names, 1))
    text += f"start {names[0]}\nfinish {names[-1]}\n"
    path = tmp_path / "chain.dg"
    path.write_text(text)
    code, out, err = run(capsys, "convert", path, "--format", "machine")
    assert (code, out, err) == (0, ".".join(names) + "\n", "")
    # the graph is not trim, so it makes no model; both enumerations find
    # the one word
    g = parse_graph(text)
    assert enumerate_paths(g).terms == (tuple(names),)
    assert naive_enumerate(g) == [tuple(names)]
    tracemalloc.start()
    try:
        render_paths(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_convert_deep_nest_of_shared_nodes(capsys, tmp_path):
    # s feeds every a_k, so a_2 .. a_1100 are shared and the walk, entering
    # a_1 first, opens them one inside the other, past the interpreter's
    # recursion limit
    names = [f"a{k}" for k in range(1, 1101)]
    text = "".join(f"arc {a} {b}\n" for a, b in zip(names, names[1:]))
    text += "".join(f"arc s {a}\n" for a in names)
    path = tmp_path / "nest.dg"
    path.write_text(text)
    words = sorted((("s", *names[k:]) for k in range(len(names))), key=term_key)
    code, out, err = run(capsys, "convert", path, "--format", "machine")
    assert (code, out, err) == (0, " + ".join(map(".".join, words)) + "\n", "")
    assert model_from_graph(parse_graph(text)).re.terms == tuple(words)


def test_convert_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "convert", tmp_path / "nope.dg")
    assert code == 1 and "error" in err


def test_exhausted_memory_is_a_clean_exit(capsys, monkeypatch, graph_file):
    # a chain of diamonds doubles its words per diamond; the words that do
    # not fit end the run with a message, not a traceback
    def exhausted(g, *, dotted=False):
        raise MemoryError

    monkeypatch.setattr(cli, "render_paths", exhausted)
    code, out, err = run(capsys, "convert", graph_file)
    assert (code, out) == (1, "")
    assert err == "error: out of memory (too many terms to hold)\n"


@pytest.mark.parametrize("argv", [
    ("convert", "BAD"),
    ("mutate", "BAD", "--script", "(ab)o_a"),
    ("mutate", "GOOD", "--script-file", "BAD"),
])
def test_non_utf8_input_files_are_input_errors(capsys, graph_file, tmp_path, argv):
    bad = tmp_path / "bad.dg"
    bad.write_bytes(b"arc a b\narc \xff c\n")
    files = {"BAD": bad, "GOOD": graph_file}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


def test_convert_machine_form_is_dotted(capsys, tmp_path):
    path = tmp_path / "two.dg"
    path.write_text("arc a b\n")
    code, out, _ = run(capsys, "convert", path, "--format", "machine")
    assert code == 0 and out.strip() == "a.b"


def test_convert_long_chain(capsys, tmp_path):
    # deeper than the interpreter's default recursion limit
    nodes = [f"n{k}" for k in range(1501)]
    path = tmp_path / "chain.dg"
    path.write_text("".join(f"arc {a} {b}\n" for a, b in zip(nodes, nodes[1:])))
    code, out, err = run(capsys, "convert", path, "--format", "machine")
    assert code == 0 and err == ""
    assert out.splitlines() == [".".join(nodes)]


def test_convert_very_long_chain(capsys, tmp_path):
    nodes = [f"n{k}" for k in range(20_000)]
    path = tmp_path / "chain.dg"
    path.write_text("".join(f"arc {a} {b}\n" for a, b in zip(nodes, nodes[1:])))
    code, out, err = run(capsys, "convert", path, "--format", "machine")
    assert code == 0 and err == ""
    assert out.splitlines() == [".".join(nodes)]


def test_convert_never_sorts(capsys, graph_file, tmp_path, monkeypatch):
    # the path walk emits canonical order, so printing has nothing to sort
    calls = []
    real = dagmut.sopf._canonical_order
    monkeypatch.setattr(dagmut.sopf, "_canonical_order",
                        lambda terms: calls.append(len(terms)) or real(terms))
    multi = tmp_path / "multi.dg"
    multi.write_text("arc n1 n10\narc n1 n2\narc n10 x\narc n2 x\nfinish n2\nfinish x\n")
    code, out, _ = run(capsys, "convert", graph_file)
    canonical = sorted(SAMPLE_TERMS, key=lambda w: (len(w), w))
    assert code == 0 and out.strip().split(" + ") == canonical
    code, out, _ = run(capsys, "convert", multi, "--format", "machine")
    assert code == 0 and out == "n1.n2 + n1.n10.x + n1.n2.x\n"
    assert calls == []


def convert_output(path, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["convert", str(path), "--format", fmt]) == 0
    return out.getvalue()


def assert_convert_prints_its_expression(path):
    g = parse_graph(path.read_text())
    for fmt in ("pretty", "machine"):
        expected = print_sopf(enumerate_paths(g), dotted=fmt == "machine")
        assert convert_output(path, fmt) == expected + "\n"


@settings(max_examples=150, deadline=None)
@given(flagged_models())
def test_convert_prints_the_expression_of_its_graph(tmp_path_factory, g):
    # convert spells the paths from the node names as it walks them; the
    # expression side codes them and prints them back by name
    path = tmp_path_factory.mktemp("convert") / "model.dg"
    path.write_text(render_graph(g))
    assert_convert_prints_its_expression(path)


@pytest.mark.parametrize("text, pretty", [
    ("arc a b\narc b long\nnode xy\nstart a\nfinish b\n", "ab"),
    ("arc a b\nstart b\nfinish a\n", "EMPTY"),
    ("".join(f"arc n{k} n{k + 1}\n" for k in range(19_999)),
     ".".join(f"n{k}" for k in range(20_000))),
    # compact, the lone term would print as the empty expression
    ("arc E M\narc M P\narc P T\narc T Y\n", "E.M.P.T.Y"),
    ("arc E M\narc M P\narc P T\narc T Y\nnode long\nstart E\nfinish Y\n", "E.M.P.T.Y"),
], ids=["multichar_nodes_on_no_path", "empty_language", "chain_of_20000", "spelled_empty",
        "spelled_empty_off_a_long_name"])
def test_convert_prints_the_expression_of_named_graphs(tmp_path, text, pretty):
    path = tmp_path / "model.dg"
    path.write_text(text)
    assert_convert_prints_its_expression(path)
    assert convert_output(path, "pretty") == pretty + "\n"


def test_alphabet_full_is_an_input_error(capsys, monkeypatch, tmp_path):
    # a fresh alphabet with no code point left: convert spells names and
    # needs none, mutate codes the expression's symbols
    ascii_codes = {chr(c): chr(c) for c in range(128)}
    monkeypatch.setattr(dagmut.sopf, "_CODES", dict(ascii_codes))
    monkeypatch.setattr(dagmut.sopf, "_NAMES", dict(ascii_codes))
    monkeypatch.setattr(dagmut.sopf, "_next_code", 0x110000)
    path = tmp_path / "model.dg"
    path.write_text("arc a long_name\n")
    code, out, _ = run(capsys, "convert", path)
    assert (code, out) == (0, "a.long_name\n")
    code, out, err = run(capsys, "mutate", path, "--script", "(a,long_name)o_a")
    assert (code, out) == (1, "")
    assert err == "error: alphabet full: no code point left for symbol 'long_name'\n"


# --------------------------------------------------------------------------
# mutate

def test_mutate_script(capsys, graph_file):
    code, out, _ = run(capsys, "mutate", graph_file,
                       "--script", "(cd)o_a (df)i_a (n)o_n")
    assert code == 0
    re_line = next(l for l in out.splitlines() if l.startswith("re: "))
    assert set(re_line[4:].split(" + ")) == set(MUTATED_TERMS)
    assert "1 (cd)o_a added=0 removed=3" in out
    assert "2 (df)i_a added=3 removed=0" in out
    assert "3 (n)o_n added=1 removed=3" in out
    assert "start o" in out


def test_mutate_script_file(capsys, graph_file, tmp_path):
    script = tmp_path / "ops.txt"
    script.write_text("(cd)o_a\n")
    code, out, _ = run(capsys, "mutate", graph_file, "--script-file", script)
    assert code == 0 and "removed=3" in out


def test_mutate_empty_script_matches_convert(capsys, graph_file):
    code, out, _ = run(capsys, "mutate", graph_file, "--script", "")
    assert code == 0
    re_line = next(l for l in out.splitlines() if l.startswith("re: "))
    code2, out2, _ = run(capsys, "convert", graph_file)
    assert re_line[4:] == out2.strip()


def test_mutate_failing_op_names_index(capsys, graph_file):
    code, _, err = run(capsys, "mutate", graph_file,
                       "--script", "(cd)o_a (aq)o_a")
    assert code == 1
    assert "op 2" in err


def test_mutate_bad_script_text(capsys, graph_file):
    code, _, err = run(capsys, "mutate", graph_file, "--script", "(x)q_n")
    assert code == 1 and "mnemonic" in err


@pytest.mark.parametrize("text, script", [
    ("arc a b\nstart a\nfinish a\n", "(ab)o_a"),
    ("arc a b\nnode c\nstart a\nfinish a\nfinish c\n", "(bc)i_a"),
], ids=["omitted_arc_into_a_dead_end", "inserted_arc_out_of_a_dead_end"])
def test_mutate_rejects_a_graph_that_is_not_trim(capsys, tmp_path, text, script):
    # b is on no start-to-finish path, so no term holds it and the
    # expression could not follow the operator: omitting a -> b flags b
    # start and finish, inserting b -> c opens the path a b c
    path = tmp_path / "dead_end.dg"
    path.write_text(text)
    code, out, err = run(capsys, "mutate", path, "--script", script)
    assert (code, out) == (1, "")
    assert err == "error: node 'b' lies on no start-to-finish path (model not trim)\n"
    assert run(capsys, "convert", path) == (0, "a\n", "")


def test_mutate_machine_format_round_trips(capsys, graph_file):
    code, out, _ = run(capsys, "mutate", graph_file,
                       "--format", "machine",
                       "--script", "(cd)o_a (df)i_a (n)o_n")
    assert code == 0
    from dagmut import parse_graph
    from dagmut.sopf import parse_sopf
    re_line = next(l for l in out.splitlines() if l.startswith("re="))
    parsed = parse_sopf(re_line[3:])
    assert {"".join(t) for t in parsed} == set(MUTATED_TERMS)
    graph_text = "".join(l[6:] + "\n" for l in out.splitlines()
                         if l.startswith("graph="))
    g = parse_graph(graph_text)
    assert "o" in g.starts and "n" not in g.nodes


# --------------------------------------------------------------------------
# repeated in-process calls

def test_repeated_calls_share_one_parser(capsys, graph_file):
    def session():
        outputs = [run(capsys, "convert", graph_file, "--format", "machine"),
                   run(capsys, "mutate", graph_file, "--script", "(cd)o_a (df)i_a (n)o_n")]
        with pytest.raises(SystemExit) as usage:
            main(["convert"])
        captured = capsys.readouterr()
        outputs.append((usage.value.code, captured.out, captured.err))
        outputs.append(run(capsys, "mutate", graph_file, "--script", "(zz)o_n"))
        outputs.append(run(capsys, "convert", graph_file, "--format", "machine"))
        return outputs

    cli._parser.cache_clear()
    first = session()
    assert [code for code, _, _ in first] == [0, 0, 2, 1, 0]
    assert "required: graph" in first[2][2] and "unknown node 'zz'" in first[3][2]
    assert first[-1] == first[0]
    assert session() == first
    assert cli._parser.cache_info().misses == 1
    assert cli._parser() is cli._parser()


# --------------------------------------------------------------------------
# verify

def test_verify_small_run(capsys):
    code, out, err = run(capsys, "verify", "--trials", "15", "--seed", "42")
    assert code == 0
    assert out.strip() == "15/15 equivalent"
    assert err == ""


def test_verify_machine_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--trials", "10",
                         "--seed", "7", "--format", "machine")
    code2, out2, _ = run(capsys, "verify", "--trials", "10",
                         "--seed", "7", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verdict=pass" in out1


def test_verify_machine_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "--trials", "300", "--seed", "0",
                         "--max-nodes", "12", "--format", "machine")
    assert (code, out, err) == (0, "trials=300 ok=300 steps=974 verdict=pass\n", "")


@pytest.mark.parametrize("argv, message", [
    (("--max-nodes", MAX_GEN_NODES + 1),
     f"max_nodes must be in 0..{MAX_GEN_NODES}, got {MAX_GEN_NODES + 1}"),
    (("--max-nodes", -1), f"max_nodes must be in 0..{MAX_GEN_NODES}, got -1"),
    (("--trials", -3), "trials must be nonnegative, got -3"),
])
def test_verify_out_of_range_arguments_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


# --------------------------------------------------------------------------
# bench

def test_bench_passes_and_reports_each_op(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    for kind in ("set_union", "set_concat", "pt", "ht", "tt",
                 "arc_insert", "arc_omit", "node_insert", "node_omit"):
        assert f"{kind}:" in out
    assert "fail" not in out


def test_bench_machine_records(capsys):
    code, out, _ = run(capsys, "bench", "--format", "machine",
                       "--sizes", "8,16,32,64")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("op=set_union ")]
    assert len(lines) == 4
    assert all("size=" in l and "cost=" in l and "verdict=pass" in l
               for l in lines)


# The whole machine report at the default sizes.  Each cost is a sum of
# OpCounters fields, so a change that moves what an operation counts moves
# a line here and must say why.
PINNED_BENCH = """\
op=set_union size=8 cost=16 exponent=1.000 verdict=pass
op=set_union size=16 cost=32 exponent=1.000 verdict=pass
op=set_union size=32 cost=64 exponent=1.000 verdict=pass
op=set_union size=64 cost=128 exponent=1.000 verdict=pass
op=set_difference size=8 cost=16 exponent=1.000 verdict=pass
op=set_difference size=16 cost=32 exponent=1.000 verdict=pass
op=set_difference size=32 cost=64 exponent=1.000 verdict=pass
op=set_difference size=64 cost=128 exponent=1.000 verdict=pass
op=set_concat size=8 cost=128 exponent=2.000 verdict=pass
op=set_concat size=16 cost=512 exponent=2.000 verdict=pass
op=set_concat size=32 cost=2048 exponent=2.000 verdict=pass
op=set_concat size=64 cost=8192 exponent=2.000 verdict=pass
op=pt size=8 cost=8 exponent=1.000 verdict=pass
op=pt size=16 cost=16 exponent=1.000 verdict=pass
op=pt size=32 cost=32 exponent=1.000 verdict=pass
op=pt size=64 cost=64 exponent=1.000 verdict=pass
op=ht size=8 cost=24 exponent=1.000 verdict=pass
op=ht size=16 cost=48 exponent=1.000 verdict=pass
op=ht size=32 cost=96 exponent=1.000 verdict=pass
op=ht size=64 cost=192 exponent=1.000 verdict=pass
op=tt size=8 cost=24 exponent=1.000 verdict=pass
op=tt size=16 cost=48 exponent=1.000 verdict=pass
op=tt size=32 cost=96 exponent=1.000 verdict=pass
op=tt size=64 cost=192 exponent=1.000 verdict=pass
op=arc_insert size=8 cost=5 exponent=0.000 verdict=pass
op=arc_insert size=16 cost=5 exponent=0.000 verdict=pass
op=arc_insert size=32 cost=5 exponent=0.000 verdict=pass
op=arc_insert size=64 cost=5 exponent=0.000 verdict=pass
op=arc_omit size=8 cost=11 exponent=0.870 verdict=pass
op=arc_omit size=16 cost=19 exponent=0.870 verdict=pass
op=arc_omit size=32 cost=35 exponent=0.870 verdict=pass
op=arc_omit size=64 cost=67 exponent=0.870 verdict=pass
op=node_insert size=8 cost=8 exponent=0.000 verdict=pass
op=node_insert size=16 cost=8 exponent=0.000 verdict=pass
op=node_insert size=32 cost=8 exponent=0.000 verdict=pass
op=node_insert size=64 cost=8 exponent=0.000 verdict=pass
op=node_omit size=8 cost=9 exponent=0.951 verdict=pass
op=node_omit size=16 cost=17 exponent=0.951 verdict=pass
op=node_omit size=32 cost=33 exponent=0.951 verdict=pass
op=node_omit size=64 cost=65 exponent=0.951 verdict=pass
"""


def test_bench_machine_report_is_pinned(capsys):
    code, out, err = run(capsys, "bench", "--format", "machine", "--sizes", "8,16,32,64")
    assert (code, err) == (0, "")
    assert out == PINNED_BENCH


def test_bench_reports_every_bounded_kind(capsys):
    code, out, _ = run(capsys, "bench", "--format", "machine",
                       "--sizes", "8,16,32,64")
    assert code == 0
    reported = {line.split()[0].removeprefix("op=") for line in out.splitlines()}
    assert reported == set(BOUND_EXPONENTS)


def test_bench_short_series_is_an_input_error(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "8,16")
    assert code == 1 and "series" in err


@pytest.mark.parametrize("sizes, bad", [
    (f"{MAX_TREND_SIZE + 1},2,3,4", MAX_TREND_SIZE + 1),
    ("8,16,32,1", 1),
])
def test_bench_sizes_out_of_range_are_input_errors(capsys, sizes, bad):
    # set_concat builds size**2 terms, so a huge size would run for minutes
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert (code, out) == (1, "")
    assert err == f"error: series sizes must be in 2..{MAX_TREND_SIZE}, got {bad}\n"

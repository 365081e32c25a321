"""Command-line behavior: output, formats, exit codes."""
import pytest

import dagmut.sopf
from dagmut import BOUND_EXPONENTS, cli
from dagmut.cli import main
from dagmut.metrics import MAX_TREND_SIZE
from dagmut.oracle import MAX_GEN_NODES

from support import MUTATED_TERMS, SAMPLE_GRAPH_TEXT, SAMPLE_TERMS


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


def test_convert_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "convert", tmp_path / "nope.dg")
    assert code == 1 and "error" in err


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


def test_mutate_machine_format_round_trips(capsys, graph_file):
    code, out, _ = run(capsys, "mutate", graph_file,
                       "--format", "machine",
                       "--script", "(cd)o_a (df)i_a (n)o_n")
    assert code == 0
    from dagmut import parse_graph, parse_sopf
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


@pytest.mark.parametrize("argv, message", [
    (("--max-nodes", MAX_GEN_NODES + 1),
     f"--max-nodes must be in 0..{MAX_GEN_NODES}, got {MAX_GEN_NODES + 1}"),
    (("--max-nodes", -1), f"--max-nodes must be in 0..{MAX_GEN_NODES}, got -1"),
    (("--trials", -3), "--trials must be nonnegative, got -3"),
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

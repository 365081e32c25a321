"""Tests of the benchmark itself: its inputs, its checks and its tracing."""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dagmut import metrics, mutate, sopf  # noqa: E402
from dagmut.sopf import SopfRe  # noqa: E402

SMALL_SPARSE = (60, 90)
SMALL_DENSE = (1500, 1700, 1900)


def _input_texts(seed: int) -> list[str]:
    models = (generate.sparse_models(seed, sizes=SMALL_SPARSE)
              + generate.dense_models(seed, bands=SMALL_DENSE))
    return [text for m in models for text in (m.dg_text, m.script_text)]


def test_same_seed_gives_byte_identical_inputs():
    texts = _input_texts(7)
    assert texts == _input_texts(7)
    assert texts != _input_texts(8)
    # and in another process, whose string hashes (set order) differ
    code = ("import json, test_benchmark as t; "
            "print(json.dumps(t._input_texts(7)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, timeout=60, check=True,
                         env={**os.environ, "PYTHONHASHSEED": "12345"})
    assert json.loads(out.stdout) == texts


def test_generated_scripts_use_every_operator_and_multichar_names():
    for model in generate.sparse_models(3, sizes=SMALL_SPARSE):
        assert sorted(op[0] for op in model.ops) == sorted(generate.KINDS)
        assert all(len(v) > 1 for v in generate.parse_dg_text(model.dg_text).succ)


def _session(tmp_path):
    models = generate.sparse_models(5, sizes=SMALL_SPARSE)
    return workloads.ModelSession(models, tmp_path)


def test_outputs_pass_their_checks(tmp_path):
    session = _session(tmp_path)
    log = session.one_pass(None)
    assert session.setup_log.errors == 0
    assert session.checker.failures(log) == (0, [])
    assert log.attempted == sum(1 + len(m.ops) for m in session.models)


def test_check_counts_corrupted_outputs(tmp_path):
    session = _session(tmp_path)
    rc, text, _ = workloads.convert(session.paths[0])
    state, _ = mutate.apply_op(session.load(0), session.scripts[0][0])

    log = checks.OutputLog()
    log.convert(0, rc, text.replace(" + ", " + n999.", 1))
    log.convert(0, rc, text.rsplit(" + ", 1)[0])
    dropped = mutate.ModelState(state.dg, SopfRe(state.re.terms[1:]))
    log.step(0, 0, dropped)
    log.step(0, 0, state)
    failed, problems = session.checker.failures(log)
    assert failed == 3
    assert len(problems) == 3


def test_self_times_on_hand_built_span_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; b has c [60, 70]
    parents = [-1, 0, 0, 2]
    starts = [0, 10, 50, 60]
    ends = [100, 40, 90, 70]
    assert spans.self_times(parents, starts, ends) == [30, 30, 30, 10]


def test_tracer_wraps_every_namespace_and_never_changes_results(tmp_path):
    session = _session(tmp_path)
    plain_counters = metrics.OpCounters()
    plain = session.one_pass(plain_counters)
    original_pt = sopf.pt

    tracer, counters = spans.Tracer(), metrics.OpCounters()
    tracer.install()
    try:
        assert mutate.pt is sopf.pt is not original_pt
        traced = session.one_pass(counters)
    finally:
        tracer.uninstall()
    assert sopf.pt is original_pt and mutate.pt is original_pt

    assert traced == plain
    assert counters == plain_counters
    summary = tracer.summary()
    assert summary["mutate.apply_op"][0] == sum(len(m.ops) for m in session.models)
    assert summary["cli.main"][0] == len(session.models)
    assert tracer.counts["graph.arcs_scanned"] > 0
    assert all(self_ns >= 0 for _, self_ns in summary.values())


def test_benchmark_json_follows_its_format():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmark"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "dense",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

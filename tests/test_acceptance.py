"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 4-6 share one 200-trial differential corpus (module-scoped).
"""
import random
import time

import pytest

from dagmut import ArcInsert, ArcOmit, apply_script, model_from_graph, parse_graph, parse_script
from dagmut.metrics import SLACK, trend
from dagmut.mutate import apply_op
from dagmut.oracle import GenConfig, random_model, random_script, run_differential
from dagmut.sopf import ht, pt, tt

from support import MUTATED_TERMS, SAMPLE_GRAPH_TEXT, SAMPLE_TERMS, equivalent, reaches, spell


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"acceptance {number} {name}: {verdict}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def sample_state():
    return model_from_graph(parse_graph(SAMPLE_GRAPH_TEXT))


@pytest.fixture(scope="module")
def differential():
    started = time.monotonic()
    rep = run_differential(trials=200, base_seed=0, max_nodes=10)
    return rep, time.monotonic() - started


def test_criterion_1_initial_language(sample_state):
    ok = spell(sample_state.re) == set(SAMPLE_TERMS)
    report(1, "initial nine-term language", ok)


def test_criterion_2_selectors(sample_state):
    r = sample_state.re
    ok = ht(pt(r, ("f",)), ("f",)).terms == (tuple("acef"),)
    ok &= spell(tt(pt(r, ("g", "h")), ("g", "h"))) == {
        "ghilmpq", "ghjklmpq", "ghjknopq"}
    chained = pt(pt(r, ("j", "k")), ("k", "l"))
    ok &= spell(chained) == {"abdghjklmpq", "acdghjklmpq", "acefghjklmpq"}
    report(2, "selector examples", ok)


def test_criterion_3_mutation_script(sample_state):
    from dagmut.oracle import NaiveLang, ref_apply

    script = parse_script("(cd)o_a (df)i_a (n)o_n")
    final, _ = apply_script(sample_state, script)

    # independent reference chain: each step enumerates the edited graph
    lang = NaiveLang([tuple(t) for t in SAMPLE_TERMS])
    dg = sample_state.dg
    from dagmut.graph import apply_dg_op
    for op in script:
        lang = ref_apply(lang, op, dg)
        dg = apply_dg_op(dg, op)

    ok = equivalent(final.re, lang)
    ok &= spell(final.re) == set(MUTATED_TERMS)
    expected_arcs = (sample_state.dg.arcs - {("c", "d"), ("k", "n"), ("n", "o")}) \
        | {("d", "f")}
    ok &= final.dg.arcs == expected_arcs and final.dg == dg
    report(3, "three-operator script vs reference", ok)


def test_criterion_4_differential_trials(differential):
    rep, elapsed = differential
    mismatches = [f for f in rep.failures if f.kind in ("equivalence", "error")]
    ok = rep.trials == 200 and not mismatches
    report(4, "200 differential trials", ok,
           f"{rep.passed_trials()}/200, {rep.steps_checked} steps, {elapsed:.1f}s")


def test_criterion_5_term_count_formulas(differential):
    rep, _ = differential
    violations = [f for f in rep.failures if f.kind == "counts"]
    report(5, "term-count formulas", not violations,
           f"{len(violations)} violations")


def test_criterion_6_invariants_and_round_trips(differential):
    rep, _ = differential
    violations = [f for f in rep.failures if f.kind == "invariant"]
    report(6, "invariants and round-trips", not violations,
           f"{len(violations)} violations")


def test_criterion_7_growth_exponents():
    started = time.monotonic()
    ok = True
    details = []
    for kind in ("set_union", "set_concat", "pt", "ht", "tt",
                 "arc_insert", "arc_omit"):
        rep = trend(kind, [8, 16, 32, 64])
        ok &= rep.passed and rep.fitted_exponent <= rep.bound_exponent + SLACK
        details.append(f"{kind}={rep.fitted_exponent:.2f}<={rep.bound_exponent:.0f}+{SLACK}")
    report(7, "growth exponents within bounds", ok,
           f"{'; '.join(details)}; {time.monotonic() - started:.1f}s")


def test_criterion_8_insert_omit_round_trip():
    satisfied = 0
    attempts = 0
    rng = random.Random(2024)
    while satisfied < 100 and attempts < 2000:
        attempts += 1
        seed = rng.randrange(10**9)
        cfg = GenConfig(node_count=rng.randint(2, 8),
                        arc_density=rng.uniform(0.2, 0.8),
                        seed=seed,
                        script_length=rng.randint(0, 2))
        g = random_model(cfg)
        st = model_from_graph(g)
        if cfg.script_length:
            st, _ = apply_script(st, random_script(cfg, g))
        nodes = sorted(st.dg.nodes)
        candidates = [(u, v) for u in nodes for v in nodes
                      if u != v and (u, v) not in st.dg.arcs
                      and not reaches(st.dg, v, u)]
        if not candidates:
            continue
        u, v = candidates[rng.randrange(len(candidates))]
        inserted, _ = apply_op(st, ArcInsert(u, v))
        joined = pt(inserted.re, (u, v))
        if pt(inserted.re, (u,)) == joined or pt(inserted.re, (v,)) == joined:
            continue  # side condition not met at omission time
        restored, _ = apply_op(inserted, ArcOmit(u, v))
        if restored != st:
            report(8, "insert-omit round-trip", False,
                   f"diverged at seed {seed} arc ({u},{v})")
        satisfied += 1
    report(8, "insert-omit round-trip", satisfied == 100,
           f"{satisfied}/100 qualifying trials in {attempts} attempts")

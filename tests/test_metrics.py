"""Operation counting and growth-trend fitting."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagmut import ArcOmit, model_from_graph, parse_graph
from dagmut.metrics import SLACK, OpCounters, trend
from dagmut.mutate import apply_op
from dagmut.sopf import SopfRe, parse_sopf
from dagmut.sopf import set_concat, set_union

from support import SAMPLE_GRAPH_TEXT, sopf


# --------------------------------------------------------------------------
# counted operations

def test_union_baseline_fixture():
    counters = OpCounters()
    result = set_union(parse_sopf("a"), parse_sopf("b"), counters)
    assert result == sopf("a", "b")
    # frozen regression values for this exact input: a union hashes both
    # terms, and searches and builds none
    assert (counters.symbol_comparisons, counters.term_copies,
            counters.set_lookups) == (0, 0, 2)
    assert counters.cost() == 2


def test_concat_annihilator_does_no_work():
    counters = OpCounters()
    result = set_concat(SopfRe(), sopf("ab", "c"), counters)
    assert result == SopfRe()
    assert counters.term_copies == 0
    assert counters.cost() == 0


def test_arc_omit_fixture():
    state = model_from_graph(parse_graph(SAMPLE_GRAPH_TEXT))
    counters = OpCounters()
    result, _ = apply_op(state, ArcOmit("c", "d"), counters)
    assert len(result.re) == 6
    # frozen regression values for this exact input: the pair search reads
    # all 9 terms; the edit flags neither c nor d, so no word is spelled
    assert (counters.symbol_comparisons, counters.term_copies,
            counters.set_lookups) == (9, 0, 0)


def test_counters_never_decrease_across_calls():
    counters = OpCounters()
    a, b = sopf("ab", "cd"), sopf("ef")
    previous = 0
    for _ in range(3):
        set_union(a, b, counters)
        assert counters.cost() > previous
        previous = counters.cost()


# --------------------------------------------------------------------------
# counting must not change results

symbols = st.text(alphabet="abcd", min_size=1, max_size=1)
terms = st.lists(symbols, min_size=1, max_size=5).map(tuple)
exprs = st.lists(terms, max_size=6).map(lambda ts: SopfRe(tuple(ts)))


@given(exprs, exprs)
def test_counted_runs_match_uncounted_runs(a, b):
    from dagmut.sopf import pt, set_difference
    counters = OpCounters()
    assert set_union(a, b, counters) == set_union(a, b)
    assert set_difference(a, b, counters) == set_difference(a, b)
    assert set_concat(a, b, counters) == set_concat(a, b)
    assert pt(a, ("a",), counters) == pt(a, ("a",))


def test_counted_mutation_matches_uncounted(sample_state):
    counters = OpCounters()
    counted, _ = apply_op(sample_state, ArcOmit("c", "d"), counters)
    plain, _ = apply_op(sample_state, ArcOmit("c", "d"))
    assert counted == plain
    assert counters.cost() > 0


# --------------------------------------------------------------------------
# trends

def test_union_trend_is_at_most_quadratic():
    report = trend("set_union", [8, 16, 32, 64])
    assert report.passed
    assert report.fitted_exponent <= 2.0 + SLACK


def test_arc_omit_trend_is_at_most_quadratic():
    report = trend("arc_omit", [8, 16, 32, 64])
    assert report.passed
    assert report.fitted_exponent <= 2.0 + SLACK


def test_constant_cost_fits_a_flat_exponent():
    from dagmut.metrics import fit_exponent
    assert abs(fit_exponent([(8, 100), (16, 100), (32, 100), (64, 100)])) < 1e-9


def test_power_law_fits_its_exponent():
    from dagmut.metrics import fit_exponent
    for exponent in (0.5, 1.0, 1.7, 2.0, 3.25):
        series = [(s, 7 * s ** exponent) for s in (8, 16, 32, 64, 128)]
        assert abs(fit_exponent(series) - exponent) < 1e-9


def test_degenerate_series_rejected():
    from dagmut.metrics import fit_exponent
    with pytest.raises(ValueError, match="degenerate"):
        fit_exponent([(8, 0), (16, 0), (32, 0), (64, 0)])
    with pytest.raises(ValueError, match="degenerate"):
        fit_exponent([(8, 1), (8, 2), (8, 3), (8, 4)])


def test_trend_requires_four_points():
    with pytest.raises(ValueError, match="4 series points"):
        trend("set_union", [8, 16])


def test_trend_is_deterministic():
    a = trend("set_concat", [8, 16, 32, 64], seed=5)
    b = trend("set_concat", [8, 16, 32, 64], seed=5)
    assert a == b


def test_trend_unknown_kind():
    with pytest.raises(ValueError):
        trend("frobnicate", [8, 16, 32, 64])

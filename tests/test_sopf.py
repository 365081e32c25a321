"""Term algebra: selectors, set operations and the textual form."""
import copy
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dagmut import ParseError, SopfRe, parse_sopf, print_sopf
from dagmut.metrics import OpCounters
from dagmut.sopf import (
    _extend,
    _find,
    _heads,
    _tails,
    add_term,
    ht,
    pt,
    remove_term,
    set_concat,
    set_difference,
    set_union,
    term_key,
    tt,
    validate_symbol,
)

from support import sopf, spell


# --------------------------------------------------------------------------
# symbols and canonical form

def test_symbol_rejects_reserved_characters():
    for bad in ["", "a b", "a+b", "x(", "y)", "a,b", "{v}", "a.b", "a#b", "EMPTY"]:
        with pytest.raises(ValueError):
            validate_symbol(bad)


def test_symbol_accepts_plain_tokens():
    for ok in ["a", "n1", "long_name", "x-y", "Z"]:
        assert validate_symbol(ok) == ok


def test_canonical_order_is_length_then_lex():
    r = sopf("ba", "c", "ab", "abc")
    assert r.terms == (("c",), ("a", "b"), ("b", "a"), ("a", "b", "c"))


def test_terms_are_deduplicated():
    assert len(sopf("ab", "ab", "c")) == 2


def test_empty_terms_rejected():
    with pytest.raises(ValueError):
        SopfRe(((),))


def test_expressions_are_immutable_and_copy_as_sets():
    r = sopf("ba", "c", "ab")
    for name in ("terms", "_terms"):
        with pytest.raises(AttributeError):
            setattr(r, name, ())
    assert pickle.loads(pickle.dumps(r)) == copy.copy(r) == r


# --------------------------------------------------------------------------
# selectors, pinned to the sample model's language

SAMPLE = sopf("abdghilmpq", "abdghjklmpq", "abdghjknopq",
              "acdghilmpq", "acdghjklmpq", "acdghjknopq",
              "acefghilmpq", "acefghjklmpq", "acefghjknopq")


def test_pt_two_symbol_pattern():
    assert spell(pt(SAMPLE, ("c", "d"))) == {
        "acdghilmpq", "acdghjklmpq", "acdghjknopq"}


def test_pt_single_symbol_matches_all():
    assert pt(SAMPLE, ("q",)) == SAMPLE


def test_pt_unknown_symbol_is_empty():
    assert pt(SAMPLE, ("zz",)) == SopfRe()


def test_ht_of_f_terms():
    assert ht(pt(SAMPLE, ("f",)), ("f",)) == sopf("acef")


def test_ht_prefix_of_length_one():
    assert ht(sopf("abc"), ("a",)) == sopf("a")


def test_ht_cuts_each_term_at_first_occurrence():
    assert ht(sopf("abdghjklmpq", "acdghjklmpq"), ("d",)) == sopf("abd", "acd")


def test_tt_of_gh_terms():
    assert tt(pt(SAMPLE, ("g", "h")), ("g", "h")) == sopf(
        "ghilmpq", "ghjklmpq", "ghjknopq")


def test_tt_suffix_of_length_one():
    assert tt(sopf("abc"), ("c",)) == sopf("c")


def test_tt_collapses_duplicate_suffixes():
    assert tt(pt(SAMPLE, ("j",)), ("j",)) == sopf("jklmpq", "jknopq")


def test_three_symbol_search_by_chained_scans():
    # duplicate-free terms make adjacency transitive: jk and kl imply jkl
    assert spell(pt(pt(SAMPLE, ("j", "k")), ("k", "l"))) == {
        "abdghjklmpq", "acdghjklmpq", "acefghjklmpq"}


def test_pattern_length_is_bounded():
    with pytest.raises(ValueError):
        pt(SAMPLE, ("j", "k", "l"))
    with pytest.raises(ValueError):
        ht(SAMPLE, ())


def test_ht_rejects_terms_missing_the_pattern():
    # the message names the canonically first such term
    with pytest.raises(ValueError, match="term 'qz' does not"):
        ht(sopf("abc", "xyz", "qz"), ("a",))
    with pytest.raises(ValueError, match="term 'qz' does not"):
        tt(sopf("abc", "xyz", "qz"), ("a",))


# --------------------------------------------------------------------------
# set operations

def test_union_examples():
    assert set_union(sopf("ab"), sopf("c")) == sopf("ab", "c")
    assert set_union(sopf("ab", "c"), sopf("c")) == sopf("ab", "c")
    assert set_union(SopfRe(), SAMPLE) == SAMPLE


def test_difference_examples():
    assert set_difference(sopf("ab", "c"), sopf("c")) == sopf("ab")
    assert set_difference(SAMPLE, SopfRe()) == SAMPLE
    assert set_difference(SAMPLE, pt(SAMPLE, ("c", "d"))) == sopf(
        "abdghilmpq", "abdghjklmpq", "abdghjknopq",
        "acefghilmpq", "acefghjklmpq", "acefghjknopq")


def test_concat_examples():
    assert set_concat(sopf("a"), sopf("c")) == sopf("ac")
    assert set_concat(sopf("ab", "a"), sopf("c", "bc")) == sopf("abc", "abbc", "ac")
    assert set_concat(SopfRe(), SAMPLE) == SopfRe()


def test_add_remove_term():
    assert add_term(sopf("ab"), ("a", "b")) == sopf("ab")
    assert add_term(SopfRe(), ("v",)) == sopf("v")
    assert remove_term(sopf("ab", "v"), ("v",)) == sopf("ab")
    assert remove_term(sopf("ab"), ("zz",)) == sopf("ab")


# --------------------------------------------------------------------------
# textual form

def test_print_preserves_compact_spellings():
    assert print_sopf(parse_sopf("abdghilmpq + abdghjklmpq")) == \
        "abdghilmpq + abdghjklmpq"


def test_parse_empty_token():
    assert parse_sopf("EMPTY") == SopfRe()
    assert print_sopf(SopfRe()) == "EMPTY"


def test_parse_reorders_canonically():
    assert print_sopf(parse_sopf("b + a")) == "a + b"


def test_parse_tolerates_whitespace_around_plus():
    assert parse_sopf("ab+c") == parse_sopf("ab  +  c") == sopf("ab", "c")


def test_parse_dotted_form():
    r = parse_sopf("n1.n2 + n3")
    assert r.terms == (("n3",), ("n1", "n2"))
    assert print_sopf(r) == "n3 + n1.n2"


def test_forced_dotted_printing():
    assert print_sopf(sopf("ab"), dotted=True) == "a.b"


def test_parse_errors():
    for bad in ["", "a +", "+ a", "a ++ b", "a.b + c(", "a. b"]:
        with pytest.raises(ParseError):
            parse_sopf(bad)


def test_dot_free_multicharacter_token_reads_as_compact():
    # inherent ambiguity of the compact spelling: without a dot anywhere,
    # "ab" is two single-character symbols; dotted=True overrides
    assert parse_sopf("ab").terms == (("a", "b"),)
    assert parse_sopf("ab", dotted=True).terms == (("ab",),)


# --------------------------------------------------------------------------
# properties

symbols = st.text(alphabet="abcdef", min_size=1, max_size=1)
terms = st.lists(symbols, min_size=1, max_size=6).map(tuple)
exprs = st.lists(terms, max_size=8).map(lambda ts: SopfRe(tuple(ts)))
patterns = st.lists(symbols, min_size=1, max_size=2).map(tuple)

wide_symbols = st.text(alphabet="abc", min_size=1, max_size=3)
wide_terms = st.lists(wide_symbols, min_size=1, max_size=5).map(tuple)
wide_exprs = st.lists(wide_terms, max_size=6).map(lambda ts: SopfRe(tuple(ts)))


@given(exprs, patterns)
def test_pt_selects_a_subset(r, s):
    assert set(pt(r, s).terms) <= set(r.terms)


@given(exprs, patterns)
def test_ht_yields_prefixes_tt_yields_suffixes(r, s):
    p = pt(r, s)
    for head in ht(p, s):
        assert any(t[:len(head)] == head for t in p)
    for tail in tt(p, s):
        assert any(t[len(t) - len(tail):] == tail for t in p)


@given(exprs, exprs)
def test_size_bounds(a, b):
    assert len(set_union(a, b)) <= len(a) + len(b)
    assert len(set_concat(a, b)) <= len(a) * len(b)


@given(exprs, exprs)
def test_operations_keep_canonical_form(a, b):
    for r in (set_union(a, b), set_difference(a, b), set_concat(a, b)):
        assert r == SopfRe(r.terms)
        assert len(set(r.terms)) == len(r.terms)


@given(wide_exprs)
def test_text_round_trip(r):
    # the one non-invertible family: every term a single multi-char symbol
    assume(not r.terms or "." in print_sopf(r)
           or all(len(sym) == 1 for t in r for sym in t))
    assert parse_sopf(print_sopf(r)) == r


@given(exprs)
def test_dotted_text_round_trip(r):
    assume(len(r) > 0)
    assert parse_sopf(print_sopf(r, dotted=True)) == r


@given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True).map(tuple),
       patterns)
def test_reversal_swaps_head_and_tail_selectors(term, s):
    # for duplicate-free terms, first and last occurrence coincide
    r = SopfRe((term,))
    rev = SopfRe((term[::-1],))
    s_rev = s[::-1]
    try:
        heads = ht(pt(r, s), s)
    except ValueError:
        heads = None
    if pt(r, s) == SopfRe():
        assert pt(rev, s_rev) == SopfRe()
        return
    tails = tt(pt(rev, s_rev), s_rev)
    assert {h[::-1] for h in heads} == set(tails.terms)


# --------------------------------------------------------------------------
# kernels against the per-position scan
#
# The reference below is the scan model itself: one comparison per position
# visited, one per second-symbol check, one lookup and one comparison per
# symbol for each set probe, one copy per term written.  The kernels must
# return the same results and the same counts.

def ref_find(term, pattern, counters, *, last=False):
    found = None
    for k in range(len(term) - len(pattern) + 1):
        counters.symbol_comparisons += 1
        if term[k] != pattern[0]:
            continue
        if len(pattern) == 2:
            counters.symbol_comparisons += 1
            if term[k + 1] != pattern[1]:
                continue
        if not last:
            return k
        found = k
    return found


def ref_probe(counters, term):
    counters.set_lookups += 1
    counters.symbol_comparisons += len(term)


def ref_pt(r, pattern, counters):
    picked = []
    for term in r:
        if ref_find(term, pattern, counters) is not None:
            counters.term_copies += 1
            picked.append(term)
    return SopfRe(tuple(picked))


def ref_cut(p, pattern, counters, *, last):
    seen, cuts = set(), []
    for term in p:
        k = ref_find(term, pattern, counters, last=last)
        assert k is not None
        cut = term[k:] if last else term[:k + len(pattern)]
        counters.term_copies += 1
        ref_probe(counters, cut)
        if cut not in seen:
            seen.add(cut)
            cuts.append(cut)
    return SopfRe(tuple(cuts))


def ref_union(a, b, counters):
    seen, merged = set(), []
    for term in (*a, *b):
        ref_probe(counters, term)
        if term not in seen:
            seen.add(term)
            counters.term_copies += 1
            merged.append(term)
    return SopfRe(tuple(merged))


def ref_difference(r, c, counters):
    drop = set()
    for term in c:
        ref_probe(counters, term)
        drop.add(term)
    kept = []
    for term in r:
        ref_probe(counters, term)
        if term not in drop:
            counters.term_copies += 1
            kept.append(term)
    return SopfRe(tuple(kept))


def same_run(kernel, reference, *args):
    """Results and every counter field of a kernel and its reference."""
    got, want = OpCounters(), OpCounters()
    assert kernel(*args, got) == reference(*args, want)
    assert got == want


# few symbols, some multi-character, so terms repeat symbols and patterns hit
scan_symbols = st.sampled_from(["a", "b", "c", "n1", "n12"])
scan_terms = st.lists(scan_symbols, min_size=1, max_size=9).map(tuple)
scan_exprs = st.lists(scan_terms, max_size=10).map(lambda ts: SopfRe(tuple(ts)))
scan_patterns = st.lists(scan_symbols, min_size=1, max_size=2).map(tuple)


@given(st.lists(scan_terms, max_size=6), scan_patterns, st.booleans())
def test_find_matches_the_scan(terms, s, last):
    got, want = OpCounters(), OpCounters()
    assert _find(terms, s, got, last=last) == [ref_find(t, s, want, last=last) for t in terms]
    assert got == want


@given(scan_exprs, scan_patterns)
def test_pt_matches_the_scan(r, s):
    same_run(pt, ref_pt, r, s)


@given(scan_exprs, scan_patterns)
def test_ht_tt_match_the_scan(r, s):
    p = pt(r, s)
    same_run(ht, lambda *a: ref_cut(*a, last=False), p, s)
    same_run(tt, lambda *a: ref_cut(*a, last=True), p, s)
    # the unchecked cut kernels, on the selection of a one-symbol pattern
    held = pt(r, s[:1])
    for kernel, last in ((_heads, False), (_tails, True)):
        def cut(p, sym, counters):
            return kernel(p._terms, sym, counters)
        same_run(cut, lambda p, sym, c: ref_cut(p, (sym,), c, last=last), held, s[0])
        uncounted = cut(held, s[0], None)
        assert uncounted == ref_cut(held, s[:1], OpCounters(), last=last)
        assert len(set(uncounted._terms)) == len(uncounted._terms)


@given(scan_exprs, scan_exprs)
def test_union_and_difference_match_the_scan(a, b):
    same_run(set_union, ref_union, a, b)
    same_run(set_difference, ref_difference, a, b)
    same_run(set_difference, ref_difference, a, set_union(a, b))


@given(scan_exprs, scan_exprs, st.randoms(use_true_random=False))
def test_extend_matches_the_union(a, b, rnd):
    # the candidates hold every term of a that b holds, plus some others
    shared = [t for t in a._terms if t in b]
    others = [t for t in a._terms if t not in b]
    candidates = shared + rnd.sample(others, rnd.randint(0, len(others)))
    same_run(lambda x, y, c: _extend(x, y, candidates, c), ref_union, a, b)
    merged = _extend(a, b, candidates)
    assert len(set(merged._terms)) == len(merged._terms)


def test_find_first_and_last_with_repeated_symbols():
    term = ("a", "b", "a", "b", "a")
    for s, first, final in [(("a",), 0, 4), (("a", "b"), 0, 2), (("b", "a"), 1, 3),
                            (("a", "a"), None, None)]:
        assert _find([term], s, None) == [first]
        assert _find([term], s, None, last=True) == [final]


@given(st.lists(scan_terms, max_size=12), st.randoms(use_true_random=False))
def test_canonical_order_is_term_key_order(ts, rnd):
    a, b = SopfRe(ts), SopfRe(rnd.sample(ts, len(ts)))
    assert hash(a) == hash(b) and a == b
    assert repr(a) == repr(b)
    assert a.terms == b.terms == tuple(sorted(set(ts), key=term_key))


@given(st.lists(scan_terms, max_size=10), st.lists(scan_terms, max_size=10),
       scan_patterns, st.randoms(use_true_random=False))
def test_kernel_results_do_not_depend_on_term_order(xs, ys, s, rnd):
    # each kernel runs on two constructions of the same sets, in
    # different orders
    a1, a2 = SopfRe(xs), SopfRe(rnd.sample(xs, len(xs)))
    b1, b2 = SopfRe(ys), SopfRe(rnd.sample(ys, len(ys)))
    p1, p2 = pt(a1, s), pt(a2, s)
    pairs = [(p1, p2), (ht(p1, s), ht(p2, s)), (tt(p1, s), tt(p2, s)),
             (set_union(a1, b1), set_union(a2, b2)),
             (set_difference(a1, b1), set_difference(a2, b2)),
             (set_concat(a1, b1), set_concat(a2, b2)),
             (add_term(a1, ("c",)), add_term(a2, ("c",))),
             (remove_term(a1, ("a",)), remove_term(a2, ("a",)))]
    for x, y in pairs:
        built = x._terms  # construction order, until the first read of terms
        assert len(set(built)) == len(built)
        assert hash(x) == hash(y) and x == y
        assert repr(x) == repr(y)
        assert x.terms == y.terms == tuple(sorted(built, key=term_key))

"""Term algebra: selectors, set operations and the textual form."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dagmut
from dagmut import ModelError, ParseError, print_sopf
from dagmut import mutate as mutate_module
from dagmut import sopf as sopf_module
from dagmut.metrics import OpCounters
from dagmut.sopf import (
    SopfRe,
    add_term,
    ht,
    parse_sopf,
    pt,
    remove_term,
    set_concat,
    set_difference,
    set_union,
    term_key,
    tt,
    validate_symbol,
)

from support import built, count_calls, sopf, spell


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
    # spelled as print_sopf spells it: dotted once a name is longer than one
    with pytest.raises(ValueError, match=r"term 'n1\.n12' does not"):
        ht(SopfRe([("n1", "n12"), ("a", "b")]), ("a", "b"))


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


def test_a_lone_term_spelled_empty_prints_dotted():
    # compact, the term E.M.P.T.Y would read back as the empty expression
    lone = SopfRe([tuple("EMPTY")])
    assert print_sopf(lone) == print_sopf(lone, dotted=True) == "E.M.P.T.Y"
    assert parse_sopf(print_sopf(lone)) == lone
    beside = SopfRe([tuple("EMPTY"), ("a",)])
    assert print_sopf(beside) == "a + EMPTY"
    assert parse_sopf(print_sopf(beside)) == beside


def test_first_print_decodes_each_term_once(monkeypatch):
    decoded = count_calls(monkeypatch, sopf_module, "_decode")
    words = [(f"n{k}", f"m{k % 7}") for k in range(50, 0, -1)] + [("z",)]
    expected = " + ".join(".".join(w) for w in sorted(words, key=term_key))
    for read in (print_sopf, lambda r: " + ".join(map(".".join, r.terms))):
        r = SopfRe(words)
        assert not r._canonical
        del decoded[:]
        assert read(r) == expected
        assert len(decoded) == len(words)


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


@pytest.mark.parametrize("text, message", [
    ("   ", "empty expression text"),
    ("a ++ b", "empty product term"),
    ("a.b + c(", "symbol 'c(' contains reserved character '('"),
    ("a. b", "symbol ' b' contains reserved character ' '"),
    ("a.EMPTY", "'EMPTY' is reserved for the empty expression"),
    ("ab + c{", "symbol '{' contains reserved character '{'"),
    ("a..b", "symbol must be a nonempty string"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_sopf(text)
    assert str(err.value) == message


def test_parse_validates_each_distinct_token_once(monkeypatch):
    calls = count_calls(monkeypatch, sopf_module, "validate_symbol")
    assert parse_sopf("ab + ba + abc + cab") == sopf("ab", "ba", "abc", "cab")
    assert sorted(sym for sym, in calls) == ["a", "b", "c"]
    calls.clear()
    assert parse_sopf("n1.n2 + n2.n1 + n1") == SopfRe([("n1", "n2"), ("n2", "n1"), ("n1",)])
    assert sorted(sym for sym, in calls) == ["n1", "n2"]


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
# kernels against per-position references
#
# The references below find a pattern by comparing it at every position of
# a term, and count by the definitions of OpCounters: one search per term a
# kernel searches, one copy per term it cuts or joins, one lookup per term
# it hashes.  The kernels must return the same results and the same counts.

def ref_find(term, pattern, *, last=False):
    found = None
    for k in range(len(term) - len(pattern) + 1):
        if term[k] != pattern[0]:
            continue
        if len(pattern) == 2 and term[k + 1] != pattern[1]:
            continue
        if not last:
            return k
        found = k
    return found


def ref_pt(r, pattern, counters):
    picked = []
    for term in r:
        counters.symbol_comparisons += 1
        if ref_find(term, pattern) is not None:
            picked.append(term)
    return SopfRe(tuple(picked))


def ref_cut(p, pattern, counters, *, last):
    seen, cuts = set(), []
    for term in p:
        counters.symbol_comparisons += 1
        k = ref_find(term, pattern, last=last)
        assert k is not None
        cut = term[k:] if last else term[:k + len(pattern)]
        counters.term_copies += 1
        counters.set_lookups += 1
        if cut not in seen:
            seen.add(cut)
            cuts.append(cut)
    return SopfRe(tuple(cuts))


def ref_union(a, b, counters):
    # every term of both operands is hashed, unless one of them is empty
    seen, merged = set(), []
    for term in (*a, *b):
        counters.set_lookups += bool(a and b)
        if term not in seen:
            seen.add(term)
            merged.append(term)
    return SopfRe(tuple(merged))


def ref_difference(r, c, counters):
    drop = set()
    for term in c:
        counters.set_lookups += 1
        drop.add(term)
    kept = []
    for term in r:
        counters.set_lookups += 1
        if term not in drop:
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
    held = [t for t in terms if ref_find(t, s) is not None]
    cut = tt if last else ht
    want = [t[ref_find(t, s, last=True):] if last else t[:ref_find(t, s) + len(s)]
            for t in held]
    assert built(cut(SopfRe(held), s)) == list(dict.fromkeys(want))
    if len(held) < len(terms):
        with pytest.raises(ValueError, match="does not contain the pattern"):
            cut(SopfRe(terms), s)


@given(scan_exprs, scan_patterns)
def test_pt_matches_the_scan(r, s):
    same_run(pt, ref_pt, r, s)


@given(scan_exprs, scan_patterns)
def test_ht_tt_match_the_scan(r, s):
    p = pt(r, s)
    same_run(ht, lambda *a: ref_cut(*a, last=False), p, s)
    same_run(tt, lambda *a: ref_cut(*a, last=True), p, s)


@given(scan_exprs, scan_exprs)
def test_union_and_difference_match_the_scan(a, b):
    same_run(set_union, ref_union, a, b)
    same_run(set_difference, ref_difference, a, b)
    same_run(set_difference, ref_difference, a, set_union(a, b))


def test_find_first_and_last_with_repeated_symbols():
    term = sopf("ababa")
    for s, first, final in [(("a",), 0, 4), (("a", "b"), 0, 2), (("b", "a"), 1, 3)]:
        assert ht(term, s).terms == (tuple("ababa")[:first + len(s)],)
        assert tt(term, s).terms == (tuple("ababa")[final:],)
    for cut in (ht, tt):
        with pytest.raises(ValueError, match="term 'ababa' does not"):
            cut(term, ("a", "a"))


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
        order = built(x)  # construction order, until the first read of terms
        assert len(set(order)) == len(order)
        assert hash(x) == hash(y) and x == y
        assert repr(x) == repr(y)
        assert x.terms == y.terms == tuple(sorted(order, key=term_key))


# --------------------------------------------------------------------------
# the alphabet
#
# Terms are stored as code-point strings.  Each example below starts from a
# fresh alphabet and registers its names in a drawn order, so a non-ASCII
# name may be handed the code point that is itself a name ("Ā" is U+0100,
# the first code handed out).

MIXED_NAMES = ["a", "b", "c", "n1", "xy", "Ā", "é"]
mixed_symbols = st.sampled_from(MIXED_NAMES)
mixed_terms = st.lists(mixed_symbols, min_size=1, max_size=6).map(tuple)
mixed_term_lists = st.lists(mixed_terms, max_size=8)
mixed_patterns = st.lists(mixed_symbols, min_size=1, max_size=2).map(tuple)


def fresh_alphabet(mp, order):
    """Give ``mp`` a fresh alphabet holding only ASCII, then register
    ``order`` in turn."""
    ascii_codes = {chr(c): chr(c) for c in range(128)}
    mp.setattr(sopf_module, "_CODES", dict(ascii_codes))
    mp.setattr(sopf_module, "_NAMES", dict(ascii_codes))
    mp.setattr(sopf_module, "_next_code", 0x100)
    sopf_module._codes(order)


def ref_concat(a, b, counters):
    products = []
    for x in a:
        for y in b:
            counters.term_copies += 1
            counters.set_lookups += 1
            products.append(x + y)
    return SopfRe(products)


@given(st.permutations(MIXED_NAMES), mixed_term_lists, mixed_term_lists, mixed_patterns,
       mixed_terms)
def test_mixed_alphabet_operations_match_the_tuple_loops(order, xs, ys, s, t):
    with pytest.MonkeyPatch.context() as mp:
        fresh_alphabet(mp, order)
        a, b = SopfRe(xs), SopfRe(ys)
        same_run(pt, ref_pt, a, s)
        p = pt(a, s)
        same_run(ht, lambda *args: ref_cut(*args, last=False), p, s)
        same_run(tt, lambda *args: ref_cut(*args, last=True), p, s)
        same_run(set_union, ref_union, a, b)
        same_run(set_difference, ref_difference, a, b)
        same_run(set_concat, ref_concat, a, b)
        assert add_term(a, t) == SopfRe([*xs, t])
        assert remove_term(a, t) == SopfRe([x for x in xs if x != t])
        # the public view is in symbol names, in their canonical order
        assert a.terms == tuple(sorted(set(xs), key=term_key))
        assert list(a) == list(a.terms)
        assert a.symbols() == {sym for x in xs for sym in x}
        assert all(x in a for x in xs) and (t in a) == (t in xs)
        assert pickle.loads(pickle.dumps(a)) == copy.copy(a) == a
        if xs:
            assert parse_sopf(print_sopf(a, dotted=True), dotted=True) == a
        if all(len(sym) == 1 for x in xs for sym in x):
            assert parse_sopf(print_sopf(a)) == a


@given(st.permutations(MIXED_NAMES), mixed_term_lists, mixed_symbols, mixed_symbols)
def test_unjoined_matches_the_tuple_definition(order, xs, x, y):
    # every draw also holds both symbols reversed and apart, and repeats
    xs = [*xs, (y, x), (x, "c", y), (y, "b", x, "xy"), (x, y, x, y)]
    with pytest.MonkeyPatch.context() as mp:
        fresh_alphabet(mp, order)
        codes = tuple(sopf_module._encode(t) for t in xs)
        joined = [(x, y) in zip(t, t[1:]) for t in xs]
        counters = OpCounters()
        kept = mutate_module._unjoined(codes, x, y, counters)
        assert kept == tuple(c for c, hit in zip(codes, joined) if not hit)
        assert counters == OpCounters(symbol_comparisons=len(xs))


def test_pickles_by_name_across_interpreters():
    terms = [("n1", "Ā"), ("é", "a", "xy"), ("b",)]
    dump = ("import pickle, sys; from dagmut.sopf import SopfRe; "
            f"sys.stdout.buffer.write(pickle.dumps(SopfRe({terms!r})))")
    # the loading interpreter hands out its codes in another order first
    load = ("import pickle, sys; from dagmut.sopf import SopfRe, _codes; "
            "_codes(['zz', 'xy', 'é', 'q9', 'Ā', 'n1']); "
            "r = pickle.loads(sys.stdin.buffer.read()); "
            f"assert r == SopfRe({terms!r}) and r.terms == SopfRe({terms!r}).terms; "
            "print(r.terms)")
    env = {**os.environ, "PYTHONPATH": str(Path(dagmut.__file__).parents[1])}
    data = subprocess.run([sys.executable, "-c", dump], env=env, capture_output=True,
                          timeout=60, check=True).stdout
    out = subprocess.run([sys.executable, "-c", load], env=env, input=data,
                         capture_output=True, timeout=60, check=True)
    assert out.stdout.decode().strip() == repr(SopfRe(terms).terms)
    assert pickle.loads(data) == SopfRe(terms)


def test_queries_do_not_grow_the_alphabet():
    r = SopfRe([("n1", "n12"), ("a", "b")])
    size = len(sopf_module._CODES)
    assert ("zz1",) not in r
    assert pt(r, ("zz2",)) == pt(r, ("a", "zz2")) == SopfRe()
    assert remove_term(r, ("zz3",)) is r
    assert ht(SopfRe(), ("zz4",)) == tt(SopfRe(), ("zz4",)) == SopfRe()
    with pytest.raises(ValueError, match="does not contain the pattern"):
        tt(r, ("zz5",))
    assert len(sopf_module._CODES) == size
    # a term adds its names
    add_term(r, ("zz6",))
    assert len(sopf_module._CODES) == size + 1


@pytest.mark.parametrize("term", [("EMPTY",), ("+",), (" ",), ("x+y",), (5, "a")])
def test_terms_with_illegal_symbols_are_refused_unregistered(term):
    size = len(sopf_module._CODES)
    with pytest.raises(ValueError):
        SopfRe([term])
    with pytest.raises(ValueError):
        add_term(SopfRe(), term)
    assert len(sopf_module._CODES) == size


def test_alphabet_skips_surrogates_and_refuses_past_the_last_code(monkeypatch):
    fresh_alphabet(monkeypatch, [])
    monkeypatch.setattr(sopf_module, "_next_code", 0xD800)
    assert SopfRe([("surrogate_probe",)])._terms == ("\ue000",)
    monkeypatch.setattr(sopf_module, "_next_code", 0x10FFFF)
    assert add_term(SopfRe(), ("last_code_probe",))._terms == ("\U0010ffff",)
    with pytest.raises(ModelError, match="alphabet full: no code point left for symbol 'full_probe'"):
        SopfRe([("a", "full_probe")])
    # a name that already has a code still works
    assert SopfRe([("last_code_probe", "a")]).terms == (("last_code_probe", "a"),)

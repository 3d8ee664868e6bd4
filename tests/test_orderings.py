import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proofbench
from proofbench.gens import random_spec
from proofbench.orderings import (
    BelowOrd,
    FinOrd,
    LexOrd,
    RevOrd,
    SumOrd,
    TableOrd,
    UnsupportedRankError,
    element_of_rank,
    field_elements,
    height,
    in_field,
    iter_field,
    less,
    linear,
    ord_code,
    ord_decode,
    otyp,
    pair_code,
    parse_spec,
    rank,
    rankable,
    search_descending,
    segment_member,
    spec_text,
    unpair_code,
)
from proofbench.ordinals import (CapExceededError, NotationError, Ordinal, canonical_texts, compare, from_int, lt, parse,
                                 succ)

P = parse
W = P("w")
W2 = P("w^2")
W3 = P("w^3")


def code(s: str) -> int:
    return ord_code(P(s))


def test_codes_round_trip_and_are_shortlex():
    for s in ["0", "7", "w", "E", "w+3", "w^2*3+w+5"]:
        assert ord_decode(code(s)) == P(s)
    assert code("9") < code("w") < code("10") < code("99") < code("100")
    assert ord_decode(0) is None
    assert ord_decode(int.from_bytes(b"w*1", "big")) is None


def parsed_code(n: int):
    """ord_decode as it was: every code's text handed to `parse`."""
    if n <= 0:
        return None
    try:
        return parse(n.to_bytes((n.bit_length() + 7) // 8, "big").decode("ascii"))
    except (UnicodeDecodeError, NotationError):
        return None


def test_decoding_rejects_at_the_first_byte_what_parse_rejects():
    texts = itertools.takewhile(lambda s: len(s) <= 5, canonical_texts())
    for n in itertools.chain(range(-1, 2**16), map(code, texts)):
        assert ord_decode(n) == parsed_code(n), n


def test_less_and_in_field():
    assert less(FinOrd(5), 2, 4)
    assert not less(FinOrd(5), 4, 4)
    assert not less(FinOrd(5), 2, 7)
    below = BelowOrd(W2)
    assert less(below, code("w+3"), code("w*2"))
    assert not less(below, code("w*2"), code("w+3"))
    assert in_field(below, code("w+3"))
    assert not in_field(below, code("w^2"))
    assert less(RevOrd(BelowOrd(W)), code("7"), code("3"))


def test_rank_examples():
    assert rank(FinOrd(5), 3) == from_int(3)
    assert rank(BelowOrd(W2), code("w+3")) == P("w+3")
    lex = LexOrd(FinOrd(2), BelowOrd(W))
    assert rank(lex, pair_code(1, code("5"))) == P("w+5")
    assert rank(lex, pair_code(0, code("5"))) == from_int(5)


def test_rank_by_enumeration_oracle():
    # in the A-major product the first block is (0, b); sorting a pool by the
    # order relation must match the computed ranks
    lex = LexOrd(FinOrd(2), BelowOrd(W))
    pool = [pair_code(0, code(str(i))) for i in range(100)]
    ordered = sorted(pool, key=lambda n: [less(lex, m, n) for m in pool].count(True))
    for expected_rank, n in enumerate(ordered):
        assert rank(lex, n) == from_int(expected_rank)


def test_sum_rank_and_otyp():
    s = SumOrd(FinOrd(2), BelowOrd(W))
    assert otyp(s) == W  # 2 + w = w
    assert rank(s, 2 * 1) == from_int(1)
    assert rank(s, 2 * code("5") + 1) == from_int(7)
    assert otyp(LexOrd(FinOrd(3), BelowOrd(W))) == P("w*3")
    assert otyp(BelowOrd(W2)) == W2
    assert otyp(TableOrd(frozenset({(4, 7), (4, 9), (7, 9)}))) == from_int(3)


def test_segment_member():
    assert segment_member(FinOrd(5), 3, from_int(4))
    assert not segment_member(FinOrd(5), 3, from_int(3))
    assert segment_member(BelowOrd(W2), code("w"), P("w+1"))
    for n in field_elements(BelowOrd(W2), 200):
        assert segment_member(BelowOrd(W2), n, W2)
        assert segment_member(BelowOrd(W2), n, otyp(BelowOrd(W2)))


def test_rank_matches_less():
    spec = SumOrd(BelowOrd(W), LexOrd(FinOrd(2), FinOrd(3)))
    elems = field_elements(spec, 60)
    for n in elems:
        for m in elems:
            assert less(spec, n, m) == (compare(rank(spec, n), rank(spec, m)).value == -1)


def test_field_elements_below_w():
    first = field_elements(BelowOrd(W), 200)
    assert first == [code(str(i)) for i in range(200)]
    # a finite bound ends the field, past the five-character texts
    whole = list(iter_field(BelowOrd(from_int(100_001))))
    assert whole == [code(str(i)) for i in range(100_001)] and whole[-1] == code("100000")
    # numerals lie below every infinite bound, so they are not parsed
    parse.cache_clear()
    assert len(field_elements(BelowOrd(W), 100_000)) == 100_000
    assert parse.cache_info().misses < 10_000


def _scan(length: int) -> list[str]:
    """Reference oracle: every string of the notation alphabet that parses, in text order."""
    found = []
    for chars in itertools.product(sorted("0123456789()*+E^w"), repeat=length):
        try:
            parse("".join(chars))
        except NotationError:
            continue
        found.append("".join(chars))
    return found


def test_below_fields_match_the_scan_oracle():
    texts = [s for length in range(1, 5) for s in _scan(length)]
    assert list(itertools.islice(canonical_texts(), len(texts))) == texts
    for bound in (W, P("w^w"), P("E+1")):
        want = [code(s) for s in texts if lt(P(s), bound)]
        assert field_elements(BelowOrd(bound), len(want)) == want


def test_below_enumeration_is_thread_safe():
    # a fresh process, so that the threads are the first to enumerate
    script = """
import json, sys, threading
from proofbench.orderings import BelowOrd, field_elements
from proofbench.ordinals import parse
results = [None] * 4
def take(i):
    results[i] = field_elements(BelowOrd(parse("w^2")), 5000)
threads = [threading.Thread(target=take, args=(i,)) for i in range(4)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
for t in threads:
    t.join(120)
sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
print(json.dumps(results))
"""
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    single = field_elements(BelowOrd(W2), 5000)
    assert json.loads(done.stdout) == [single] * 4


def test_element_of_rank_inverts_rank():
    lex = LexOrd(FinOrd(3), BelowOrd(W))
    for spec, count in [(FinOrd(6), 40), (BelowOrd(W2), 40), (SumOrd(FinOrd(2), BelowOrd(W)), 40), (lex, 1000)]:
        for n in field_elements(spec, count):
            assert element_of_rank(spec, rank(spec, n)) == n
    assert element_of_rank(FinOrd(3), from_int(5)) is None
    assert element_of_rank(lex, P("w*2+1000")) == pair_code(2, code("1000"))


# non-linear specs with no fault below code 200: the table's pairs lie
# above it, and the product's first trichotomy failure is at (1224, 2394)
HIDDEN_CYCLES = [
    "(table (300 301) (301 300))",
    '(lex (lex (rev (fin 5)) (table (1 0) (1 3) (3 0) (5 1))) (below "w^2"))',
]


def test_linear_by_spec_kind():
    cyc = TableOrd(frozenset({(0, 1), (1, 2), (2, 0)}))
    assert linear(FinOrd(5)) and not linear(cyc)
    assert linear(RevOrd(BelowOrd(W))) and not linear(RevOrd(cyc))
    for spec in [FinOrd(4), BelowOrd(W2), SumOrd(FinOrd(2), FinOrd(2)), LexOrd(FinOrd(2), FinOrd(2)),
                 TableOrd(frozenset({(5, 3), (5, 9), (3, 9)}))]:
        assert linear(spec)
    assert not linear(SumOrd(FinOrd(2), cyc)) and not linear(LexOrd(BelowOrd(W), cyc))
    for text in HIDDEN_CYCLES:
        assert not linear(parse_spec(text))


def test_a_product_with_an_empty_side_is_linear():
    cyc = TableOrd(frozenset({(0, 1), (1, 2), (2, 0)}))
    empty = RevOrd(BelowOrd(P("0")))
    assert linear(LexOrd(cyc, empty)) and linear(LexOrd(empty, cyc))
    assert field_elements(LexOrd(cyc, empty), 1) == []
    assert not linear(LexOrd(cyc, FinOrd(1))) and not linear(LexOrd(FinOrd(1), cyc))


def linear_on(spec, elems) -> bool:
    """Brute force: `less` is a strict linear order on elems.

    Irreflexive, with exactly one of x<y and y<x for each pair, the relation
    is a tournament, which is transitive iff no two elements have the same
    number of predecessors."""
    if any(less(spec, x, x) for x in elems):
        return False
    preds = {x: 0 for x in elems}
    for x, y in itertools.combinations(elems, 2):
        xy = less(spec, x, y)
        if xy == less(spec, y, x):
            return False
        preds[y if xy else x] += 1
    return len(set(preds.values())) == len(elems)


@pytest.mark.parametrize("depth, seeds", [(2, range(300)), (3, range(300))])
def test_linear_agrees_with_brute_force(depth, seeds):
    small = 0
    for seed in seeds:
        spec = random_spec(random.Random(seed), depth)
        elems = field_elements(spec, 200)
        if len(elems) < 200:  # the whole field
            small += 1
            assert linear(spec) == linear_on(spec, elems), (seed, spec_text(spec))
        elif linear(spec):
            assert linear_on(spec, elems[:40]), (seed, spec_text(spec))
    assert small > 100


def test_search_descending():
    chain = search_descending(RevOrd(BelowOrd(W)), 10)
    assert chain == [code(str(i)) for i in range(10)]
    assert search_descending(FinOrd(5), 10) is None
    assert search_descending(BelowOrd(W), 10) is None
    # reversing a finite order leaves it well-founded
    assert search_descending(RevOrd(FinOrd(3)), 10) is None


def test_rank_errors():
    with pytest.raises(UnsupportedRankError):
        rank(RevOrd(BelowOrd(W)), code("3"))
    with pytest.raises(UnsupportedRankError):
        otyp(RevOrd(BelowOrd(W)))
    with pytest.raises(UnsupportedRankError):
        rank(FinOrd(3), 7)
    assert not rankable(TableOrd(frozenset({(0, 1), (1, 0)})))
    # a finite reversal is a well-order, ranked from the top of its inner order
    rev = RevOrd(FinOrd(3))
    assert rankable(rev) and otyp(rev) == from_int(3)
    assert [rank(rev, n) for n in range(3)] == [from_int(2), from_int(1), from_int(0)]
    assert [element_of_rank(rev, from_int(k)) for k in range(4)] == [2, 1, 0, None]


def embeds(source, b, target) -> bool:
    """{x : x <= b in source} embeds into target: its type is below the height."""
    return lt(succ(rank(source, b)), height(target))


def test_height_identity_cases():
    assert embeds(FinOrd(3), 2, FinOrd(5))
    assert not embeds(FinOrd(3), 2, FinOrd(2))
    # Below into Below: the canonical map, by rank, is the identity on notations
    assert embeds(BelowOrd(W2), code("w*2"), BelowOrd(W3))
    below = [x for x in field_elements(BelowOrd(W2), 200) if lt(rank(BelowOrd(W2), x), P("w*2+1"))]
    assert code("w") in below
    assert all(element_of_rank(BelowOrd(W3), rank(BelowOrd(W2), x)) == x for x in below)


def test_height_respects_order_type():
    assert not embeds(BelowOrd(W2), code("w*2"), BelowOrd(W))
    # restriction of type w+1 fits into w*2 but not into w
    assert embeds(BelowOrd(W2), code("w"), BelowOrd(P("w*2")))
    assert not embeds(BelowOrd(W2), code("w"), BelowOrd(W))


def test_height_of_a_reversed_order():
    rev = RevOrd(BelowOrd(W))
    assert embeds(FinOrd(5), 4, rev)
    # the elements of inner ranks 4..0 ascend in the reversal
    chain = [element_of_rank(BelowOrd(W), from_int(k)) for k in range(4, -1, -1)]
    assert all(less(rev, a, b) for a, b in zip(chain, chain[1:]))
    assert height(rev) == W and not embeds(BelowOrd(W2), code("w"), rev)


@pytest.mark.parametrize("spec, value", [
    ('(rev (below "w"))', "w"),
    ('(lex (below "w") (rev (below "w")))', "w+1"),
    ('(lex (rev (below "w")) (below "w"))', "w^2"),
    ('(sum (below "w") (rev (below "w")))', "w*2"),
    ('(sum (rev (below "w")) (fin 3))', "w"),
    ('(lex (fin 2) (sum (below "w") (rev (below "w"))))', "w*3"),
    ('(rev (fin 3))', "4"),
    ('(rev (below "E*2"))', "w"),
    ('(below "E*2")', "E*2+1"),
])
def test_height_examples(spec, value):
    assert height(parse_spec(spec)) == P(value)


def test_height_of_an_empty_product_does_not_ask_its_other_side():
    spec = parse_spec("(lex (table (0 0)) (fin 0))")
    assert linear(spec) and not linear(spec.major)
    assert height(spec) == height(spec, True) == P("1")


def test_an_empty_product_has_order_type_0_whatever_its_other_side():
    for text in ('(lex (rev (below "w^2")) (below "0"))', "(lex (table (0 0)) (fin 0))"):
        spec = parse_spec(text)
        assert not rankable(spec.major) and rankable(spec)
        assert otyp(spec) == from_int(0) and element_of_rank(spec, from_int(0)) is None


def test_a_height_at_least_e_times_w_has_no_notation():
    with pytest.raises(CapExceededError):
        height(parse_spec('(lex (below "w") (below "E"))'))
    with pytest.raises(CapExceededError):
        height(parse_spec('(lex (rev (below "w")) (below "E"))'))
    assert height(parse_spec('(rev (lex (below "w") (below "E")))')) == W


def test_height_of_a_finite_linear_order_is_its_size_plus_one():
    """Brute force: a linear order of n elements embeds exactly the ordinals up to n."""
    seen = set()
    specs = [random_spec(random.Random(seed), 3) for seed in range(500)]
    specs += [parse_spec("(rev (fin 4))"), parse_spec("(lex (rev (fin 2)) (table (7 3) (7 1) (3 1)))")]
    for spec in specs:
        elems = field_elements(spec, 200)
        if len(elems) < 200 and linear(spec):
            seen.update(kind for kind in ("(rev (fin", "(table") if kind in spec_text(spec))
            assert height(spec) == height(spec, True) == from_int(len(elems) + 1), spec_text(spec)
    assert seen == {"(rev (fin", "(table"}


def to_e2(eterm, terms):
    """A notation up to E*2 from an E coefficient and (exponent index, coefficient) terms."""
    if eterm == 2:
        return P("E*2")
    exps = [P("w^2"), P("w+1"), W, P("2"), P("1"), P("0")]
    return Ordinal(eterm, tuple((exps[i], c) for i, c in sorted(terms)))


ORDINALS_TO_E2 = st.builds(to_e2, st.integers(0, 2),
                           st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=3,
                                    unique_by=lambda t: t[0]))
LINEAR_SPECS = st.recursive(
    st.one_of(st.builds(FinOrd, st.integers(0, 3)), st.builds(BelowOrd, ORDINALS_TO_E2)),
    lambda parts: st.one_of(st.builds(RevOrd, parts), st.builds(SumOrd, parts, parts),
                            st.builds(LexOrd, parts, parts)),
    max_leaves=3)


def heights(spec):
    """The heights of spec and of its reversal, None for one with no notation."""
    out = []
    for reverse in (False, True):
        try:
            out.append(height(spec, reverse))
        except CapExceededError:
            out.append(None)
    return tuple(out)


@pytest.mark.parametrize("isomorphic", [
    lambda a, b, c: (SumOrd(SumOrd(a, b), c), SumOrd(a, SumOrd(b, c))),
    lambda a, b, c: (LexOrd(LexOrd(a, b), c), LexOrd(a, LexOrd(b, c))),
    lambda a, b, c: (LexOrd(SumOrd(a, b), c), SumOrd(LexOrd(a, c), LexOrd(b, c))),
    lambda a, b, c: (LexOrd(FinOrd(2), a), SumOrd(a, a)),
    lambda a, b, c: (LexOrd(FinOrd(3), a), SumOrd(SumOrd(a, a), a)),
    lambda a, b, c: (LexOrd(FinOrd(1), a), a),
    lambda a, b, c: (LexOrd(a, FinOrd(1)), a),
    lambda a, b, c: (RevOrd(SumOrd(a, b)), SumOrd(RevOrd(b), RevOrd(a))),
    lambda a, b, c: (RevOrd(LexOrd(a, b)), LexOrd(RevOrd(a), RevOrd(b))),
], ids=["sum-assoc", "lex-assoc", "lex-distributes", "lex-2", "lex-3", "lex-1-major", "lex-1-minor",
        "rev-sum", "rev-lex"])
@settings(max_examples=200, deadline=None)
@given(a=LINEAR_SPECS, b=LINEAR_SPECS, c=LINEAR_SPECS)
def test_isomorphic_orders_have_equal_heights(isomorphic, a, b, c):
    left, right = isomorphic(a, b, c)
    assert heights(left) == heights(right)


def test_an_infinite_ascent_exists_exactly_when_the_height_is_above_w():
    """Every linear random spec, both ways round: a height with no notation
    counts as above w, and each sampled chain stays in the field."""
    count = 0
    for seed in range(3000):
        spec = random_spec(random.Random(seed), 3)
        if not linear(spec):
            continue
        count += 1
        for reverse, h in zip((False, True), heights(spec)):
            seq = spec.ascent(reverse)
            assert (seq is not None) == (h is None or lt(W, h)), (seed, spec_text(spec), reverse)
            if seq is not None:
                chain = list(itertools.islice(seq, 12))
                assert all(in_field(spec, x) for x in chain), (seed, spec_text(spec))
                assert all(less(spec, y, x) if reverse else less(spec, x, y) for x, y in zip(chain, chain[1:])), \
                    (seed, spec_text(spec), reverse)
                if reverse:
                    assert search_descending(spec, 12) == chain
    assert count > 2000


@settings(max_examples=300, deadline=None)
@given(spec=LINEAR_SPECS)
@example(spec=parse_spec('(rev (rev (below "w^2")))'))
@example(spec=parse_spec('(rev (sum (rev (below "w")) (fin 3)))'))
@example(spec=parse_spec('(rev (lex (rev (below "w")) (fin 2)))'))
def test_a_linear_spec_is_rankable_exactly_when_its_reversal_has_height_at_most_w(spec):
    """A reversal of an infinite field included: a rankable spec has an order
    type, and its ranks agree with `less`."""
    up, down = heights(spec)
    assert rankable(spec) == (down is not None and not lt(W, down))
    if rankable(spec) and up is not None:
        assert up == succ(otyp(spec))
        first = field_elements(spec, 12)
        assert [element_of_rank(spec, rank(spec, x)) for x in first] == first
        assert all(less(spec, x, y) == lt(rank(spec, x), rank(spec, y)) for x in first for y in first)


def linear_table(codes):
    return TableOrd(frozenset((x, y) for i, x in enumerate(codes) for y in codes[i + 1:]))


FINITE_SPECS = st.recursive(
    st.one_of(st.builds(FinOrd, st.integers(0, 3)), st.builds(BelowOrd, st.integers(0, 3).map(from_int)),
              st.lists(st.integers(0, 9), min_size=2, max_size=3, unique=True).map(linear_table)),
    lambda parts: st.one_of(st.builds(RevOrd, parts), st.builds(SumOrd, parts, parts),
                            st.builds(LexOrd, parts, parts)),
    max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(spec=FINITE_SPECS)
def test_a_finite_spec_ranks_its_field_onto_its_order_type(spec):
    """Brute force over the whole field, `rev` inside `sum` and `lex` included."""
    elems = list(iter_field(spec))
    ranks = [rank(spec, x) for x in elems]
    assert rankable(spec) and otyp(spec) == from_int(len(elems))
    assert sorted(r.nat_value() for r in ranks) == list(range(len(elems)))
    assert all(less(spec, x, y) == lt(rx, ry) for x, rx in zip(elems, ranks) for y, ry in zip(elems, ranks))
    assert [element_of_rank(spec, r) for r in ranks] == elems
    assert element_of_rank(spec, otyp(spec)) is None


def test_random_specs_agree_with_their_ranks():
    rng = random.Random(0)
    for _ in range(300):
        spec = random_spec(rng, 2)
        assert parse_spec(spec_text(spec)) == spec
        first = field_elements(spec, 20)
        assert first == sorted(set(first)) and all(in_field(spec, n) for n in first)
        # no code skipped below the last one listed (below 500 once the field ends) is in the field
        end = min(first[-1] + 1 if len(first) == 20 else 500, 500)
        assert [n for n in range(end) if in_field(spec, n)] == [n for n in first if n < end]
        if rankable(spec):
            assert height(spec) == succ(otyp(spec))
            assert height(spec, True) == (succ(otyp(spec)) if otyp(spec).is_finite() else W)
            for x in first:
                assert element_of_rank(spec, rank(spec, x)) == x
                for y in first:
                    assert less(spec, x, y) == lt(rank(spec, x), rank(spec, y))
        else:
            with pytest.raises(UnsupportedRankError):
                otyp(spec)


def test_pairing_round_trip():
    for a in range(25):
        for b in range(25):
            assert unpair_code(pair_code(a, b)) == (a, b)


def test_spec_sexp_round_trip():
    specs = [
        FinOrd(5),
        BelowOrd(W2),
        SumOrd(FinOrd(2), BelowOrd(W)),
        LexOrd(FinOrd(3), BelowOrd(W)),
        RevOrd(BelowOrd(W)),
        TableOrd(frozenset({(0, 1), (1, 2), (0, 2)})),
    ]
    for s in specs:
        assert parse_spec(spec_text(s)) == s
    assert spec_text(BelowOrd(W2)) == '(below "w^2")'


def test_a_deep_spec_hashes_in_constant_time():
    # a spec is a term: its hash is stored at construction from its fields' stored hashes
    spec = FinOrd(2)
    for _ in range(5000):
        spec = RevOrd(spec)
    assert hash(spec) == hash((spec.inner,))
    assert {spec: 1}[spec] == 1

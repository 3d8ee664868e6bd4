import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from proofbench import cnforacle as oracle
from proofbench import ordinals
from proofbench.gens import random_ordinal, random_vec_below_w3
from proofbench.ordinals import (
    EPSILON,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    CapExceededError,
    Cmp,
    NotationError,
    Ordinal,
    add,
    compare,
    div,
    from_int,
    le,
    lt,
    mul,
    parse,
    pow2,
    succ,
    text,
)

P = parse


# --- oracle agreement (small slice; the full sweep is acceptance criterion 1)


def test_compare_add_mul_agree_with_vector_oracle():
    vecs = oracle.enumerate_below_w3(2)
    notations = {v: P(oracle.terms_text(oracle.vec_terms(*v))) for v in vecs}
    for va in vecs:
        for vb in vecs:
            ta, tb = oracle.vec_terms(*va), oracle.vec_terms(*vb)
            got = compare(notations[va], notations[vb])
            assert got.value == oracle.cmp_terms(ta, tb)
            assert text(add(notations[va], notations[vb])) == oracle.terms_text(
                oracle.add_terms(ta, tb)
            )
            assert text(mul(notations[va], notations[vb])) == oracle.terms_text(
                oracle.mul_terms(ta, tb)
            )


def test_pow2_agrees_with_recursion_oracle():
    for v in oracle.enumerate_below_w3(3):
        x = P(oracle.terms_text(oracle.vec_terms(*v)))
        assert text(pow2(x)) == oracle.pow2_vec_text(*v)


# --- pinned examples


def test_compare_examples():
    assert compare(P("w+1"), P("w")) is Cmp.GT
    assert compare(P("w^2"), P("w*5+3")) is Cmp.GT
    assert compare(P("E"), P("w^(w^w)")) is Cmp.GT


def test_add_examples():
    a = P("w^2*2+3")
    assert add(a, ZERO) == a and add(ZERO, a) == a
    assert add(ONE, OMEGA) == OMEGA
    assert add(P("w+2"), P("w*3")) == P("w*4")


def test_mul_examples():
    assert mul(from_int(2), OMEGA) == OMEGA
    assert mul(P("w*2"), OMEGA) == P("w^2")
    assert mul(OMEGA, from_int(3)) == P("w*3")


def test_pow2_examples():
    assert pow2(from_int(3)) == from_int(8)
    assert pow2(OMEGA) == OMEGA
    assert pow2(P("w+2")) == P("w*4")
    assert pow2(EPSILON) == EPSILON
    assert pow2(P("w*3+1")) == P("w^3*2")


def test_cap_errors():
    with pytest.raises(CapExceededError):
        mul(EPSILON, OMEGA)
    with pytest.raises(CapExceededError):
        mul(EPSILON, EPSILON)
    with pytest.raises(CapExceededError):
        pow2(P("E+1"))
    with pytest.raises(CapExceededError):
        pow2(P("E*2"))
    # E times a finite is fine and stays below the cap
    assert mul(P("E+1"), from_int(2)) == P("E*2+1")


# --- algebraic properties


def _rand_ordinals(n, seed, allow_e=True):
    rng = random.Random(seed)
    return [random_ordinal(rng, allow_e=allow_e) for _ in range(n)]


def test_add_associative_and_succ_compatible():
    xs = _rand_ordinals(60, 11)
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, succ(b)) == succ(add(a, b))


def test_mul_associative():
    rng = random.Random(12)
    for _ in range(60):
        a, b, c = (random_ordinal(rng, depth=1, allow_e=False) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_right_monotonicity():
    xs = _rand_ordinals(80, 13, allow_e=False)
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        if compare(b, c) is Cmp.LT:
            assert compare(add(a, b), add(a, c)) is Cmp.LT
            if not a.is_zero():
                assert compare(mul(a, b), mul(a, c)) is Cmp.LT


def test_pow2_strictly_monotone():
    xs = _rand_ordinals(120, 14, allow_e=False)
    for a, b in zip(xs, xs[1:]):
        c = compare(a, b)
        if c is Cmp.EQ:
            continue
        lo, hi = (a, b) if c is Cmp.LT else (b, a)
        assert compare(pow2(lo), pow2(hi)) is Cmp.LT
    assert compare(pow2(P("w^2")), pow2(EPSILON)) is Cmp.LT


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_div_is_left_division(rng):
    a, b = random_ordinal(rng), random_ordinal(rng)
    assume(not b.is_zero())
    q, r = div(a, b)
    try:
        product = mul(b, q)
    except CapExceededError:
        reject()
    assert add(product, r) == a
    assert lt(r, b)


def test_compare_is_total_order():
    xs = _rand_ordinals(40, 15)
    for a in xs:
        assert compare(a, a) is Cmp.EQ
    for a, b in zip(xs, xs[1:]):
        assert compare(a, b).value == -compare(b, a).value
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        if compare(a, b) is Cmp.LT and compare(b, c) is Cmp.LT:
            assert compare(a, c) is Cmp.LT


# --- keys


def ref_compare(a, b):
    """`compare` as it was before ordinals carried keys: a walk of both
    notations, recursing into the exponents; kept as the reference."""
    if a.eterm != b.eterm:
        return Cmp.LT if a.eterm < b.eterm else Cmp.GT
    for (ea, ca), (eb, cb) in zip(a.wterms, b.wterms):
        c = ref_compare(ea, eb)
        if c is not Cmp.EQ:
            return c
        if ca != cb:
            return Cmp.LT if ca < cb else Cmp.GT
    if len(a.wterms) != len(b.wterms):
        return Cmp.LT if len(a.wterms) < len(b.wterms) else Cmp.GT
    return Cmp.EQ


_descending = functools.cmp_to_key(lambda a, b: ref_compare(b, a).value)


def _sum(draw, eterm, below):
    """A canonical sum: E*eterm, then w to the powers of a few small
    exponents and of `below` (when given), each once, in decreasing order."""
    exps = {text(e): e for e in map(from_int, draw(st.sets(st.integers(0, 3), max_size=3)))}
    if draw(st.booleans()):
        exps["w"] = OMEGA
    if below is not None:
        exps[text(below)] = below
    exps = sorted(exps.values(), key=_descending)
    coeffs = draw(st.lists(st.integers(1, 3), min_size=len(exps), max_size=len(exps)))
    return Ordinal(eterm, tuple(zip(exps, coeffs)))


@st.composite
def notations(draw):
    """Notations with E terms, nested up to MAX_NESTING exponents deep: at
    each level the exponent of one term is the level below."""
    depth = draw(st.integers(0, 3) | st.integers(0, MAX_NESTING))
    value = None
    for _ in range(depth):
        value = _sum(draw, 0, value)
    return _sum(draw, draw(st.integers(0, 2)), value)


@given(notations(), notations())
@settings(max_examples=300, deadline=None)
def test_keys_order_notations_as_the_reference_does(a, b):
    want = ref_compare(a, b)
    for x, y, c in ((a, b, want), (b, a, Cmp(-want.value)), (a, Ordinal(a.eterm, a.wterms), Cmp.EQ)):
        assert ref_compare(x, y) is c
        assert compare(x, y) is c
        assert lt(x, y) == (c is Cmp.LT) and le(x, y) == (c is not Cmp.GT)
        assert (x == y) == (c is Cmp.EQ)


@given(notations())
@settings(max_examples=200, deadline=None)
def test_an_ordinal_keeps_the_dataclass_hash(o):
    assert hash(o) == hash((o.eterm, o.wterms))
    assert hash(Ordinal(o.eterm, o.wterms)) == hash(o)


@given(notations(), st.data())
@settings(max_examples=200, deadline=None)
def test_exponents_that_do_not_decrease_are_refused(o, data):
    assume(len(o.wterms) >= 2)
    i = data.draw(st.integers(0, len(o.wterms) - 2))
    terms = list(o.wterms)
    swapped = terms[:i] + [terms[i + 1], terms[i]] + terms[i + 2:]
    repeated = terms[:i + 1] + [(terms[i][0], 1)] + terms[i + 1:]
    for bad in (swapped, repeated):
        with pytest.raises(NotationError, match="exponents must strictly decrease"):
            Ordinal(o.eterm, tuple(bad))


# --- text grammar


def test_round_trip_identity():
    rng = random.Random(16)
    for _ in range(300):
        o = random_ordinal(rng, depth=3)
        assert parse(text(o)) == o


def test_examples_print_as_expected():
    assert text(P("w^2*3+w+5")) == "w^2*3+w+5"
    assert text(P("E+1")) == "E+1"
    assert text(P("w^(w+1)*2")) == "w^(w+1)*2"
    assert text(ZERO) == "0"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "w*1",
        "w^1",
        "w^0",
        "1+1",
        "w+w",
        "w+w^2",
        "05",
        "w^(2)",
        "w^(w)",
        "E+E",
        "w+E",
        "0+1",
        "w*0",
        "w^(E)",
        "w+",
        "(w)",
        "٣",
        "²",
        "w^٢",
    ],
)
def test_strict_parser_rejects_noncanonical(bad):
    with pytest.raises(NotationError):
        parse(bad)


def test_terms_out_of_order_name_the_notation():
    for bad, reason in (("w+w", "exponents must strictly decrease"), ("w^(1+w)", "exponents must strictly decrease"),
                        ("w^(E)", "E may not appear in an exponent")):
        with pytest.raises(NotationError) as e:
            parse(bad)
        assert str(e.value) == f"{reason} in {bad!r}"


# the strings of each length over the grammar's characters that parse
# accepts: how many, and the sha256 of their sorted list, one per line
ACCEPTED = {
    1: (12, "d864e85eb3c7a68a4f54701ba37a779ef85488c560791402edddc2bcd7368245"),
    2: (90, "63b5837099ddede7b94adcd0762b7896d060aed5dd3ebf46cba218a1fe6dbf9d"),
    3: (944, "bacc896fb6e32111f046aeea244bfe349dc3c42f416b40047c6e7f7fa5498530"),
    4: (9450, "88e4be32b3fe464beb5de213982a157e6968fc442cf7a6d5b5d720834a1ab271"),
}


@pytest.mark.parametrize("length", ACCEPTED)
def test_accepted_strings_by_length(length):
    accepted = []
    for chars in itertools.product("0123456789wE^*+()", repeat=length):
        s = "".join(chars)
        try:
            parse(s)
        except NotationError:
            continue
        accepted.append(s)
    count, digest = ACCEPTED[length]
    assert len(accepted) == count
    assert hashlib.sha256("\n".join(sorted(accepted)).encode()).hexdigest() == digest


def test_a_long_sum_reads_in_one_pass(monkeypatch):
    # a count of work, not of seconds: a sum of n terms builds each
    # exponent once and the sum once, so the notations built hold O(n)
    # terms between them; building the sum term by term would hold O(n^2)
    built, held = 0, 0
    init = Ordinal.__init__

    def counted(self, eterm, wterms):
        nonlocal built, held
        built += 1
        held += len(wterms)
        init(self, eterm, wterms)

    monkeypatch.setattr(Ordinal, "__init__", counted)
    for n in (1000, 4000):
        s = "+".join([f"w^{k}" for k in range(n - 1, 1, -1)] + ["w", "1"])
        built, held = 0, 0
        value = parse.__wrapped__(s)  # past the cache, which may hold it
        assert len(value.wterms) == n
        assert built <= 2 * n and held <= 3 * n


def test_notations_nest_up_to_the_bound():
    def tower(n):
        return "w^(" * n + "w+1" + ")" * n

    assert text(parse(tower(MAX_NESTING))) == tower(MAX_NESTING)
    with pytest.raises(NotationError, match="nest"):
        parse(tower(MAX_NESTING + 1))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_finite_ordinals_round_trip(n):
    assert parse(str(n)) == from_int(n)
    assert from_int(n).nat_value() == n


def grammar_parse(s: str) -> Ordinal:
    """`parse` by the grammar alone: what it did before numerals had a fast path."""
    tokens = ordinals._TOKEN.findall(s) + [""]
    value, i = ordinals._read_sum(tokens, 0, 0)
    if tokens[i]:
        raise ordinals._unexpected(tokens, i)
    if text(value) != s:
        raise NotationError(f"{s!r} is not canonical: it is written {text(value)!r}")
    return value


def outcome(read, s: str):
    """What `read` makes of s: its value, or the message it refuses it with."""
    try:
        return read(s)
    except NotationError as e:
        return str(e)


NEAR_NUMERALS = st.one_of(
    st.integers(min_value=0).map(str),
    st.text("0123456789", max_size=12),
    st.text("0123456789+-_ \nw٣²", max_size=6),
)


@given(NEAR_NUMERALS)
@example("1" * 4300)  # the most digits int() reads
@example("7" * 4301)
@example("0" + "7" * 5000)
@settings(max_examples=400, deadline=None)
def test_numerals_read_as_the_grammar_reads_them(s):
    assert outcome(parse.__wrapped__, s) == outcome(grammar_parse, s)


def test_pow2_successor_identity_random_vectors():
    rng = random.Random(17)
    for _ in range(100):
        v = random_vec_below_w3(rng)
        a = P(oracle.terms_text(oracle.vec_terms(*v)))
        assert pow2(succ(a)) == mul(pow2(a), from_int(2))

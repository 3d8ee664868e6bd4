import dataclasses
import inspect
import random

import pytest

from proofbench import boundedness, derivations, formulas, gens, lab, orderings, ordinals, regress, sexpr, spector
from proofbench.boundedness import bounded_truth, otyp_bound
from proofbench.derivations import CODES, code_text, derive_ti, expand, parse_code
from proofbench.formulas import (
    SEQUENTS,
    Conj,
    Disj,
    FormulaError,
    Eq,
    Member,
    Num,
    Var,
    formula_text,
    parse_formula,
    parse_sequent,
    sequent_text,
)
from proofbench.lab import Claim, Evidence, TheoryStore, build_precT, chain_check, reflect_check
from proofbench.orderings import BelowOrd, FinOrd, RevOrd, parse_spec, spec_text
from proofbench.ordinals import MAX_NESTING, from_int
from proofbench.sexpr import SexprError, Str, parse, parse_many, quote
from proofbench.spector import CertifiedEntry, DominationReport, WitnessReport, verify_domination, witness

# each malformed input with the error it raises
ERRORS = [
    ("(a (b)", "1:6: unbalanced '('"),
    ("(a))", "1:4: unbalanced ')'"),
    ('("unterminated)', "1:2: unterminated string"),
    ("(a) (b)", "1:1: expected one expression, found 2"),
    ('(x "a\\', "1:6: dangling escape"),
    ('(x "a\nb")', "1:6: newline in string"),
    ("; c\n  (a\n\t(b", "3:3: unbalanced '('"),
    ("\n\n  )", "3:3: unbalanced ')'"),
    ("", "1:1: expected one expression, found 0"),
    ('(a "q\\"r" )) ', "1:12: unbalanced ')'"),
    # an escaped newline inside a string is a line break like any other
    ('(a "\\\nb" ))', "2:5: unbalanced ')'"),
    ('(a "b" ; "\n "c', "2:2: unterminated string"),
]


def test_basic_forms():
    assert parse("(a 1 -2 (b))") == ["a", 1, -2, ["b"]]
    assert parse('"hi there"') == Str("hi there")
    assert parse('(x "a\\"b")') == ["x", Str('a"b')]
    assert parse("; comment\n(a)\n") == ["a"]
    assert parse_many("(a) (b)") == [["a"], ["b"]]


def test_atoms_escapes_and_comments():
    # a numeral has one spelling, the one the writer gives it
    assert parse("(7 -7 0 x1 + - -x 1x)") == [7, -7, 0, "x1", "+", "-", "-x", "1x"]
    for atom in ("+7", "-0", "1_0", "\x0c5", "٣", "07"):
        with pytest.raises(SexprError) as e:
            parse(f"(a\n b {atom})")
        assert str(e.value) == f"2:4: not a canonical numeral: {atom!r}"
    assert parse('("" "\\\\" "a\\nb" "\\\nc" "a;b")') == [Str(""), Str("\\"), Str("anb"), Str("\nc"), Str("a;b")]
    assert parse("(a;(b\n c ; d)\n)") == ["a", "c"]
    assert parse('(a"b"c)') == ["a", Str("b"), "c"]
    assert parse_many("; only a comment") == []


def test_a_numeral_too_long_to_read_is_an_error():
    # int() reads at most 4,300 digits; a longer numeral is no symbol
    for atom in ("7" * 5000, "-" + "7" * 5000):
        with pytest.raises(SexprError) as e:
            parse(f"(a\n b {atom})")
        assert str(e.value) == "2:4: a 5000-digit numeral is too long to read"
    assert parse(f"(a {'7' * 4300})") == ["a", int("7" * 4300)]


def test_errors_carry_positions():
    for text, message in ERRORS:
        with pytest.raises(SexprError) as e:
            parse(text)
        assert str(e.value) == message, text
        assert f"{e.value.line}:{e.value.col}: " == message[: message.index(" ") + 1]


def test_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        for gen, text, read in ((gens.random_code, code_text, parse_code),
                                (gens.random_sequent, sequent_text, parse_sequent),
                                (gens.random_spec, spec_text, parse_spec)):
            value = gen(rng)
            written = text(value)
            assert read(written) == value
            assert text(read(written)) == written
    for s in ("", "a b", 'a"b', "a\\b", '\\"', "(;)"):
        assert parse(quote(s)) == Str(s)


def test_writer_rejects_non_symbols():
    for bad in ("X Y", "", "a(b", 'a"b', "a;b"):
        with pytest.raises(TypeError):
            formula_text(Member(Num(1), bad))
        with pytest.raises(TypeError):
            formula_text(Eq(Var(bad), Num(1)))
    assert formula_text(parse_formula("(in x X)")) == "(in x X)"


def test_deep_code_writes_back():
    # written without recursion, at the default recursion limit; compare the
    # texts, as == on a 3,000-level code recurses
    text = rep_tower(3000)
    assert code_text(parse_code(text)) == text


def distinct_lists(x) -> int:
    """How many list objects, by identity, x holds, itself included."""
    seen, todo = set(), [x]
    while todo:
        y = todo.pop()
        if type(y) is list and id(y) not in seen:
            seen.add(id(y))
            todo.extend(y)
    return len(seen)


def test_parse_shares_equal_lists():
    # written out, Fin(9) is 566 KB of text and 67,976 lists, but only a few
    # hundred of them differ
    text = code_text(expand(derive_ti(FinOrd(9))))
    assert len(text) > 500_000
    assert distinct_lists(parse(text)) <= 500
    x = parse('(a (b "s" 1) (b "s" 1) ((b "s" 1)) (b "s" 2))')
    assert x[1] is x[2] is x[3][0] and x[4] is not x[1]
    assert x == ["a", ["b", Str("s"), 1], ["b", Str("s"), 1], [["b", Str("s"), 1]], ["b", Str("s"), 2]]


def test_read_leaves_the_parsed_lists_as_they_are():
    text = code_text(expand(derive_ti(FinOrd(5))))
    x = parse(text)
    before = repr(x)
    first, second = sexpr.read(CODES, x), sexpr.read(CODES, x)
    assert first == second == parse_code(text)
    assert repr(x) == before


def test_a_shared_list_read_at_two_depths_gives_equal_terms():
    # parsed, the two copies of (and ...) are one list; read at depths 1 and
    # 2 of the sequent, they give two terms that are equal
    x = parse("(seq (and (= 1 1) (= 2 2)) (or (= 3 3) (and (= 1 1) (= 2 2))))")
    assert x[1] is x[2][2]
    before = repr(x)
    seq = sexpr.read(SEQUENTS, x)
    outer = next(f for f in seq if type(f) is Conj)
    inner = next(f for f in seq if type(f) is Disj).right
    assert outer == inner and hash(outer) == hash(inner)
    assert repr(x) == before


def test_a_shared_list_is_bounded_at_each_depth_it_is_read():
    # the same formula, once at the nesting bound and once one level past it;
    # parsed, the two are one list, read at two depths
    inner = "(and (= 1 1) " * (MAX_NESTING - 2) + "(= 1 1)" + ")" * (MAX_NESTING - 2)
    deeper = f"(and (= 1 1) {inner})"
    x = parse(f"(seq {deeper} {inner})")
    assert x[1][2] is x[2]
    hash(parse_sequent(f"(seq {inner})"))
    for text in (f"(seq {deeper} {inner})", f"(seq {inner} {deeper})", f"(seq {deeper})"):
        with pytest.raises(FormulaError) as e:
            parse_sequent(text)
        assert str(e.value) == f"a formula nests deeper than {MAX_NESTING} levels"


# a list of more than 32 characters over three lines, two near-copies of it,
# and a list holding a comment and escaped strings
LONG = '(all (seq (= 1 1)\n  (in 2 X)) "w+1"\n (axm (seq (= 1 1)) "0"))'
NEAR_NUMERAL = LONG.replace('"0"', '+3 "0"')
NEAR_PAREN = LONG.replace("(in 2 X))", "(in 2 X)))")
QUOTED = '(all (seq (= 1 1)) ; a comment ( with ) "parens\n "a\\"b)" (x "(;" \\\n))'

# each fault after a copy of a list, or inside a near-copy, with the error it
# raises (the same as a scan of every token gives)
REPEAT_ERRORS = [
    (f"(a {LONG}\n {LONG} +3)", "6:27: not a canonical numeral: '+3'"),
    (f"(a {LONG}\n {NEAR_NUMERAL})", "6:21: not a canonical numeral: '+3'"),
    (f'(a {LONG}\n {LONG} "abc', "6:27: unterminated string"),
    (f"(a {LONG}\n {LONG[:-4]}", "6:21: unterminated string"),
    (f"(a {LONG}\n {LONG}))", "6:27: unbalanced ')'"),
    (f"(a {LONG}\n {NEAR_PAREN})", "6:26: unbalanced ')'"),
    (f"(a {LONG}\n {LONG}", "6:25: unbalanced '('"),
    (f"(a {QUOTED}\n {QUOTED} +3)", "6:4: not a canonical numeral: '+3'"),
    (f'(a {QUOTED}\n {QUOTED} "x\\', "6:6: dangling escape"),
]


class CountingPattern:
    """Stands in for the scanner's token pattern and counts the tokens matched."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.tokens = 0

    def finditer(self, text, pos=0):
        for m in self.pattern.finditer(text, pos):
            self.tokens += 1
            yield m


class CountingText(str):
    """A text that counts the characters compared by its `startswith`."""

    compared = 0

    def startswith(self, prefix, *bounds):
        self.compared += len(prefix)
        return str.startswith(self, prefix, *bounds)


def scan_work(monkeypatch, text: str) -> tuple[int, int]:
    """Tokens scanned and characters compared while `text` is parsed."""
    pattern = CountingPattern(sexpr._TOKEN)
    text = CountingText(text)
    with monkeypatch.context() as patch:
        patch.setattr(sexpr, "_TOKEN", pattern)
        parse_many(text)
    return pattern.tokens, text.compared


def test_faults_near_repeated_text_keep_their_positions(monkeypatch):
    for text, message in REPEAT_ERRORS:
        with pytest.raises(SexprError) as e:
            parse(text)
        assert str(e.value) == message, text
    for copied in (LONG, QUOTED):
        text = f"(a {copied}\n {copied})"
        x = parse(text)
        assert x[1] is x[2] and x[1] == parse(copied)
        # the copy's text is jumped over, not scanned
        tokens, _ = scan_work(monkeypatch, text)
        assert tokens < len([m for m in sexpr._TOKEN.finditer(text) if m.lastindex])
    assert parse(QUOTED) == ["all", ["seq", ["=", 1, 1]], Str('a"b)'), ["x", Str("(;"), "\\"]]


def chains(levels: int) -> str:
    """Two chains of `levels` lists that differ only at the bottom."""
    return f"(a {'(x ' * levels}y{')' * levels} {'(x ' * levels}z{')' * levels})"


def staircase(height: int) -> str:
    """Chains of every depth from 1 to `height`, each holding the one before."""
    return "(s " + " ".join("(x " * k + "y" + ")" * k for k in range(1, height + 1)) + ")"


def rep_tower(levels: int, tag: str = "0") -> str:
    """`levels` repetitions over an axiom tagged `tag`; tags count down to it."""
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    return head + f'(axm (seq (= 1 1)) "{tag}")' + ")" * levels


@pytest.mark.parametrize(
    "make, n",
    [
        (chains, 20_000),
        # 566 is 400 times the square root of 2: the text doubles
        (staircase, (400, 566)),
        (lambda n: "(" * n + ")" * n, 100_000),
        (rep_tower, 3_000),
        # near-copies whose every level has its own head: each level's lookup
        # finds the other tower's list, whose text agrees down to the bottom
        (lambda n: f"(a {rep_tower(n)} {rep_tower(n, '1')})", 3_000),
    ],
    ids=["chains", "staircase", "parentheses", "rep-tower", "rep-towers"],
)
def test_scanning_work_is_linear_in_the_text(monkeypatch, make, n):
    # counted, not timed: tokens scanned plus characters compared while
    # looking for repeated text
    small, large = (make(k) for k in (n if type(n) is tuple else (n, 2 * n)))
    assert 1.95 * len(small) <= len(large) <= 2.05 * len(small)
    works = [sum(scan_work(monkeypatch, text)) for text in (small, large)]
    assert works[1] <= 2.2 * works[0]
    assert all(work <= 4 * len(text) for work, text in zip(works, (small, large)))


# --- the term contract


SORTS = [value for module in (formulas, orderings, derivations)
         for value in vars(module).values() if isinstance(value, sexpr.Sort)]

# texts that between them hold a term of every class of every sort
CONTRACT_TEXTS = [
    (CODES, code_text(expand(derive_ti(FinOrd(3))))),
    (CODES, '(tiroot (sum (fin 2) (lex (below "w") (rev (table (0 1) (1 2))))))'),
    (CODES, '(tiprog (below "w^2") 119)'),
    (CODES, '(all (seq) "w" (tikids (fin 2)))'),
    (CODES, '(all (seq) "w*2" (predkids (fin 3) 2))'),
    (CODES, '(cut (seq) "2" (rep (seq) "1" (axm (seq) "0")) (axl (seq) "0"))'),
    (CODES, '(mono (inv (axm (seq (and (= 1 1) (= 2 2))) "0") (and (= 1 1) (= 2 2)) 1) (seq) "1")'),
    (SEQUENTS, '(seq (!= (+ x 1) (* 2 y)) (in 3 Y) (nin x X) (lt (fin 2) 0 1) (nlt (fin 2) 0 1)'
               ' (fld (fin 2) 0) (nfld (fin 2) 1) (seg (fin 2) 0 "w") (nseg (fin 2) 0 "1")'
               ' (or (forall x (= x x)) (exists y (= y 0))))'),
]


def contract_samples() -> dict[type, list]:
    """Class -> the terms of that class met in CONTRACT_TEXTS, walked
    through each sort's roles."""
    samples: dict[type, list] = {}
    todo = [(sexpr.read(sort, parse(text)), sort) for sort, text in CONTRACT_TEXTS]
    while todo:
        value, sort = todo.pop()
        _, roles, get = sort.shapes[type(value)]
        samples.setdefault(type(value), []).append(value)
        for role, field in zip(roles, get(value)):
            if role.sort is None:
                continue
            if role.many is None:
                todo.append((field, role.sort))
            elif role.many is sexpr.ENTRIES:
                todo.extend((node, role.sort) for _, node in field)
            else:
                todo.extend((item, role.sort) for item in field)
    return samples


def record_samples() -> dict[type, list]:
    """Class -> values of each value class outside the sorts: the records
    that the verbs return, made by the functions that return them."""
    w, w2 = ordinals.parse("w"), ordinals.parse("w^2")
    entries = [CertifiedEntry(i, FinOrd(k), derive_ti(FinOrd(k))) for i, k in enumerate((2, 3))]
    report = witness(entries)
    domination = verify_domination(entries, report, sample=4)
    claim = bounded_truth(derive_ti(FinOrd(3)), FinOrd(3))
    certificate = otyp_bound(FinOrd(3), derive_ti(FinOrd(3)))
    checked = Claim(BelowOrd(w), Evidence.CHECKED, derive_ti(BelowOrd(w)))
    store = TheoryStore("t", (checked, Claim(RevOrd(BelowOrd(w)), Evidence.ASSERTED)))
    prec = build_precT(store, BelowOrd(w2))
    fin = Claim(FinOrd(2), Evidence.CHECKED, derive_ti(FinOrd(2)))
    chain = chain_check([TheoryStore("s", (checked,)), TheoryStore("u", (fin,))], BelowOrd(w2))
    failed = derivations.check_local(parse_code('(axm (seq (= 1 2)) "0")'), 8, 8)
    return {
        Str: [Str("a"), Str("b")],
        derivations.CheckReport: [derivations.check_local(entries[0].certificate, 8, 8), failed],
        CertifiedEntry: entries,
        WitnessReport: [report],
        DominationReport: [domination],
        spector.DominationRow: list(domination.rows),
        spector.SpotCheck: list(domination.spot_checks),
        boundedness.SemanticClaim: [claim],
        boundedness.BoundCertificate: [certificate],
        boundedness.RankCheck: [*claim.rank_checks, *certificate.checks],
        Claim: list(store.claims),
        TheoryStore: [store],
        lab.PrecT: [prec],
        lab.CulpritReport: [reflect_check(prec, 5)],
        lab.ChainReport: [chain],
        lab.ChainEntry: list(chain.entries),
        regress.CriterionResult: [regress.CriterionResult(1, "one", True, 0.5, 2.0, "fine"),
                                  regress.CriterionResult(2, "two", False, 3.0, 2.0, "slow")],
    }


def test_every_term_class_keeps_the_frozen_dataclass_contract():
    samples = contract_samples() | record_samples()
    # a sequent is a plain frozenset; every other class is a term, and an
    # ordinal is the one other frozen value class
    classes = {value for module in (sexpr, formulas, orderings, derivations, boundedness, spector, lab, regress)
               for value in vars(module).values()
               if isinstance(value, type) and value.__setattr__ is ordinals.frozen} - {ordinals.Ordinal}
    assert {cls for sort in SORTS for cls in sort.shapes} - {frozenset} <= classes
    assert set(samples) - {frozenset} == classes
    for cls in classes:
        names = cls.__match_args__
        defaults = {name: p.default for name, p in inspect.signature(cls).parameters.items()
                    if p.default is not p.empty}
        # what dataclasses makes of the same fields, for the repr and hash
        reference = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
        assert samples[cls]
        for t in samples[cls]:
            values = tuple(getattr(t, name) for name in names)
            by_name = dict(zip(names, values))
            assert cls(*values) == t == cls(**by_name)
            assert hash(cls(*values)) == hash(cls(**by_name)) == hash(t) == hash(values) == hash(reference(*values))
            assert repr(t) == repr(reference(*values))
            assert not hasattr(t, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, names[0], values[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, names[0])
            assert sexpr.replace(t) == t
            with pytest.raises(TypeError):
                sexpr.replace(t, no_such_field=0)
            other = samples[cls][-1]
            last = names[-1]
            changed = sexpr.replace(t, **{last: getattr(other, last)})
            assert changed == cls(*values[:-1], getattr(other, last))
            assert hash(changed) == hash((*values[:-1], getattr(other, last)))
            required = [v for name, v in zip(names, values) if name not in defaults]
            for name, default in defaults.items():
                assert getattr(cls(*required), name) == default
    assert formulas.Member(Num(1)).var == "X" == formulas.NotMember(Num(1)).var
    # equal field tuples and hashes, but two classes
    t = Num(5)
    assert len({Member(t), formulas.NotMember(t)}) == 2
    assert repr(Member(t)) == "Member(term=Num(value=5), var='X')"
    assert sexpr.describe(Str("a b")) == "Str(value='a b')"
    one = ordinals.ONE
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.eterm = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del one.wterms
    assert one == ordinals.from_int(1) and not hasattr(one, "__dict__")


# --- the writer, byte for byte against the one it replaced


def ref_write(sort, value) -> str:
    """The writer that `sexpr.write` replaced: every distinct subterm's text
    is joined from its parts and kept, written off an explicit stack."""
    memo = {}
    out = [None]
    todo = [(value, sort, out, 0)]
    while todo:
        value, sort, dest, slot = todo.pop()
        if sort is None:  # a build step: value holds a list's parts and the memo key it writes
            parts, key = value
            dest[slot] = text = "(" + " ".join(parts) + ")"
            if key is not None:
                memo[key] = text
            continue
        if sort is sexpr.REST:  # value holds the texts of a REST field, dest its list's parts
            dest.extend(sorted(value))
            continue
        shape = sort.shapes.get(type(value))
        if shape is None:
            raise sort.error(f"not {sort.name}: a {type(value).__name__}")
        head, roles, get = shape
        if type(head) is type:
            dest[slot] = roles[0].encode(*get(value))
            continue
        key = (value, sort)
        done = memo.get(key)
        if done is not None:
            dest[slot] = done
            continue
        parts = [head]
        todo.append(((parts, key), None, dest, slot))
        for i, (role, field) in enumerate(zip(roles, get(value)), 1):
            if role.many is None:
                if role.sort is None:
                    parts.append(role.encode(field))
                else:
                    parts.append(None)
                    todo.append((field, role.sort, parts, i))
            elif role.many is sexpr.ENTRIES:
                entries = [None] * len(field)
                parts.append(None)
                todo.append(((entries, None), None, parts, i))
                for j, (index, node) in enumerate(field):
                    pair = [int.__repr__(index), None]
                    todo.append(((pair, None), None, entries, j))
                    todo.append((node, role.sort, pair, 1))
            elif role.sort is None:
                parts.extend(map(role.encode, sorted(field)))
            else:
                texts = [None] * len(field)
                todo.append((texts, sexpr.REST, parts, None))
                for j, item in enumerate(field):
                    todo.append((item, role.sort, texts, j))
    return out[0]


def assert_writes_as_before(sort, value):
    assert sexpr.write(sort, value) == ref_write(sort, value)


def test_write_matches_the_reference_on_a_term_of_every_class_and_sort():
    for cls, terms in contract_samples().items():
        for sort in SORTS:
            if cls in sort.shapes:
                for t in terms:
                    assert_writes_as_before(sort, t)
    rng = random.Random(11)
    for _ in range(200):
        assert_writes_as_before(CODES, gens.random_code(rng))
        assert_writes_as_before(SEQUENTS, gens.random_sequent(rng))
        assert_writes_as_before(orderings.SPECS, gens.random_spec(rng))
    for k in range(1, 8):
        assert_writes_as_before(CODES, derive_ti(FinOrd(k)))
        assert_writes_as_before(CODES, expand(derive_ti(FinOrd(k))))


def random_dag(rng: random.Random, size: int = 40):
    """A code built bottom-up from pools of earlier terms, so that codes,
    sequents and formulas repeat: as premises, as ENTRIES under a
    finite-support family, and as REST members of several sequents, some of
    them equal but distinct objects."""
    formulas_ = [gens.random_formula(rng, 2) for _ in range(6)]
    for _ in range(size):
        f, g = rng.choice(formulas_), rng.choice(formulas_)
        formulas_.append(rng.choice([Conj(f, g), Disj(f, f), parse_formula(formula_text(f))]))

    def sequent():
        return frozenset(rng.sample(formulas_, rng.randrange(0, 5)))

    codes = [gens.random_code(rng, 1) for _ in range(4)]
    for _ in range(size):
        c, d = rng.choice(codes), rng.choice(codes)
        tag = gens.random_efree(rng, 1)
        kind = rng.randrange(5)
        if kind == 0:
            codes.append(derivations.AndNode(sequent(), tag, c, c if rng.random() < 0.5 else d))
        elif kind == 1:
            entries = tuple((i, rng.choice(codes)) for i in range(rng.randrange(0, 4)))
            family = derivations.FiniteSupport(entries, derivations.TiVac(FinOrd(2)))
            codes.append(derivations.AllNode(sequent(), tag, family))
        elif kind == 2:
            codes.append(derivations.Mono(c, sequent(), tag))
        elif kind == 3:
            codes.append(derivations.CutNode(sequent(), tag, c, parse_code(code_text(d))))
        else:
            codes.append(derivations.AxMNode(sequent(), tag))
    return codes[-1], frozenset(formulas_[-8:])


def test_write_matches_the_reference_on_shared_subterms():
    rng = random.Random(5)
    for _ in range(100):
        code, seq = random_dag(rng)
        assert_writes_as_before(CODES, code)
        assert_writes_as_before(SEQUENTS, seq)
    # one formula as a REST member, inside other members, and as an equal copy
    f = parse_formula("(forall x (or (nin (+ x 1) X) (exists y (= y (* x 2)))))")
    seq = frozenset({f, Conj(f, f), Disj(parse_formula(formula_text(f)), Eq(Num(1), Num(1)))})
    leaf = derivations.AxMNode(seq, from_int(0))
    entries = ((0, leaf), (1, leaf), (2, derivations.RepNode(seq, from_int(1), leaf)))
    fam = derivations.FiniteSupport(entries, derivations.TiVac(FinOrd(3)))
    node = derivations.AllNode(seq, from_int(2), fam)
    assert_writes_as_before(CODES, derivations.AndNode(seq, from_int(3), node, node))
    empty = derivations.AllNode(frozenset(), from_int(1), derivations.FiniteSupport((), derivations.TiVac(FinOrd(1))))
    assert code_text(empty) == ref_write(CODES, empty) == '(all (seq) "1" (fs () (tivac (fin 1))))'


def test_writing_fin10_holds_at_most_three_times_its_text(peak_bytes):
    # each distinct subterm's text was kept: 10.5 times the 1.16 MB written
    code = expand(derive_ti(FinOrd(10)))
    size = len(code_text(code))
    assert size == 1_156_569
    assert peak_bytes(lambda: code_text(code)) <= 3 * size

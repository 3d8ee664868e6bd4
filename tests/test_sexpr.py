import random

import pytest

from proofbench import gens
from proofbench.derivations import code_text, parse_code
from proofbench.formulas import Eq, Member, Num, Var, formula_text, parse_formula, parse_sequent, sequent_text
from proofbench.orderings import parse_spec, spec_text
from proofbench.sexpr import SexprError, Str, parse, parse_many, quote

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
    levels = 3000
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    text = head + '(axm (seq (= 1 1)) "0")' + ")" * levels
    assert code_text(parse_code(text)) == text

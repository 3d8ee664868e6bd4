"""The CLI exit contract under malformed and deeply nested input.

0 = pass, 1 = a verdict failed (and a fail record says so), 2 = bad input,
3 = precondition violated; never a traceback.  Certificates decode at any
nesting depth; ordinal notations, and the formulas, terms and ordering specs
in a certificate, nest at most `ordinals.MAX_NESTING` deep.
"""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import boundedness, derivations
from proofbench.boundedness import bounded_truth
from proofbench.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, main
from proofbench.derivations import (NOT_A_WELL_ORDER, AndNode, AxLNode, AxMNode, ExNode, Inv, RepNode, TiProg,
                                    check_local, code_text, derive_ti, expand, parse_code)
from proofbench.formulas import (Conj, Eq, Exists, FormulaError, Member, NotMember, Num, Times, Var, instance,
                                 negated_prog, parse_formula, parse_sequent, seq, sequent_text, ti_sequent)
from proofbench.orderings import FinOrd, SpecError, parse_spec
from proofbench.ordinals import MAX_NESTING, NotationError, add, from_int, parse

BASE = code_text(expand(derive_ti(FinOrd(2))))
HEAD = re.compile(r"\((?=[^\s()])")
HEADS = ["axm", "axl", "and", "or", "ex", "cut", "rep", "all", "tiprog", "tiroot", "mono",
         "inv", "tikids", "predkids", "fs", "tivac", "predvac", "seq", "=", "!=", "in", "nin",
         "lt", "nlt", "fld", "nfld", "seg", "nseg", "forall", "exists", "fin", "below", "sum",
         "lex", "rev", "table", "foo"]


# where the fuzz nests a formula, a term or an ordering spec, and how
WRAPS = {
    "formula": (r"\((?:in|nin) \w+ X\)", "(and (= 1 1) "),
    "term": (r"(?<=in )\w+(?= X\))", "(+ 0 "),
    "spec": (r"\(fin 2\)", "(rev "),
}


def nest(opener: str, inner: str, levels: int) -> str:
    return opener * levels + inner + ")" * levels


def rep_tower(levels: int) -> str:
    """`levels` repetitions over a (= 1 1) axiom; tags count down to its 0."""
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    return head + '(axm (seq (= 1 1)) "0")' + ")" * levels


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refused an argument
            code = e.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        records = [json.loads(line) for line in out.splitlines()]
        assert any(r.get("passed") is False for r in records)


@st.composite
def mutants(draw):
    text = BASE
    for kind in draw(st.lists(st.sampled_from(["truncate", "head", "paren", "wrap"]), min_size=1,
                              max_size=3)):
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "head":
            starts = [m.end() for m in HEAD.finditer(text)]
            if starts:
                at = draw(st.sampled_from(starts))
                end = at + len(re.match(r"[^\s()]+", text[at:]).group())
                text = text[:at] + draw(st.sampled_from(HEADS)) + text[end:]
        elif kind == "paren":
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:at] + draw(st.sampled_from("()")) + text[at:]
            else:
                text = text[:at] + text[at + 1:]
        else:
            levels = draw(st.integers(1, 3000))
            what = draw(st.sampled_from(["rep", "mono", *WRAPS]))
            if what == "rep":
                text = "".join(f'(rep (seq) "{i}" ' for i in range(levels)) + text + ")" * levels
            elif what == "mono":
                text = "(mono " * levels + text + ' (seq (= 1 1)) "0")' * levels
            else:
                pattern, opener = WRAPS[what]
                spots = [m.span() for m in re.finditer(pattern, text)]
                if spots:
                    a, b = draw(st.sampled_from(spots))
                    text = text[:a] + nest(opener, text[a:b], levels) + text[b:]
    return text


@settings(max_examples=40, deadline=None)
@given(text=mutants())
def test_check_exit_contract_on_mutated_certificates(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutant") / "cert.sx"
    path.write_text(text)
    assert_contract(*run(["check", str(path), "--json"]))


def test_deep_rep_tower_passes(tmp_path):
    path = tmp_path / "rep.sx"
    path.write_text(rep_tower(3000))
    code, out, err = run(["check", str(path), "--depth", "4000", "--json"])
    assert code == EXIT_OK, err
    record = json.loads(out.splitlines()[0])
    assert record["passed"] and record["nodes_visited"] == 3001


def test_deep_rep_tower_bound_truth(tmp_path):
    # rep levels over (tiroot (fin 1)), whose tag is w+1, all with its TI sequent
    seq = sequent_text(ti_sequent(FinOrd(1)))

    def tower(levels):
        head = "".join(f'(rep {seq} "w+{i}" ' for i in range(levels + 1, 1, -1))
        return head + "(tiroot (fin 1))" + ")" * levels

    path = tmp_path / "t.sx"
    path.write_text(tower(3000))
    code, out, err = run(["bound", "--ordering", "(fin 1)", "--cert", str(path), "--truth", "--depth", "4000",
                          "--json"])
    assert code == EXIT_OK, err
    record = json.loads(out.splitlines()[0])
    assert record["alpha"] == "w+3001" and record["verdict"] == "true"
    # every level is walked and counted
    deep = bounded_truth(parse_code(tower(3000)), FinOrd(1), depth_budget=4000)
    bare = bounded_truth(parse_code(tower(0)), FinOrd(1))
    assert deep.nodes_visited == bare.nodes_visited + 3000


def ex_chain(levels: int, claim: int = 0):
    """`levels` side-formula Ex steps at witness 0 over an axiom with the true
    instance 0*0 = 0 of E = exists z z*0 = 0, each level keeping
    {not-Prog((fin 1)), exists z z*0 = claim}: locally correct when claim is 0."""
    negp = negated_prog(FinOrd(1))
    e = Exists("z", Eq(Times(Var("z"), Num(0)), Num(0)))
    code = AxMNode(seq(negp, e, instance(e, 0)), from_int(0))
    claimed = Exists("z", Eq(Times(Var("z"), Num(0)), Num(claim)))
    for i in range(1, levels + 1):
        code = ExNode(seq(negp, claimed), from_int(i), 0, code)
    return code


def and_tower(levels: int):
    """`levels` And steps on (0 = 0) and (0 = 0), each with the last level on
    the left and one axiom on the right: 2 * levels + 1 nodes."""
    negp = negated_prog(FinOrd(1))
    eq = Eq(Num(0), Num(0))
    leaf = code = AxMNode(seq(negp, eq), from_int(0))
    for i in range(1, levels + 1):
        code = AndNode(seq(negp, eq, Conj(eq, eq)), from_int(i), code, leaf)
    return code


@pytest.mark.parametrize("build", [ex_chain, and_tower])
def test_deep_certificates_bound_truth_without_recursion(tmp_path, build):
    path = tmp_path / "deep.sx"
    path.write_text(code_text(build(1200)))
    code, out, err = run(["check", str(path), "--cut-free", "--depth", "4000"])
    assert code == EXIT_OK and out.startswith("pass"), err
    for depth in (["--depth", "4000"], []):
        code, out, err = run(["bound", "--ordering", "(fin 1)", "--cert", str(path), "--truth", *depth])
        assert code == EXIT_OK, err
        assert "claim verdict: true" in out


# certificates that claim the false 0 = 1, faulty at one node deeper than
# the default depth, over the axiom {not-Prog((fin 1)), 1 = 1}
FALSE, WRONG_LEAF = Eq(Num(0), Num(1)), AxMNode(seq(negated_prog(FinOrd(1)), Eq(Num(1), Num(1))), from_int(0))


def faulty_rep_chain(levels: int):
    """`levels` rep links on {not-Prog((fin 1)), 0 = 1}, tags `levels` down to
    1, over the wrong axiom: the last link does not repeat its premise."""
    code = WRONG_LEAF
    for i in range(1, levels + 1):
        code = RepNode(seq(negated_prog(FinOrd(1)), FALSE), from_int(i), code)
    return code


def faulty_ex_chain(levels: int):
    """An ex_chain whose levels claim exists z z*0 = 1: the lowest one's
    premise does not match it."""
    return ex_chain(levels, claim=1)


def faulty_inv_chain(levels: int):
    """`levels` rep links on {not-Prog((fin 1)), 0 = 1} over an inversion of
    a conjunction missing from its child's sequent: the last link's premise
    fails to decode."""
    code = Inv(WRONG_LEAF, Conj(FALSE, FALSE), 1)
    for i in range(1, levels + 1):
        code = RepNode(seq(negated_prog(FinOrd(1)), FALSE), from_int(i), code)
    return code


@pytest.mark.parametrize("build, levels, reason", [
    (faulty_rep_chain, 100, "repetition premise must repeat the sequent"),
    (faulty_ex_chain, 1200, "no existential formula matches the premise"),
    (faulty_inv_chain, 100, "decode error in a premise: inversion target missing from the sequent"),
])
def test_faulty_deep_certificates_are_refused_at_every_depth(tmp_path, build, levels, reason):
    path = tmp_path / "faulty.sx"
    path.write_text(code_text(build(levels)) + "\n")
    code, out, _ = run(["check", str(path), "--cut-free", "--depth", "4000", "--json"])
    record = json.loads(out.splitlines()[0])
    assert code == EXIT_VERDICT and len(record["fail_path"]) == levels - 1 and record["fail_reason"] == reason
    # the gate refuses it within its depth, the walk beyond; both name check's node
    where = f"at {tuple(record['fail_path'])}: {record['fail_reason']}\n"
    for depth in ([], ["--depth", "400"], ["--depth", "4000"]):
        code, out, err = run(["bound", "--ordering", "(fin 1)", "--cert", str(path), "--truth", *depth])
        assert code == EXIT_PRECONDITION and out == "" and err.endswith(where), err


@pytest.mark.parametrize("error", [NotationError, FormulaError])
def test_a_walk_premise_that_fails_to_decode_is_refused_with_its_path(tmp_path, monkeypatch, error):
    # 100 rep links over the tiprog of element 3, whose step is made to
    # raise: a bad-input error class there is still a failed precondition,
    # named as check names it
    spec, real_rank = FinOrd(9), derivations.rank

    def rank(s, n):
        if n == 3:
            raise error("no rank for 3 here")
        return real_rank(s, n)

    cert = TiProg(spec, 3)
    for i in range(1, 101):
        cert = RepNode(seq(negated_prog(spec), Member(Num(3))), add(parse("w*4"), from_int(i)), cert)
    path = tmp_path / "faulty.sx"
    path.write_text(code_text(cert) + "\n")
    monkeypatch.setattr(derivations, "rank", rank)
    code, out, _ = run(["check", str(path), "--cut-free", "--depth", "400", "--json"])
    record = json.loads(out.splitlines()[0])
    assert code == EXIT_VERDICT and record["fail_path"] == [1] * 99
    assert record["fail_reason"] == "decode error in a premise: no rank for 3 here"
    code, out, err = run(["bound", "--ordering", "(fin 9)", "--cert", str(path), "--truth"])
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == f"precondition failed: walk check failed at {(1,) * 99}: {record['fail_reason']}\n"


def test_faulty_shared_and_tower_is_refused_by_the_walk():
    # 100 levels, each with its two premises one object: never write it out,
    # as its text is about 2^100 nodes long
    code = WRONG_LEAF
    for i in range(1, 101):
        code = AndNode(seq(negated_prog(FinOrd(1)), FALSE, Conj(FALSE, FALSE)), from_int(i), code, code)
    for depth in (64, 400):
        started = time.monotonic()
        with pytest.raises(boundedness.BoundednessError, match="no conjunction in the sequent matches the premises$"):
            bounded_truth(code, FinOrd(1), depth_budget=depth)
        assert time.monotonic() - started < 1


def shared_and_tower(leaf, *side):
    """100 And levels over `leaf`, each with its two premises one object and
    {not-Prog((fin 1)), *side} beside its conjunction: a DAG of 100 + leaf's
    distinct nodes whose tree has 2^100 leaves."""
    code, tag = leaf, derivations.root_label(leaf).tag
    for i in range(1, 101):
        code = AndNode(seq(negated_prog(FinOrd(1)), *side, Conj(side[0], side[0])), add(tag, from_int(i)), code, code)
    return code


E500 = Exists("z", Eq(Var("z"), Num(500)))  # true, at a witness beyond the default eval budget of 200
SHARED_TOWERS = {
    # a side-formula Ex at witness 500 over the axiom of its true instance
    "ex": (shared_and_tower(ExNode(seq(negated_prog(FinOrd(1)), E500), from_int(1), 500,
                                   AxMNode(seq(negated_prog(FinOrd(1)), E500, Eq(Num(500), Num(500))), from_int(0))),
                            E500), 102, 0),
    # the AxL leaf {not-Prog, 0 in X, 0 not-in X}, whose rank check is logged once
    "axl": (shared_and_tower(AxLNode(seq(negated_prog(FinOrd(1)), Member(Num(0)), NotMember(Num(0))), from_int(0)),
                             Member(Num(0)), NotMember(Num(0))), 101, 1),
    "axm": (shared_and_tower(AxMNode(seq(negated_prog(FinOrd(1)), Eq(Num(1), Num(1))), from_int(0)),
                             Eq(Num(1), Num(1))), 101, 0),
}


@pytest.mark.parametrize("depth", [64, 400])
@pytest.mark.parametrize("leaf", SHARED_TOWERS)
def test_the_walk_checks_each_distinct_node_of_a_shared_tower_once(leaf, depth):
    code, nodes, rank_checks = SHARED_TOWERS[leaf]
    started = time.monotonic()
    claim = bounded_truth(code, FinOrd(1), depth_budget=depth)
    assert time.monotonic() - started < 0.1
    assert claim.verdict.value == "true"
    assert (claim.nodes_visited, len(claim.rank_checks)) == (nodes, rank_checks)


def test_deeply_nested_parentheses_are_bad_input(tmp_path):
    path = tmp_path / "parens.sx"
    path.write_text("(" * 100_000 + ")" * 100_000)
    code, _, err = run(["check", str(path), "--json"])
    assert code == EXIT_PARSE and "Traceback" not in err


def test_over_nested_notation_is_bad_input(tmp_path):
    def tower(n):
        return "w^(" * n + "w+1" + ")" * n

    code, _, _ = run(["ord", "succ", tower(MAX_NESTING)])
    assert code == EXIT_OK
    code, _, err = run(["ord", "succ", tower(400)])
    assert code == EXIT_PARSE and "nest" in err
    path = tmp_path / "tag.sx"
    path.write_text(f'(axm (seq (= 1 1)) "{tower(400)}")')
    code, _, err = run(["check", str(path), "--json"])
    assert code == EXIT_PARSE and "nest" in err


# notations with a digit outside ASCII 0-9, or more digits than int() reads;
# a certificate is written to a file and checked
@pytest.mark.parametrize(
    "argv",
    [
        ["ord", "succ", "٣"],
        ["ord", "succ", "²"],
        ["ord", "succ", "7" * 5000],
        ["ti", '(below "٣")', "--compact"],
        ["check", '(tiroot (below "w^٢"))'],
        ["check", '(axm (seq (= 1 1)) "w^٢")'],
    ],
    ids=["arabic-indic", "superscript", "5000-digits", "ti-below", "check-below", "check-tag"],
)
def test_notations_outside_the_grammar_are_bad_input(tmp_path, argv):
    if argv[0] == "check":
        path = tmp_path / "cert.sx"
        path.write_text(argv[1])
        argv = ["check", str(path), "--json"]
    code, out, err = run(argv)
    assert code == EXIT_PARSE and not out and "parse error" in err and "Traceback" not in err


def test_a_result_too_long_to_write_is_a_failed_precondition():
    # 2^20000 has 6,021 digits, more than str() writes
    code, out, err = run(["ord", "pow2", "20000"])
    assert code == EXIT_PRECONDITION and not out and "6021-digit" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_a_bad_budget_in_the_environment_is_bad_input(monkeypatch, value):
    monkeypatch.setenv("PROOFBENCH_DEPTH", value)
    code, out, err = run(["ord", "succ", "0"])
    assert code == EXIT_PARSE and not out and "--depth" in err
    code, out, err = run(["ord", "succ", "0", "--depth", "5"])
    assert code == EXIT_OK and out == "1\n"


def test_a_bad_budget_flag_is_named():
    code, out, err = run(["ord", "succ", "0", "--eval-budget", "0"])
    assert code == EXIT_PARSE and not out and "--eval-budget" in err


def test_a_numeral_too_long_to_read_is_bad_input(tmp_path):
    path = tmp_path / "cert.sx"
    n = "7" * 5000
    path.write_text(f'(axm (seq (= {n} {n})) "0")')
    code, out, err = run(["check", str(path), "--json"])
    assert code == EXIT_PARSE and not out and "1:14: a 5000-digit numeral is too long to read" in err


def test_a_tag_out_of_canonical_order_is_named(tmp_path):
    path = tmp_path / "cert.sx"
    path.write_text('(axm (seq (= 1 1)) "w+w")')
    code, out, err = run(["check", str(path), "--json"])
    assert code == EXIT_PARSE and not out and "exponents must strictly decrease in 'w+w'" in err


# spellings that int() reads as a number but the writer never produces
NON_CANONICAL = ["+3", "-0", "1_0", "\x0c5", "٣", "03"]


@pytest.mark.parametrize("numeral", NON_CANONICAL, ids=["plus", "minus-zero", "underscore", "form-feed",
                                                         "arabic-indic", "leading-zero"])
def test_non_canonical_numerals_are_bad_input(tmp_path, numeral):
    for text, col in ((f"(tiroot (fin {numeral}))", 14), (f'(axm (seq (= {numeral} 3)) "0")', 14)):
        path = tmp_path / "cert.sx"
        path.write_text(text)
        code, _, err = run(["check", str(path), "--json"])
        assert code == EXIT_PARSE and f"1:{col}: not a canonical numeral: {numeral!r}" in err, text
    code, out, err = run(["ti", f"(fin {numeral})", "--compact"])
    assert code == EXIT_PARSE and not out and "not a canonical numeral" in err


DEEP_VALUES = {
    "formula": f'(axm (seq {nest("(and (= 1 1) ", "(= 1 1)", 3000)}) "0")',
    "term": f'(axm (seq (= {nest("(+ 0 ", "1", 3000)} 1)) "0")',
    "spec": f'(tiroot {nest("(rev ", "(fin 1)", 3000)})',
}


@pytest.mark.parametrize("kind", DEEP_VALUES)
def test_deeply_nested_values_are_bad_input(tmp_path, kind):
    path = tmp_path / "deep.sx"
    path.write_text(DEEP_VALUES[kind])
    code, _, err = run(["check", str(path), "--json"])
    assert code == EXIT_PARSE and f"deeper than {MAX_NESTING} levels" in err and "Traceback" not in err


# each text, given a depth, nests that many parentheses deep
@pytest.mark.parametrize(
    "read, text, error",
    [
        (parse_formula, lambda k: nest("(and (= 1 1) ", "(= 1 1)", k - 1), FormulaError),
        (parse_formula, lambda k: f"(= {nest('(+ 0 ', '1', k - 1)} 1)", FormulaError),
        (parse_spec, lambda k: nest("(rev ", "(fin 1)", k - 1), SpecError),
        # a sequent, its formula and the spec in it count together
        (parse_sequent, lambda k: f"(seq (fld {nest('(rev ', '(fin 1)', k - 3)} 0))", SpecError),
    ],
    ids=["formula", "term", "spec", "spec-in-sequent"],
)
def test_values_nest_up_to_the_bound(read, text, error):
    hash(read(text(MAX_NESTING)))
    with pytest.raises(error, match=f"deeper than {MAX_NESTING} levels"):
        read(text(MAX_NESTING + 1))


AXIOM = '(axm (seq (= 1 1)) "0")'
CONJ = "(and (= 1 1) (= 1 1))"


def inversion_chain(levels: int) -> str:
    """`levels` inversions over a repetition, one per conjunction of its sequent."""
    conjs = [f"(and (= {i} {i}) (= {i} {i}))" for i in range(1, levels + 1)]
    sequent = f"(seq (= 0 0) {' '.join(conjs)})"
    return "(inv " * levels + f'(rep {sequent} "1" (axm {sequent} "0"))' + "".join(f" {c} 1)" for c in conjs)


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("(mono " * 3000 + AXIOM + ' (seq (= 1 1)) "0")' * 3000, 1),
        # the weakenings are pushed through each repetition to its premise
        ("(mono " * 3000 + rep_tower(50) + ' (seq (= 1 1)) "50")' * 3000, 51),
        # every inversion after the first misses its target
        ("(inv " * 3000 + f'(axm (seq (= 1 1) {CONJ}) "0")' + f" {CONJ} 1)" * 3000, None),
        # each weakening puts the target back for the inversion above it
        ("(inv (mono " * 1500 + AXIOM + f' (seq (= 1 1) {CONJ}) "0") {CONJ} 1)' * 1500, 1),
        # every inversion is pushed into the repetition's premise
        (inversion_chain(1200), 2),
    ],
    ids=["mono", "mono-over-rep", "inv", "inv-over-mono", "inv-over-rep"],
)
def test_deep_transformer_chains(tmp_path, text, nodes):
    path = tmp_path / "chain.sx"
    path.write_text(text)
    started = time.monotonic()
    code, out, err = run(["check", str(path), "--json"])
    assert time.monotonic() - started < 5
    assert_contract(code, out, err)
    if nodes is not None:
        assert code == EXIT_OK and json.loads(out.splitlines()[0])["nodes_visited"] == nodes


# every input file is read as UTF-8; byte 0xff never occurs in UTF-8.  Each
# case names the file that holds the bad byte, and the argv that reads it.
NOT_UTF8 = {
    "check": ("cert.sx", ["check", "cert.sx"]),
    "bound": ("cert.sx", ["bound", "--ordering", "(fin 2)", "--cert", "cert.sx"]),
    "lab-store": ("store.sx", ["lab", "build", "store.sx", "--base", "(fin 3)"]),
    "lab-cert": ("cert.sx", ["lab", "build", "store.sx", "--base", "(fin 3)"]),
    "spector-enumeration": ("entries.sx", ["spector", "entries.sx"]),
    "spector-cert": ("cert.sx", ["spector", "entries.sx"]),
}


@pytest.mark.parametrize("case", NOT_UTF8)
def test_an_input_that_is_not_utf8_is_bad_input(tmp_path, case):
    bad, argv = NOT_UTF8[case]
    files = {
        "cert.sx": BASE.encode(),
        "store.sx": b'(theory "t" (claim (fin 2) (cert "cert.sx")))',
        "entries.sx": b'(entries (0 (fin 2) "cert.sx"))',
    }
    # the bad byte sits after a two-byte character, at byte 3
    files[bad] = b"(\xc3\xa9\xff" + files[bad][1:]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run([str(tmp_path / a) if a in files else a for a in argv] + ["--json"])
    assert code == EXIT_PARSE and not out
    assert err == f"parse error: {tmp_path / bad}: not UTF-8 at byte 3\n"


def test_inputs_are_read_as_utf8_with_universal_newlines(tmp_path):
    # a non-ASCII character is read as one character, and a line ends at
    # \n, \r\n or \r, so a fault's line:col is the same under each
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "cert.sx"
        path.write_bytes(f'(axm (seq (= 1 1)){newline}"é" +3)'.encode())
        code, out, err = run(["check", str(path), "--json"])
        assert code == EXIT_PARSE and "2:5: not a canonical numeral: '+3'" in err, newline


@pytest.mark.parametrize(
    "argv, target",
    [
        (["ti", "(fin 3)", "-o", "{dir}"], "{dir}"),
        (["ti", "(fin 3)", "-o", "{dir}/missing/t.sx"], "{dir}/missing/t.sx"),
        (["spector", "{entries}", "--emit-cert", "{dir}/missing/w.sx"], "{dir}/missing/w.sx"),
    ],
    ids=["ti-directory", "ti-missing-directory", "spector-missing-directory"],
)
def test_an_output_path_that_cannot_be_written_is_bad_input(tmp_path, argv, target):
    (tmp_path / "cert.sx").write_text(BASE)
    (tmp_path / "entries.sx").write_text('(entries (0 (fin 2) "cert.sx"))')
    names = {"dir": tmp_path, "entries": tmp_path / "entries.sx"}
    code, out, err = run([a.format_map(names) for a in argv] + ["--json"])
    assert code == EXIT_PARSE and not out and "Traceback" not in err
    assert err.startswith(f"parse error: cannot write {target.format_map(names)}: ")


# the TI sequent of an ill-founded ordering, "proved" by one vacuous family:
# each child it is sampled at claims its index is outside the field, and no
# field element of (rev (below "w")) is below the default width
ILL_FOUNDED = '(rev (below "w"))'
ILL_FOUNDED_CERT = (f'(all {sequent_text(ti_sequent(parse_spec(ILL_FOUNDED)))} "w+1"'
                    f' (fs () (tivac {ILL_FOUNDED})))')


@pytest.mark.parametrize(
    "argv",
    [
        ["lab", "build", "{store}", "--base", '(below "w^2")'],
        ["lab", "retype", "{store}", "--base", '(below "w^2")'],
        ["lab", "reflect", "{store}", "--base", '(below "w^2")'],
        ["bound", "--ordering", ILL_FOUNDED, "--cert", "{cert}"],
        ["bound", "--ordering", ILL_FOUNDED, "--cert", "{cert}", "--truth"],
        ["spector", "{entries}"],
    ],
    ids=["lab-build", "lab-retype", "lab-reflect", "bound", "bound-truth", "spector"],
)
def test_the_certificate_gate_refuses_an_ordering_that_is_not_a_well_order(tmp_path, argv):
    (tmp_path / "cert.sx").write_text(ILL_FOUNDED_CERT)
    (tmp_path / "store.sx").write_text(f'(theory "t" (claim {ILL_FOUNDED} (cert "cert.sx")))')
    (tmp_path / "entries.sx").write_text(f'(entries (0 {ILL_FOUNDED} "cert.sx"))')
    names = {name: tmp_path / f"{name}.sx" for name in ("cert", "store", "entries")}
    code, out, err = run([a.format_map(names) for a in argv] + ["--json"])
    assert code == EXIT_PRECONDITION and not out
    assert "the ordering is not a well-order (linear, with no infinite descent)" in err


@pytest.mark.parametrize("width", [8, 200])
@pytest.mark.parametrize("cut_free", [False, True], ids=["plain", "cut-free"])
def test_check_refuses_a_ti_root_whose_ordering_is_not_a_well_order(tmp_path, width, cut_free):
    # decided at the root, before any child is sampled, at every width
    (tmp_path / "cert.sx").write_text(ILL_FOUNDED_CERT)
    argv = ["check", str(tmp_path / "cert.sx"), "--width", str(width), "--json"] + ["--cut-free"] * cut_free
    code, out, err = run(argv)
    record = json.loads(out.splitlines()[0])
    assert code == EXIT_VERDICT and not err
    assert record["fail_path"] == [] and record["nodes_visited"] == 1 and record["nodes_checked"] == 0
    assert record["fail_reason"] == NOT_A_WELL_ORDER


def test_bound_truth_refuses_an_ordering_that_is_not_a_well_order_before_it_checks(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_local(*args, **kwargs)

    monkeypatch.setattr(boundedness, "check_local", counted)
    monkeypatch.setattr(derivations, "check_local", counted)
    (tmp_path / "cert.sx").write_text(ILL_FOUNDED_CERT)
    code, out, err = run(["bound", "--ordering", ILL_FOUNDED, "--cert", str(tmp_path / "cert.sx"), "--truth"])
    assert code == EXIT_PRECONDITION and not out
    assert err == f"precondition failed: {NOT_A_WELL_ORDER}\n"
    assert calls == []

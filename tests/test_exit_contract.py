"""The CLI exit contract under malformed and deeply nested input.

0 = pass, 1 = a verdict failed (and a fail record says so), 2 = bad input,
3 = precondition violated; never a traceback.  Certificates decode at any
nesting depth; ordinal notations nest at most `ordinals.MAX_NESTING` deep.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.boundedness import bounded_truth
from proofbench.cli import EXIT_OK, EXIT_PARSE, main
from proofbench.derivations import code_text, derive_ti, expand, parse_code
from proofbench.formulas import sequent_text, ti_sequent
from proofbench.orderings import FinOrd
from proofbench.ordinals import MAX_NESTING

BASE = code_text(expand(derive_ti(FinOrd(2))))
HEAD = re.compile(r"\((?=[^\s()])")
HEADS = ["axm", "axl", "and", "or", "ex", "cut", "rep", "all", "tiprog", "tiroot", "mono",
         "inv", "tikids", "predkids", "fs", "tivac", "predvac", "seq", "=", "!=", "in", "nin",
         "lt", "nlt", "fld", "nfld", "seg", "nseg", "forall", "exists", "fin", "below", "sum",
         "lex", "rev", "table", "foo"]


def rep_tower(levels: int) -> str:
    """`levels` repetitions over a (= 1 1) axiom; tags count down to its 0."""
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    return head + '(axm (seq (= 1 1)) "0")' + ")" * levels


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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
            text = "".join(f'(rep (seq) "{i}" ' for i in range(levels)) + text + ")" * levels
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

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proofbench
import proofbench.cli as cli

from proofbench.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, main
from proofbench.derivations import code_text, derive_ti, expand
from proofbench.orderings import (FinOrd, UnsupportedRankError, element_of_rank, height, linear, otyp, parse_spec,
                                  rankable)
from proofbench.ordinals import parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ord_pow2(capsys):
    code, out, _ = run_cli(capsys, "ord", "pow2", "w+2")
    assert code == EXIT_OK
    assert out.strip() == "w*4"


def test_ord_compare_and_errors(capsys):
    code, out, _ = run_cli(capsys, "ord", "compare", "w^2", "w*5+3")
    assert code == EXIT_OK and out.strip() == "GT"
    code, _, err = run_cli(capsys, "ord", "pow2", "not-an-ordinal")
    assert code == EXIT_PARSE and "parse error" in err
    code, _, err = run_cli(capsys, "ord", "pow2", "E+1")
    assert code == EXIT_PRECONDITION


def test_ti_and_check_round_trip(tmp_path, capsys):
    # fields above MAX_EXPANDED_FIELD elements get the compact term
    for spec, head in [("(fin 3)", "(all "), ("(lex (fin 2) (fin 7))", "(tiroot ")]:
        cert = tmp_path / "cert.sx"
        code, out, _ = run_cli(capsys, "ti", spec, "-o", str(cert))
        assert code == EXIT_OK
        assert cert.read_text().startswith(head)
        code, out, _ = run_cli(capsys, "check", str(cert), "--depth", "64", "--width", "8",
                               "--cut-free")
        assert code == EXIT_OK
        assert "pass" in out


@pytest.mark.parametrize("spec", ["(rev (fin 3))", '(sum (rev (fin 2)) (below "w"))', '(lex (rev (fin 3)) (below "w"))'])
def test_a_finite_reversal_is_certified_and_bounded(tmp_path, capsys, spec):
    cert = str(tmp_path / "cert.sx")
    assert run_cli(capsys, "ti", spec, "-o", cert)[0] == EXIT_OK
    for argv in (["check", cert, "--cut-free"], ["bound", "--ordering", spec, "--cert", cert],
                 ["bound", "--ordering", spec, "--cert", cert, "--truth"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, out, err)


@pytest.mark.parametrize("spec, table", [
    ('(rev (below "w"))', None),
    # a table is judged by its own pairs, even where the combinator never
    # compares its self-pair, so it has no order type and the spec no exact height
    ("(lex (table (0 0)) (fin 2))", "(table (0 0))"),
    ("(rev (table (0 0) (0 1)))", "(table (0 0) (0 1))"),
])
def test_ti_refuses_what_is_not_a_well_order(capsys, spec, table):
    assert not rankable(parse_spec(spec))
    if table is not None:
        assert not linear(parse_spec(spec))
        with pytest.raises(UnsupportedRankError):
            otyp(parse_spec(table))
        with pytest.raises(UnsupportedRankError):
            height(parse_spec(spec))
    code, _, err = run_cli(capsys, "ti", spec)
    assert code == EXIT_PRECONDITION and "derive_ti needs a well-founded combinator spec" in err


def test_check_detects_tag_tampering(tmp_path, capsys):
    # raise an internal ordinal tag above its parent by editing the dump text
    payload = code_text(expand(derive_ti(FinOrd(3))))
    tampered = payload.replace('"w*3"', '"w*3+2"', 1)
    assert tampered != payload
    bad = tmp_path / "bad.sx"
    bad.write_text(tampered)
    code, out, _ = run_cli(capsys, "check", str(bad), "--cut-free", "--width", "5")
    assert code == EXIT_VERDICT
    assert "fail" in out and "at path" in out


def test_check_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "junk.sx"
    bad.write_text("(axm (seq")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == EXIT_PARSE


def test_bound_json_schema(tmp_path, capsys):
    cert = tmp_path / "fin4.sx"
    run_cli(capsys, "ti", "(fin 4)", "-o", str(cert))
    code, out, _ = run_cli(capsys, "bound", "--ordering", "(fin 4)", "--cert", str(cert),
                           "--json")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    record, verdict = lines
    assert record["alpha"] == "w*4+1"
    assert record["bound"] == "w^4*2"
    assert record["verdict"] == "pass"
    assert {"element", "rank", "ok"} <= set(record["checks"][0])
    assert verdict == {"schema": "proofbench/1", "verdict": "pass"}


def test_bound_truth_mode(tmp_path, capsys):
    cert = tmp_path / "fin2.sx"
    run_cli(capsys, "ti", "(fin 2)", "-o", str(cert))
    code, out, _ = run_cli(capsys, "bound", "--ordering", "(fin 2)", "--cert", str(cert),
                           "--truth", "--json")
    assert code == EXIT_OK
    record = json.loads(out.splitlines()[0])
    assert record["gamma"] == "w^2*2"
    assert record["verdict"] == "true"
    # the witness step and the membership axiom check one element against different bounds
    bounds = {}
    for check in record["checks"]:
        bounds.setdefault(check["element"], set()).add(check["bound"])
    assert bounds and all(len(b) == 2 for b in bounds.values())


def test_spector_flow(tmp_path, capsys):
    for k in (2, 3):
        run_cli(capsys, "ti", f"(fin {k})", "-o", str(tmp_path / f"fin{k}.sx"))
    (tmp_path / "h.sx").write_text('(entries (0 (fin 2) "fin2.sx") (1 (fin 3) "fin3.sx"))')
    out_cert = tmp_path / "witness.sx"
    code, out, _ = run_cli(capsys, "spector", str(tmp_path / "h.sx"), "--json",
                           "--emit-cert", str(out_cert))
    assert code == EXIT_OK
    record = json.loads(out.splitlines()[0])
    assert record["alpha"] == "w*3+1"
    assert record["witness_otyp"] == "w^3*2+1"
    assert record["witness_index"] == 2
    assert all(row["ok"] for row in record["dominates"])
    assert out_cert.exists()
    code, _, _ = run_cli(capsys, "check", str(out_cert), "--cut-free")
    assert code == EXIT_OK


def test_lab_flow(tmp_path, capsys):
    run_cli(capsys, "ti", '(below "w")', "-o", str(tmp_path / "bw.sx"))
    run_cli(capsys, "ti", '(below "w^2")', "-o", str(tmp_path / "bw2.sx"))
    (tmp_path / "good.sx").write_text(
        '(theory "good" (claim (below "w") (cert "bw.sx")) (claim (below "w^2") (cert "bw2.sx")))'
    )
    (tmp_path / "bad.sx").write_text(
        '(theory "bad" (claim (below "w") (cert "bw.sx")) (claim (rev (below "w")) asserted))'
    )
    code, out, _ = run_cli(capsys, "lab", "build", str(tmp_path / "good.sx"),
                           "--base", '(below "w^3")', "--json")
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[0])["usable"] == [0, 1]

    code, out, _ = run_cli(capsys, "lab", "retype", str(tmp_path / "good.sx"),
                           "--base", '(below "w^3")', "--json")
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[0])["otyp"] == "w^2"

    code, out, _ = run_cli(capsys, "lab", "reflect", str(tmp_path / "bad.sx"),
                           "--base", '(below "w^2")', "--json")
    assert code == EXIT_VERDICT
    record = json.loads(out.splitlines()[0])
    assert record["verdict"] == "culprit"
    assert record["claim_index"] == 1
    assert len(record["chain"]) == 50

    code, out, _ = run_cli(capsys, "lab", "reflect", str(tmp_path / "good.sx"),
                           "--base", '(below "w^2")')
    assert code == EXIT_OK


# two claims that are not linear orders: the table's pairs lie above code
# 200, and the product's first trichotomy failure is at codes 1224 and 2394
@pytest.mark.parametrize("spec", [
    "(table (300 301) (301 300))",
    '(lex (lex (rev (fin 5)) (table (1 0) (1 3) (3 0) (5 1))) (below "w^2"))',
], ids=["table", "lex"])
def test_lab_usable_claims_do_not_depend_on_the_eval_budget(tmp_path, capsys, spec):
    path = tmp_path / "store.sx"
    path.write_text(f'(theory "t" (claim {spec} asserted))')
    for verb, key, want in (("build", "usable", []), ("reflect", "verdict", "well-founded-up-to-budget")):
        runs = {run_cli(capsys, "lab", verb, str(path), "--base", '(below "w")', "--eval-budget", budget, "--json")
                for budget in ("200", "400", "20000")}
        assert len(runs) == 1, verb
        code, out, _ = runs.pop()
        assert code == EXIT_OK and json.loads(out.splitlines()[0])[key] == want


def test_lab_chain(tmp_path, capsys):
    run_cli(capsys, "ti", "(fin 3)", "-o", str(tmp_path / "f3.sx"))
    run_cli(capsys, "ti", "(fin 2)", "-o", str(tmp_path / "f2.sx"))
    (tmp_path / "s0.sx").write_text('(theory "s0" (claim (fin 3) (cert "f3.sx")))')
    (tmp_path / "s1.sx").write_text('(theory "s1" (claim (fin 2) (cert "f2.sx")))')
    code, out, _ = run_cli(capsys, "lab", "chain", str(tmp_path / "s0.sx"),
                           str(tmp_path / "s1.sx"), "--base", "(below \"w\")", "--json")
    assert code == EXIT_OK
    record = json.loads(out.splitlines()[0])
    assert record["descent_ok"] is True
    code, out, _ = run_cli(capsys, "lab", "chain", str(tmp_path / "s0.sx"),
                           str(tmp_path / "s0.sx"), "--base", "(below \"w\")")
    assert code == EXIT_VERDICT


def test_budget_env_and_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROOFBENCH_WIDTH", "3")
    cert = tmp_path / "c.sx"
    run_cli(capsys, "ti", "(fin 2)", "-o", str(cert))
    code, out, _ = run_cli(capsys, "check", str(cert), "--json")
    assert code == EXIT_OK
    monkeypatch.setenv("PROOFBENCH_WIDTH", "oops")
    with pytest.raises(SystemExit):
        run_cli(capsys, "check", str(cert))


def test_only_the_regress_verb_imports_the_acceptance_suite():
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    script = "import sys, proofbench.cli; print('proofbench.regress' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_argparse():
    # the term classes are built without dataclasses (which loads inspect),
    # and the parser only when a request needs it
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    script = ("import sys, proofbench.cli;"
              " print([m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_regress_subset(capsys):
    code, out, _ = run_cli(capsys, "regress", "--only", "2,9", "--json")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["criterion"] for r in lines[:-1]] == [2, 9]
    assert lines[-1]["verdict"] == "pass"


def test_regress_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "regress", "--only", "2", "--json")
    code2, out2, _ = run_cli(capsys, "regress", "--only", "2", "--json")
    assert out1 == out2


# --- reading argv -------------------------------------------------------------------
# `reference_parser` is the argparse parser `cli` built for every request
# before it read argv from its verb table; the direct reader and the parser
# built from the table are compared against it.


def _reference_budget_flags(p: argparse.ArgumentParser):
    # argparse reads a string default (the environment's) with `type`, so a
    # bad value exits 2 like a bad flag
    for name, (flag, default) in cli._BUDGETS.items():
        p.add_argument(flag, type=int, dest=name, default=os.environ.get(f"PROOFBENCH_{name.upper()}", default))
    p.add_argument("--json", action="store_true", help="line-delimited records")


def reference_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="proofbench", description=cli.__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ord", help="notation arithmetic")
    p.add_argument("op", choices=["compare", "add", "mul", "succ", "pow2"])
    p.add_argument("operands", nargs="+")
    _reference_budget_flags(p)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("file")
    p.add_argument("--cut-free", action="store_true")
    _reference_budget_flags(p)

    p = sub.add_parser("ti", help="emit the canonical TI certificate of a spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.add_argument("--compact", action="store_true", help="emit the builder term instead of expanding")
    _reference_budget_flags(p)

    p = sub.add_parser("bound", help="order-type bound / semantic claim extraction")
    p.add_argument("--ordering", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--truth", action="store_true", help="run the claim walk instead of the order-type bound")
    _reference_budget_flags(p)

    p = sub.add_parser("spector", help="certified-sup witness from an enumeration file")
    p.add_argument("file")
    p.add_argument("--emit-cert")
    _reference_budget_flags(p)

    p = sub.add_parser("lab", help="certificate-store workbench")
    p.add_argument("verb", choices=["build", "retype", "reflect", "chain"])
    p.add_argument("stores", nargs="+", help="store files")
    p.add_argument("--base", required=True)
    _reference_budget_flags(p)

    p = sub.add_parser("regress", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", help="comma-separated criterion numbers")
    _reference_budget_flags(p)
    return top


BUDGET_ENV = [f"PROOFBENCH_{name.upper()}" for name in cli._BUDGETS]
WORDS = ["x", "", "(fin 3)", '(below "w")', "f.sx", "succ", "build", "grow", "ord", "lab"]
INTS = ["0", "7", "12", "-3", " 5", "\u0663", "1_0", "+4", "x"]
NOISE = ["-", "--", "-h", "--help", "--dep", "--co", "--c", "--e", "--depth=5", "--base=b",
         "-of.sx", "-oo", "--jso", "--truth", "--output", "--seed", "nope"]
ENV_VALUES = [None, None, None, "3", "0", "-2", " 5", "\u0663", "oops", ""]


@st.composite
def argvs(draw):
    """A well-formed argv of a verb, from its table entry, then up to two edits
    that insert a token, delete one or swap two; and the budget environment."""
    verb = draw(st.sampled_from(sorted(cli.VERBS)))
    argv, flags = [verb], []
    for *names, keywords in cli._arguments(verb):
        if not names[0].startswith("-"):
            count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
            pool = keywords.get("choices") or WORDS
            argv += draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        elif draw(st.booleans()) or (keywords.get("required") and draw(st.integers(0, 9)) > 0):
            flags.append((draw(st.sampled_from(names)), keywords))
    for name, keywords in draw(st.permutations(flags)):
        argv.append(name)
        if keywords.get("action") != "store_true":
            argv.append(draw(st.sampled_from(INTS if "type" in keywords else WORDS)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "swap"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(NOISE + INTS + WORDS)))
        elif edit == "delete" and len(argv) > 1:
            del argv[at]
        else:
            other = draw(st.integers(0, len(argv) - 1))
            argv[at], argv[other] = argv[other], argv[at]
    env = {name: draw(st.sampled_from(ENV_VALUES)) for name in BUDGET_ENV}
    return argv, env


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example((["lab", "build", "a", "--json", "b", "--base", "x"], {}))
@example((["bound", "--cert", "c", "--truth"], {}))
@example((["bound", "--ordering", "--json", "--cert", "c"], {}))
@example((["check", "f", "--width", "-3"], {"PROOFBENCH_DEPTH": "oops"}))
def test_the_direct_reader_agrees_with_argparse(case):
    argv, env = case
    with mock.patch.dict(os.environ, {k: v for k, v in env.items() if v is not None}):
        for name in BUDGET_ENV:
            if env.get(name) is None:
                os.environ.pop(name, None)
        read = cli._read_argv(argv)
        if read is not None:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    expected = reference_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail(f"argparse refuses {argv!r} with {env!r}: {err.getvalue()}")
            assert vars(read) == vars(expected)


def _exit_of(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


BAD_ARGVS = [
    [], ["nope"], ["-x"], ["ord"], ["ord", "sqrt", "0"], ["ord", "succ"], ["check"],
    ["check", "a", "b"], ["check", "f", "--depth"], ["check", "f", "--depth", "x"],
    ["check", "f", "--dep=x"], ["check", "f", "--c"], ["check", "f", "--bogus"],
    ["check", "f", "--width", "--json"], ["bound", "--ordering", "s"], ["lab", "build", "s.sx"],
    ["lab", "grow", "s.sx", "--base", "b"], ["ti", "s", "-o"], ["regress", "--seed", "one"],
    ["spector", "--emit-cert", "w.sx"],
]


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[verb, "--help"] for verb in cli.VERBS]
                         + BAD_ARGVS, ids=repr)
def test_help_and_refusals_match_argparse(argv):
    expected = _exit_of(lambda a: reference_parser().parse_args(a), argv)
    assert expected[0] in (0, 2)
    assert _exit_of(main, argv) == expected


def test_a_bad_budget_environment_is_refused_as_argparse_refuses_it(monkeypatch):
    monkeypatch.setenv("PROOFBENCH_WIDTH", "oops")
    argv = ["check", "f.sx", "--json"]
    expected = _exit_of(lambda a: reference_parser().parse_args(a), argv)
    assert expected[0] == 2 and "invalid int value: 'oops'" in expected[2]
    assert _exit_of(main, argv) == expected
    # a flag given on the command line is read, and the environment's value is not
    assert cli._read_argv(["check", "f.sx", "--width", "3"]).width == 3


def test_benchmark_argv_shapes_never_build_argparse(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("argparse was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for name in BUDGET_ENV:
        monkeypatch.delenv(name, raising=False)
    cert, store, enum = tmp_path / "f.sx", tmp_path / "s.sx", tmp_path / "h.sx"
    store.write_text('(theory "s" (claim (fin 2) (cert "f.sx")))')
    enum.write_text('(entries (0 (fin 2) "f.sx"))')
    shapes = [
        ["ord", "succ", "0"],
        ["ti", "(fin 2)", "-o", str(cert), "--json"],
        ["check", str(cert), "--cut-free", "--depth", "400", "--width", "4", "--json"],
        ["check", str(cert), "--depth", "8", "--json"],
        ["bound", "--ordering", "(fin 2)", "--cert", str(cert), "--depth", "400", "--width", "4", "--json"],
        ["bound", "--ordering", "(fin 2)", "--cert", str(cert), "--truth", "--depth", "400", "--width", "4",
         "--json"],
        ["lab", "retype", str(store), str(store), "--base", '(below "w")', "--json"],
        ["spector", str(enum), "--emit-cert", str(tmp_path / "w.sx"), "--json"],
    ]
    for argv in shapes:
        assert main(argv) in (EXIT_OK, EXIT_VERDICT), argv
    capsys.readouterr()


def test_a_well_formed_request_imports_no_argparse():
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    script = ("import sys, proofbench.cli; proofbench.cli.main(['ord', 'succ', '0']);"
              " print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n[]\n"


# --- the bytes of every verb ----------------------------------------------------------
# Each request runs in one directory and names its files relatively, so no
# temporary path reaches the output.  The digests are the sha256 of stdout,
# taken before the handlers returned their verdicts to one dispatcher; those
# of `bound --truth` on builder terms, before the walk checked each node;
# those of the builder roots at the benchmark's widths, before a verb paused
# the cyclic collector and check_local closed a leaf's frame where it checked it;
# and those of the benchmark's other `bound --truth` requests, before the walk
# checked each distinct node once.

W2 = '(below "w^2")'

PINNED_INPUTS = {
    "f2.sx": code_text(expand(derive_ti(FinOrd(2)))) + "\n",
    "f3.sx": code_text(expand(derive_ti(FinOrd(3)))) + "\n",
    "f5.sx": code_text(expand(derive_ti(FinOrd(5)))) + "\n",
    "f8.sx": code_text(expand(derive_ti(FinOrd(8)))) + "\n",
    "bad.sx": code_text(expand(derive_ti(FinOrd(3)))).replace('"w*3"', '"w*3+2"', 1) + "\n",
    "junk.sx": "(axm (seq",
    "entries.sx": '(entries (0 (fin 2) "f2.sx") (1 (fin 3) "f3.sx"))',
    "s3.sx": '(theory "s3" (claim (fin 3) (cert "f3.sx")) (claim (fin 2) (cert "f2.sx")))',
    "rev.sx": '(theory "rev" (claim (rev (below "w")) asserted))',
    "s2.sx": '(theory "s2" (claim (fin 2) (cert "f2.sx")))',
    "w.sx": '(tiroot (below "w"))\n',
    "w2.sx": f"(tiroot {W2})\n",
    "w2-prog.sx": f"(tiprog {W2} {element_of_rank(parse_spec(W2), parse('w*3+2'))})\n",
    "sum.sx": '(tiroot (sum (fin 3) (below "w")))\n',
    "fin9.sx": "(tiroot (fin 9))\n",
}

PINNED_ARGVS = {
    "ord": ["ord", "add", "w^2+1", "w*3"],
    "ti": ["ti", "(fin 2)"],
    "ti-output": ["ti", "(fin 3)", "-o", "out.sx"],
    "ti-ill-founded": ["ti", '(rev (below "w"))'],
    "check-pass": ["check", "f3.sx", "--cut-free"],
    "check-fail": ["check", "bad.sx", "--cut-free", "--width", "5"],
    "check-parse-error": ["check", "junk.sx"],
    "bound": ["bound", "--ordering", "(fin 3)", "--cert", "f3.sx"],
    "bound-truth": ["bound", "--ordering", "(fin 3)", "--cert", "f3.sx", "--truth"],
    "bound-truth-tiroot": ["bound", "--ordering", W2, "--cert", "w2.sx", "--truth", "--width", "54", "--depth", "400"],
    "bound-truth-tiprog": ["bound", "--ordering", W2, "--cert", "w2-prog.sx", "--truth", "--width", "54", "--depth",
                           "400"],
    "check-tiroot-w2": ["check", "w2.sx", "--cut-free", "--depth", "400", "--width", "55"],
    "check-tiroot-sum": ["check", "sum.sx", "--cut-free", "--depth", "400", "--width", "56"],
    "check-tiprog-w2": ["check", "w2-prog.sx", "--cut-free", "--depth", "400", "--width", "54"],
    "bound-truth-fin9": ["bound", "--ordering", "(fin 9)", "--cert", "fin9.sx", "--truth", "--depth", "400", "--width",
                         "11"],
    "bound-truth-w": ["bound", "--ordering", '(below "w")', "--cert", "w.sx", "--truth", "--depth", "400", "--width",
                      "52"],
    "bound-truth-f5": ["bound", "--ordering", "(fin 5)", "--cert", "f5.sx", "--truth", "--depth", "400", "--width", "7"],
    "bound-truth-f8": ["bound", "--ordering", "(fin 8)", "--cert", "f8.sx", "--truth", "--depth", "400", "--width",
                       "10"],
    "spector": ["spector", "entries.sx"],
    "lab-build": ["lab", "build", "s3.sx", "s2.sx", "--base", '(below "w")'],
    "lab-retype": ["lab", "retype", "s3.sx", "s2.sx", "--base", '(below "w")'],
    "lab-reflect": ["lab", "reflect", "s3.sx", "rev.sx", "--base", '(below "w")'],
    "lab-chain": ["lab", "chain", "s3.sx", "s2.sx", "--base", '(below "w")'],
}

# (exit status, sha256 of stdout, stderr) of each request, human and --json
PINNED_BYTES = {
    ('ord', False): (0, 'ca3f05cca589212f0f7de3070be4303957b87e124a7cbdf656324daf630de27c', ''),
    ('ord', True): (0, '68282730957805a5ca57541618fc76343f0e7717a7580de4b4018306bd08aabc', ''),
    ('ti', False): (0, 'a7f44da0117b382174dc80df36ce83fe67a753a80f5399c922e36784761923c0', ''),
    ('ti', True): (0, 'cc75a68934956895ed86f82762aec059af3c91acd3edadeabb6d4a24a644684e', ''),
    ('ti-output', False): (0, '47905052e31097130f5b9e6fac26ebb420c71fa785f9b0148d7c4981aa461e88', ''),
    ('ti-output', True): (0, 'ee0d54de8d5d87379e500fbbd3a5cd66fd3e7a1d1aba4aa4aa059f760a46bac4', ''),
    ('ti-ill-founded', False): (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'precondition failed: derive_ti needs a well-founded combinator spec\n'),
    ('ti-ill-founded', True): (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'precondition failed: derive_ti needs a well-founded combinator spec\n'),
    ('check-pass', False): (0, 'b00317aa6acfbe8a07fda9e5e80307c8996c06958c7d19ed9eb71b797f57c200', ''),
    ('check-pass', True): (0, '7a5b7726a424a4d79ce14dee191bf21d2f71502973b366fbe63da7fd6a25f139', ''),
    ('check-fail', False): (1, '4404f142c0acef10412162dd3a3b8d8aa3b3ec9840a62b9a28ba71651569b453', ''),
    ('check-fail', True): (1, '752185f0d16db98de88ebc931ed6aaf9e52f98b8562cf49b4b305fcef36bffcf', ''),
    ('check-parse-error', False): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "parse error: 1:7: unbalanced '('\n"),
    ('check-parse-error', True): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "parse error: 1:7: unbalanced '('\n"),
    ('bound', False): (0, 'adfc2968db93bc945dbe56ecd4a27651856f29198ae395693a77e8e23ba5d67d', ''),
    ('bound', True): (0, '8e3de62da4dfe9eb5060be3c6651faf86ada361eb2598cf3a141d15e260fdff4', ''),
    ('bound-truth', False): (0, '381c18b9c7c615352929ca6a84fab7c249c721e643f97070496d14eae154330f', ''),
    ('bound-truth', True): (0, 'd1f107546dfa55a20c1cbbb2e668282240580a7b3c337db85b60dd2cceabf0a8', ''),
    ('bound-truth-tiroot', False): (0, '865dffc36fd78b6df8181f25cbde7e6fa2a38a3f89340de8ab2eaae4764817fd', ''),
    ('bound-truth-tiroot', True): (0, 'f7d64bac67d0876a088edbcb767dd38fbd02c47d56779cb16939a78cfadb261d', ''),
    ('bound-truth-tiprog', False): (0, 'c9f89617b22ae175abe7e991cbbb24e07309baa8ac73c510dafc3012a45d460b', ''),
    ('bound-truth-tiprog', True): (0, 'dc6a4583656716bb78cb49a1d88bd0a0fab76426d6733dc582f59a8cca64168d', ''),
    ('check-tiroot-w2', False): (0, '5691264f33cd1337cc07aa6e77e1bf9d1ab9a3172a98f412cb49056e6fe8f281', ''),
    ('check-tiroot-w2', True): (0, '60dfa015773a66177f4a66e371863f8ece196732b3888fc74a4d3a7e0bb29258', ''),
    ('check-tiroot-sum', False): (0, '65c9fd59d918fdf2a099c7dfc4b331f71bfc3f28646c14a6ad9a6b344b88a642', ''),
    ('check-tiroot-sum', True): (0, 'e774a6050152af6bda247476e6bd7d2f5e025d104c9866664f1c290a1e1b9f42', ''),
    ('check-tiprog-w2', False): (0, '2da1f11f63469f2eacfba73a4abc43c46e3db60964e7fc9ac629d4f50759d075', ''),
    ('check-tiprog-w2', True): (0, 'd70aba774c698d9da1b6e927dd7f02717068f079d295723012acd4139e0ae3f4', ''),
    ('bound-truth-fin9', False): (0, '9b3a47d3bc8a350dd021e75121fa16acdaac1efcb1fefda202d6bddbbcc70770', ''),
    ('bound-truth-fin9', True): (0, '14dc3b23c6cc05d35280c4bf1e0e66175932896a8f2363cf2b0cfa69234e053d', ''),
    ('bound-truth-w', False): (0, '18bf9cb210604d3f2044f27634b121b1a122464c5b1ae1e629bc1ae44aedc16d', ''),
    ('bound-truth-w', True): (0, 'f49212258173a1bc8f43f42b3929c9ee1de93ccbcca5f480b31e638ed7537f1f', ''),
    ('bound-truth-f5', False): (0, 'c270f4716f61c80c6af8b02168a24bb74d4baf9367da899a37e22592500b1533', ''),
    ('bound-truth-f5', True): (0, '7b8de3cac7a3d0bd9e164451d5fd8a2c617f7d7817abe8ddb264874363a13282', ''),
    ('bound-truth-f8', False): (0, 'cf6d8a3c75a521d584b63eb46254d1da085c2a48d6d22f77a67e7852506db39f', ''),
    ('bound-truth-f8', True): (0, 'c67c84f9e50ddbbe77325ae735f8d1f9a2b0fbdf1de969618395f148b5a26394', ''),
    ('spector', False): (0, '4247cd9234adf6a38b4be14fb7ef99c9c1b1404f3b1bb43d12d1c804d8e3369b', ''),
    ('spector', True): (0, '96de12b0db95087d5f37a054a0240e89a5259311707505e7cd63297165f83a6b', ''),
    ('lab-build', False): (0, 'bcaae07cd1e758b3b78a358f82bf6ef7dffa55bdb5b6a3ff082ef0c24701b3e6', ''),
    ('lab-build', True): (0, 'bbbd149bbd1e53406a14288aedf93a2a4a8aa42438190567069468ac4c8b8424', ''),
    ('lab-retype', False): (0, '30e4500d0498935ccf74f4a39560643f5975fe15627bba9c8310f723d3f80f5f', ''),
    ('lab-retype', True): (0, '08c8a7120ee4d11723408f20be043c26c0fed7bae473fd19d827eb968d5aa145', ''),
    ('lab-reflect', False): (1, 'ece3f10e1cb832ffdc94c16ea3625ec6ccd712dc966f87d0d126a2248d00c947', ''),
    ('lab-reflect', True): (1, 'fa873a944778785e2fb5dec5330d4a2347c2673d46550812b4cd3c0ce363af1f', ''),
    ('lab-chain', False): (0, '7d0da2f966338ce01acb089a94235b91bfff70a4b07140e98cca60a6c98fbad1', ''),
    ('lab-chain', True): (0, '9f504d6ee80b10a489ad4a0e411ab9cbabf2e463375a93539473635bb496757a', ''),
}


def _pinned_run(capsys, name, json_mode):
    code = main(PINNED_ARGVS[name] + ["--json"] * json_mode)
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("json_mode", [False, True], ids=["human", "json"])
@pytest.mark.parametrize("name", PINNED_ARGVS)
def test_every_verb_prints_the_pinned_bytes(tmp_path, monkeypatch, capsys, name, json_mode):
    for env in BUDGET_ENV:
        monkeypatch.delenv(env, raising=False)
    for file, text in PINNED_INPUTS.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert _pinned_run(capsys, name, json_mode) == PINNED_BYTES[name, json_mode]


# --- the cyclic collector -----------------------------------------------------------------


def _ord_or_boom(args):
    if args.op == "succ":
        raise RuntimeError("a verb that raises")
    assert not gc.isenabled()  # the verb runs with the collector paused
    return cli._cmd_ord(args)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys, enabled):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.VERBS, "ord", (cli.VERBS["ord"][0], _ord_or_boom, cli.VERBS["ord"][2]))
    cases = [
        (["ord", "add", "w", "1"], EXIT_OK),
        (["ord", "add", "w^", "1"], EXIT_PARSE),
        (["check", "missing.sx"], EXIT_PARSE),
        (["ti", '(rev (below "w"))'], EXIT_PRECONDITION),
        (["ord", "--bogus"], SystemExit),
        (["ord", "succ", "w"], RuntimeError),
    ]
    was = gc.isenabled()
    try:
        for argv, outcome in cases:
            (gc.enable if enabled else gc.disable)()
            if type(outcome) is int:
                assert main(argv) == outcome, argv
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


class _Collector:
    """A stand-in for `gc` that lets the test order two calls of `main`."""

    def __init__(self, second: threading.Event, reenabled: threading.Event):
        self.enabled, self.second, self.reenabled = True, second, reenabled

    def isenabled(self) -> bool:
        enabled = self.enabled
        if threading.current_thread().name == "second":
            self.second.set()
            self.reenabled.wait(0.5)  # until the first call re-enables it, if nothing holds that back
        return enabled

    def disable(self):
        self.enabled = False

    def enable(self):
        self.enabled = True
        self.reenabled.set()


def test_the_collector_is_restored_when_verbs_run_on_two_threads(monkeypatch, capsys):
    # the second call reads the collector while the first has it paused,
    # and the first returns before the second pauses it: that pause must
    # not be for good
    second, reenabled, entered = threading.Event(), threading.Event(), threading.Event()
    collector = _Collector(second, reenabled)
    monkeypatch.setattr(cli, "gc", collector)

    def verb(args):
        if threading.current_thread().name == "first":
            entered.set()
            second.wait(5)
        return cli._cmd_ord(args)

    monkeypatch.setitem(cli.VERBS, "ord", (cli.VERBS["ord"][0], verb, cli.VERBS["ord"][2]))
    threads = {name: threading.Thread(target=main, args=(["ord", "add", "w", "1"],), name=name)
               for name in ("first", "second")}
    threads["first"].start()
    assert entered.wait(5)
    threads["second"].start()
    for t in threads.values():
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads.values())
    assert collector.enabled
    assert capsys.readouterr().out == "w+1\nw+1\n"


@pytest.mark.parametrize("argv", [["regress", "--json", "--seed", "0"], PINNED_ARGVS["check-tiroot-w2"] + ["--json"]],
                         ids=["regress", "check-tiroot-w2"])
def test_a_verb_leaves_the_collector_little_to_free(tmp_path, monkeypatch, capsys, argv):
    # values are immutable DAGs, so pausing the collector for a verb keeps
    # next to nothing alive that it would have freed
    for file, text in PINNED_INPUTS.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    gc.collect()
    assert main(argv) == EXIT_OK
    assert gc.collect() < 2000
    capsys.readouterr()

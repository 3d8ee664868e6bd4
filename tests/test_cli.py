import json
import os
import subprocess
import sys

import pytest

import proofbench

from proofbench.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, main
from proofbench.derivations import code_text, derive_ti, expand
from proofbench.orderings import FinOrd


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

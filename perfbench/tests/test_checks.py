"""Tests of the benchmark's own checks, plans and mutants.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import cnf  # noqa: E402
import oracle  # noqa: E402
import plan  # noqa: E402
import sx  # noqa: E402
from oracle import below, fin  # noqa: E402

PASS = {"schema": "proofbench/1", "verdict": "pass"}
FAIL = {"schema": "proofbench/1", "verdict": "fail"}


class FakeContext:
    def __init__(self, files=None, mutants=None, nodes=None):
        self.files = files or {}
        self.mutants = mutants or {}
        self._nodes = nodes or {}

    def read(self, name):
        return self.files[name]

    def mutant_path(self, name):
        return self.mutants[name]

    def nodes(self, name):
        return self._nodes[name]


def rank_checks(pairs):
    return [{"element": e, "rank": r, "ok": True} for e, r in pairs]


# --- the CNF oracle, against hand-derived values --------------------------------------


@pytest.mark.parametrize(
    "spec, tag, bound",
    [
        (fin(5), "w*5+1", "w^5*2"),
        (below("w"), "w^2+1", "w^w*2"),
        (below("w^2"), "w^3+1", "w^(w^2)*2"),
        (below("w^w"), "w^w+1", "w^(w^w)*2"),
        (["lex", fin(3), below("w")], "w^2*3+1", "w^(w*3)*2"),
        (["sum", fin(3), below("w")], "w^2+1", "w^w*2"),
    ],
)
def test_root_tag_and_bound(spec, tag, bound):
    t = oracle.root_tag(spec)
    assert cnf.text(t) == tag
    assert cnf.text(cnf.pow2(t)) == bound


@pytest.mark.parametrize("text", ["0", "7", "w", "w+1", "w*2+3", "w^2*3+w+5", "w^(w+1)*2", "w^w", "w^(w^2)*2+1"])
def test_cnf_round_trip(text):
    assert cnf.text(cnf.parse(text)) == text


@pytest.mark.parametrize("text", ["00", "w^1", "w*1", "w+w^2", "w^(2)", "1+0", "w^(w)", "x", ""])
def test_cnf_rejects_non_canonical(text):
    with pytest.raises(ValueError):
        cnf.parse(text)


def test_ranks_follow_the_documented_coding():
    lex = ["lex", fin(3), below("w")]
    assert cnf.text(oracle.rank(lex, oracle.pair(2, ord("7")))) == "w*2+7"
    assert cnf.text(oracle.rank(["sum", fin(3), below("w")], 2 * ord("4") + 1)) == "7"
    assert oracle.rank(below("3"), ord("3")) is None
    assert oracle.first_elements(below("3"), 200) == [48, 49, 50]


# --- each check accepts the right answer and rejects a wrong one --------------------------


def verify(expect, exit_code, records, ctx=None):
    return oracle.verify(expect, exit_code, records, ctx or FakeContext())


def bound_record():
    return {
        "ordering": '(fin 3)',
        "alpha": "w*3+1",
        "bound": "w^3*2",
        "otyp": "3",
        "checks": rank_checks([(0, "0"), (1, "1"), (2, "2")]),
        "verdict": "pass",
    }


def test_bound_check():
    assert verify(("bound", fin(3)), 0, [bound_record(), PASS]) is None
    wrong = bound_record()
    wrong["alpha"] = "w*3+2"
    assert "alpha" in verify(("bound", fin(3)), 0, [wrong, PASS])
    short = bound_record()
    short["checks"] = short["checks"][:2]
    assert "rank checks" in verify(("bound", fin(3)), 0, [short, PASS])
    assert "exit" in verify(("bound", fin(3)), 1, [bound_record(), FAIL])


def truth_record():
    return {
        "ordering": '(below "w^2")',
        "alpha": "w^3+1",
        "beta": "0",
        "gamma": "w^(w^2)*2",
        "claim": "(seq)",
        "checks": rank_checks([(48, "0"), (48, "0"), (49, "1"), (49, "1")]),
        "verdict": "true",
    }


def test_truth_check_on_digit_codes():
    expect = ("truth", below("w^2"), None, 50)  # window 0..49 holds the digits 0 and 1
    assert verify(expect, 0, [truth_record(), PASS]) is None
    wrong = truth_record()
    wrong["checks"][2]["rank"] = "2"
    assert "rank checks" in verify(expect, 0, [wrong, PASS])
    wrong = truth_record()
    wrong["gamma"] = "w^(w^2)"
    assert "gamma" in verify(expect, 0, [wrong, PASS])


def test_truth_check_on_tiprog():
    element = cnf.below_code(cnf.parse("w*3+4"))
    record = {
        "alpha": "w^2*3+w*5",
        "beta": "0",
        "gamma": "w^(w*3+5)",
        "checks": rank_checks([(element, "w*3+4")] * 2),
        "verdict": "true",
    }
    assert verify(("truth", below("w^2"), element, 54), 0, [record, PASS]) is None


def test_ti_check_rejects_tampered_root_tag():
    spec = fin(2)
    text = (
        '(all (seq) "w*2+1" (fs ((0 (or (seq) "w" 2 (axm (seq) "0")))'
        ' (1 (or (seq) "w*2" 2 (axm (seq) "0")))) (tivac (fin 2))))'
    )
    ctx = FakeContext(files={"out.sx": text})
    record = {"written": "out.sx", "root_tag": "w*2+1"}
    assert verify(("ti", spec, "out.sx"), 0, [record, PASS], ctx) is None
    tampered = FakeContext(files={"out.sx": text.replace('"w*2+1"', '"w*2+2"', 1)})
    assert "tagged" in verify(("ti", spec, "out.sx"), 0, [record, PASS], tampered)
    assert "ti record" in verify(("ti", spec, "out.sx"), 0, [{**record, "root_tag": "w*2"}, PASS], ctx)


def check_record(passed=True, path=None):
    return {
        "passed": passed,
        "fail_path": path,
        "fail_reason": None if passed else "x",
        "nodes_visited": 10,
        "max_depth": 3,
        "cut_free": True,
        "truncated": True,
    }


def test_check_and_mutant_checks():
    assert verify(("check_pass", 10), 0, [check_record(), PASS]) is None
    assert "nodes" in verify(("check_pass", 11), 0, [check_record(), PASS])
    ctx = FakeContext(mutants={"m.sx": [1, 2, 3]})
    assert verify(("mutant", "m.sx"), 1, [check_record(False, [1, 2]), FAIL], ctx) is None
    assert verify(("mutant", "m.sx"), 1, [check_record(False, [1, 2, 3]), FAIL], ctx) is None
    assert "rejected at" in verify(("mutant", "m.sx"), 1, [check_record(False, [2]), FAIL], ctx)
    # a mutant reported as passing is a wrong answer, whatever the exit code
    assert verify(("mutant", "m.sx"), 0, [check_record(), PASS], ctx) is not None


def test_lab_checks():
    w2, lex = below("w^2"), ["lex", fin(3), below("w")]
    retype = ("lab_retype", "s", [w2, lex], lex)
    assert verify(retype, 0, [{"name": "s", "otyp": "w*3"}, PASS]) is None
    assert verify(retype, 0, [{"name": "s", "otyp": "w^2"}, PASS]) is not None
    build = ("lab_build", "s", 3)
    assert verify(build, 0, [{"name": "s", "claims": 3, "usable": [0, 1, 2]}, PASS]) is None
    assert verify(build, 0, [{"name": "s", "claims": 3, "usable": [0, 2]}, PASS]) is not None

    chain = ("lab_chain", [("a", w2), ("b", fin(5)), ("c", lex)], below("w^3"))
    record = {
        "entries": [
            {"name": "a", "otyp": "w^2", "witnessed": True},
            {"name": "b", "otyp": "5", "witnessed": False},
            {"name": "c", "otyp": "w*3", "witnessed": None},
        ],
        "descent_ok": False,
        "first_violation": 1,
    }
    assert verify(chain, 1, [record, FAIL]) is None
    assert verify(chain, 1, [{**record, "first_violation": 0}, FAIL]) is not None


def test_culprit_check():
    rev = ["rev", below("w")]
    chain = [48 + i for i in range(10)] + [cnf.below_code(cnf.nat(i)) for i in range(10, 50)]
    record = {
        "name": "m",
        "verdict": "culprit",
        "claim_index": 2,
        "ordering": '(rev (below "w"))',
        "evidence": "asserted",
        "chain": chain,
    }
    expect = ("lab_culprit", "m", 2, rev, 50)
    assert verify(expect, 1, [record, FAIL]) is None
    assert "planted" in verify(expect, 1, [{**record, "claim_index": 1}, FAIL])
    assert "descend" in verify(expect, 1, [{**record, "chain": [chain[0]] + chain[1:][::-1]}, FAIL])


def test_spector_check():
    entries = [(7, below("w^2")), (3, fin(5))]
    record = {
        "alpha": "w^3+1",
        "witness_index": 8,
        "witness_otyp": "w^(w^2)*2+1",
        "witness_spec": '(below "w^(w^2)*2+1")',
        "dominates": [{"index": 7, "otyp": "w^2", "ok": True}, {"index": 3, "otyp": "5", "ok": True}],
        "spot_checks": 55,
        "ok": True,
    }
    assert verify(("spector", entries, 50), 0, [record, PASS]) is None
    assert verify(("spector", entries, 50), 0, [{**record, "alpha": "w*5+1"}, PASS]) is not None


# --- plans --------------------------------------------------------------------------


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_one_seed_one_request_list(workload):
    assert plan.build(workload, 5) == plan.build(workload, 5)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_another_seed_changes_inputs_not_kinds(workload):
    a, b = plan.build(workload, 5), plan.build(workload, 6)
    assert sorted(r.kind for r in a.requests) == sorted(r.kind for r in b.requests)
    assert a.inputs != b.inputs or [r.expect for r in a.requests] != [r.expect for r in b.requests]
    assert len(set(r.kind for r in a.requests)) == len(a.requests)


def test_rep_tower_is_well_formed_text():
    tree = sx.parse(plan.rep_tower(5))
    nodes = plan.preorder(tree)
    assert [n[0] for _, n, _ in nodes] == ["rep"] * 5 + ["axm"]
    assert [n[2].value for _, n, _ in nodes] == ["5", "4", "3", "2", "1", "0"]


# --- mutants --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fin4_text():
    from proofbench.derivations import code_text, derive_ti, expand
    from proofbench.orderings import FinOrd

    return code_text(expand(derive_ti(FinOrd(4))))


@pytest.mark.parametrize("mode", plan.MUTATIONS)
def test_every_mutant_is_rejected_at_its_node_or_above(fin4_text, mode):
    """The program's checker is the witness that each mutation breaks the tree."""
    from proofbench.derivations import check_local, parse_code

    root = sx.parse(fin4_text)
    nodes = plan.preorder(root)
    tried = 0
    for path, node, parent in nodes:
        mutated = plan._mutation(node, parent, mode)
        if mutated is None:
            continue
        saved = node[:]
        node[:] = mutated
        report = check_local(parse_code(sx.dump(root)), 400, 6, require_cut_free=True)
        node[:] = saved
        tried += 1
        assert not report.passed
        assert list(report.fail_path) == list(path)[: len(report.fail_path)]
    assert tried > 10


def test_mutants_come_from_the_tail(fin4_text):
    nodes = plan.preorder(sx.parse(fin4_text))
    tail = {tuple(p) for p, _, _ in nodes[int(len(nodes) * (1 - plan.TAIL_SHARE)):]}
    for mode in plan.MUTATIONS:
        for pick in (0.0, 0.5, 0.99):
            text, path = plan.mutate(fin4_text, mode, pick)
            assert tuple(path) in tail
            assert text != fin4_text + "\n"

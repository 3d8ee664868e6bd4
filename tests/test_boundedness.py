import os
import subprocess
import sys

import pytest

import proofbench

from proofbench.boundedness import (
    BoundednessError,
    bounded_truth,
    eval_claim,
    otyp_bound,
    tc_upper,
)
from proofbench.derivations import AxMNode, derive_ti, expand
from proofbench.formulas import Eq, Num, negate, prog_formula, seq, ti_sequent
from proofbench.orderings import BelowOrd, FinOrd, RevOrd, otyp
from proofbench.ordinals import Cmp, compare, lt, parse, pow2
from proofbench.verdict import Verdict

P = parse


def test_axiom_case_gives_gamma_one():
    spec = FinOrd(1)
    d = AxMNode(seq(negate(prog_formula(spec)), Eq(Num(0), Num(0))), P("0"))
    claim = bounded_truth(d, spec)
    assert claim.gamma == P("1")  # 0 + 2^0
    assert claim.verdict is Verdict.TRUE
    assert claim.beta == P("0") and claim.alpha == P("0")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bounded_truth_on_ti_fin(k):
    spec = FinOrd(k)
    claim = bounded_truth(derive_ti(spec), spec, width_budget=k + 2)
    assert claim.gamma == pow2(parse(f"w*{k}+1") if k > 1 else P("w+1"))
    assert claim.verdict is Verdict.TRUE
    assert claim.case4_checks >= k
    assert all(c.ok for c in claim.rank_checks)


def test_bounded_truth_gamma_matches_spec_example():
    spec = FinOrd(3)
    claim = bounded_truth(derive_ti(spec), spec, width_budget=5)
    assert claim.gamma == P("w^3*2")  # 2^(w*3+1)


def test_bounded_truth_on_expanded_code():
    spec = FinOrd(2)
    claim = bounded_truth(expand(derive_ti(spec)), spec, width_budget=4)
    assert claim.verdict is Verdict.TRUE
    assert claim.gamma == P("w^2*2")


def test_bounded_truth_rejects_bad_roots():
    spec = FinOrd(2)
    with pytest.raises(BoundednessError):
        bounded_truth(AxMNode(seq(Eq(Num(0), Num(0))), P("0")), spec)
    with pytest.raises(BoundednessError):
        bounded_truth(derive_ti(FinOrd(2)), RevOrd(FinOrd(2)))


def test_gamma_is_beta_plus_pow2_alpha():
    # a witness atom of rank 5 pushes beta to 5; gamma = 5 + 2^alpha
    from proofbench.formulas import NotMember
    from proofbench.ordinals import add

    spec = FinOrd(8)
    alpha = P("w")
    d = AxMNode(seq(negate(prog_formula(spec)), NotMember(Num(5)), Eq(Num(0), Num(0))), alpha)
    claim = bounded_truth(d, spec)
    assert claim.beta == P("5")
    assert compare(claim.gamma, add(P("5"), pow2(alpha))) is Cmp.EQ


def test_second_set_variable_rejected():
    from proofbench.formulas import Member

    spec = FinOrd(2)
    d = AxMNode(seq(negate(prog_formula(spec)), Member(Num(0), "Y"), Eq(Num(0), Num(0))), P("0"))
    with pytest.raises(BoundednessError):
        bounded_truth(d, spec)


def test_otyp_bound_examples():
    spec = FinOrd(4)
    cert = otyp_bound(spec, derive_ti(spec), width_budget=6)
    assert cert.alpha == P("w*4+1")
    assert cert.bound == P("w^4*2")
    assert cert.comparison is Cmp.LT
    assert cert.valid
    assert len(cert.checks) == 4 and all(c.ok for c in cert.checks)

    below = BelowOrd(P("w"))
    cert2 = otyp_bound(below, derive_ti(below), eval_budget=50)
    assert cert2.alpha == P("w^2+1")
    assert cert2.bound == P("w^w*2")
    assert cert2.comparison is Cmp.LT
    assert cert2.valid and len(cert2.checks) == 50


def test_otyp_bound_rejects_mutated_certificates():
    spec = FinOrd(3)
    with pytest.raises(BoundednessError):
        otyp_bound(spec, AxMNode(ti_sequent(spec), P("w")))
    with pytest.raises(BoundednessError):
        otyp_bound(spec, derive_ti(FinOrd(4)))


def test_tc_upper():
    assert tc_upper(FinOrd(1)) == P("w+1")
    assert tc_upper(BelowOrd(P("w^2"))) == P("w^3+1")
    values = [tc_upper(s) for s in (FinOrd(2), FinOrd(3), BelowOrd(P("w")), BelowOrd(P("w^2")))]
    for lo, hi in zip(values, values[1:]):
        assert lt(lo, hi)


def test_executable_order_type_bound_family():
    family = [FinOrd(k) for k in range(1, 9)] + [
        BelowOrd(P("w")),
        BelowOrd(P("w*2")),
        BelowOrd(P("w^2")),
    ]
    for spec in family:
        assert compare(otyp(spec), pow2(tc_upper(spec))) is Cmp.LT


def test_eval_claim_segment_shortcut():
    from proofbench.formulas import segment_template, substitute_sequent, field_statement

    spec = BelowOrd(P("w"))
    delta = frozenset({field_statement(spec)})
    good = substitute_sequent(delta, "X", segment_template(spec, P("w*2")))
    assert eval_claim(good, 20) is Verdict.TRUE
    tight = substitute_sequent(delta, "X", segment_template(spec, P("w")))
    assert eval_claim(tight, 20) is Verdict.TRUE  # otyp = w <= w
    short = substitute_sequent(delta, "X", segment_template(spec, P("5")))
    assert eval_claim(short, 20) is Verdict.UNKNOWN  # counterexample code is 53
    assert eval_claim(short, 60) is Verdict.FALSE  # element of rank 5 found


# an All node whose sequent holds two universals: it introduces the trivial
# one, and only the field statement holds of the segment below gamma = w
TWO_UNIVERSALS = """
from proofbench.boundedness import _Walker, bounded_truth
from proofbench.derivations import AllNode, AxMNode, FiniteSupport, OrNode, TiVac, check_local
from proofbench.formulas import (Disj, Eq, ForAll, Member, Num, Var, field_statement,
                                 negated_prog, seq, subst_num)
from proofbench.orderings import FinOrd
from proofbench.ordinals import parse

spec = FinOrd(2)
trivial = ForAll("y", Disj(Eq(Var("y"), Var("y")), Member(Var("y"))))
gamma = seq(negated_prog(spec), field_statement(spec), trivial)
kids = tuple(
    (i, OrNode(gamma | {subst_num(trivial.body, "y", i)}, parse("1"), 1,
               AxMNode(gamma | {Eq(Num(i), Num(i))}, parse("0"))))
    for i in range(3)
)
node = AllNode(gamma, parse("w"), FiniteSupport(kids, TiVac(spec)))
assert check_local(node, 8, 3, require_cut_free=True).passed
print(_Walker(spec, 200, 3).claim(node)[0].value, bounded_truth(node, spec, width_budget=3).verdict.value)
"""


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_an_all_node_is_true_when_any_universal_of_its_sequent_holds(seed):
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    done = subprocess.run([sys.executable, "-c", TWO_UNIVERSALS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "true true\n"

"""Adversarial and compositional cases across module boundaries."""

import pytest

from proofbench.boundedness import bounded_truth, otyp_bound
from proofbench.derivations import (
    AndNode,
    AxMNode,
    RepNode,
    and_invert,
    check_local,
    derive_ti,
    expand,
    root_label,
    step,
    weaken,
)
from proofbench.formulas import Conj, Eq, Member, Num, seq, ti_sequent
from proofbench.lab import Claim, Evidence, TheoryStore, build_precT, retype
from proofbench.orderings import BelowOrd, FinOrd, field_elements, ord_code, otyp, rank
from proofbench.ordinals import ZERO, add, from_int, mul, parse, pow2, succ
from proofbench.spector import CertifiedEntry, sup_tag, witness
from proofbench.verdict import Verdict

P = parse


def _true_atom():
    return Eq(Num(1), Num(1))


def test_deep_rep_tower_is_truncated_not_passed():
    # a bad axiom hidden below the depth budget: the shallow check passes
    # but must say so honestly; a deeper check finds it
    bad = AxMNode(seq(Eq(Num(0), Num(1))), ZERO)
    code = bad
    tag = ZERO
    for _ in range(12):
        tag = succ(tag)
        code = RepNode(seq(Eq(Num(0), Num(1))), tag, code)
    shallow = check_local(code, depth_budget=4, width_budget=4)
    assert shallow.passed and shallow.truncated
    deep = check_local(code, depth_budget=40, width_budget=4)
    assert not deep.passed
    assert deep.fail_path == (1,) * 12


def test_nested_inversions():
    t = _true_atom()
    a, b, c, d = (Eq(Num(i), Num(i)) for i in (2, 3, 4, 5))
    and_ab = AndNode(seq(t, Conj(a, b)), succ(ZERO), AxMNode(seq(t, a), ZERO), AxMNode(seq(t, b), ZERO))
    and_cd = AndNode(seq(t, Conj(c, d)), succ(ZERO), AxMNode(seq(t, c), ZERO), AxMNode(seq(t, d), ZERO))
    outer_conj = Conj(Conj(a, b), Conj(c, d))
    outer = AndNode(seq(t, outer_conj), succ(succ(ZERO)), and_ab, and_cd)
    assert check_local(outer, require_cut_free=True).passed

    inv1 = and_invert(outer, 1, outer_conj)
    assert root_label(inv1).sequent == seq(t, Conj(a, b))
    assert check_local(inv1, require_cut_free=True).passed

    inv2 = and_invert(inv1, 2, Conj(a, b))
    assert root_label(inv2).sequent == seq(t, b)
    report = check_local(inv2, require_cut_free=True)
    assert report.passed, report.fail_reason


def test_bounded_truth_on_weakened_ti():
    spec = FinOrd(2)
    base = derive_ti(spec)
    root = root_label(base)
    lifted = weaken(base, root.sequent, add(root.tag, from_int(5)))
    claim = bounded_truth(lifted, spec, width_budget=4)
    assert claim.alpha == P("w*2+6")
    assert claim.gamma == pow2(P("w*2+6"))
    assert claim.verdict is Verdict.TRUE
    assert claim.case4_checks >= 2


def test_spector_accepts_weakened_certificates():
    spec = FinOrd(2)
    cert = weaken(derive_ti(spec), ti_sequent(spec), mul(P("w"), from_int(5)))
    entries = [CertifiedEntry(0, spec, cert)]
    assert sup_tag(entries) == P("w*5")
    w = witness(entries)
    assert w.order_type == P("w^5+1")


def test_lab_accepts_weakened_certificates():
    spec = BelowOrd(P("w"))
    cert = weaken(derive_ti(spec), ti_sequent(spec), P("w^3"))
    store = TheoryStore("t", (Claim(spec, Evidence.CHECKED, cert),))
    prec = build_precT(store, BelowOrd(P("w^2")))
    assert retype(prec) == P("w")


def test_finite_below_bound():
    spec = BelowOrd(from_int(3))
    assert field_elements(spec, 10) == [ord_code(from_int(i)) for i in range(3)]
    assert otyp(spec) == from_int(3)
    assert rank(spec, ord_code(from_int(2))) == from_int(2)
    tree = expand(derive_ti(spec))
    assert check_local(tree, depth_budget=60, width_budget=60, require_cut_free=True).passed
    cert = otyp_bound(spec, tree, width_budget=60)
    assert cert.valid and cert.alpha == P("w*3+1")


def test_expanded_and_lazy_bound_agree():
    spec = FinOrd(3)
    lazy = bounded_truth(derive_ti(spec), spec, width_budget=5)
    explicit = bounded_truth(expand(derive_ti(spec)), spec, width_budget=5)
    assert lazy.gamma == explicit.gamma
    assert lazy.verdict is explicit.verdict is Verdict.TRUE


def test_inversion_of_sequent_with_two_conjunctions_requires_target():
    t = _true_atom()
    c1, c2 = Conj(Eq(Num(1), Num(1)), Eq(Num(2), Num(2))), Conj(Eq(Num(3), Num(3)), Eq(Num(4), Num(4)))
    node = AxMNode(seq(t, c1, c2), ZERO)
    from proofbench.derivations import DerivationError

    with pytest.raises(DerivationError):
        and_invert(node, 1)
    inv = and_invert(node, 1, c1)
    assert c2 in root_label(inv).sequent
    assert check_local(inv).passed


def test_member_atoms_do_not_fake_axm():
    # set-variable atoms never certify an AxM axiom
    bad = AxMNode(seq(Member(Num(3))), ZERO)
    report = check_local(bad)
    assert not report.passed


def test_rank_surjectivity_on_fin_and_below():
    import random

    from proofbench.gens import random_efree
    from proofbench.orderings import element_of_rank
    from proofbench.ordinals import lt

    rng = random.Random(21)
    for spec in (FinOrd(6), BelowOrd(P("w*2")), BelowOrd(P("w^2"))):
        top = otyp(spec)
        hits = 0
        while hits < 50:
            rho = random_efree(rng, depth=1, max_terms=2, max_coeff=4)
            if not lt(rho, top):
                continue
            hits += 1
            element = element_of_rank(spec, rho)
            assert element is not None
            assert rank(spec, element) == rho


def test_checker_is_thread_safe_on_shared_codes():
    from concurrent.futures import ThreadPoolExecutor

    code = derive_ti(BelowOrd(P("w")))
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: check_local(code, 24, 8, True), range(8)))
    assert all(r.passed for r in reports)
    assert len({(r.nodes_visited, r.nodes_checked, r.max_depth, r.truncated) for r in reports}) == 1

import dataclasses
import re

import pytest

from proofbench.derivations import (
    NAT,
    AndNode,
    AxMNode,
    CutNode,
    DerivationError,
    RepNode,
    RuleTag,
    TiProg,
    TiRoot,
    and_invert,
    check_local,
    code_text,
    derive_ti,
    expand,
    make_rep,
    parse_code,
    premises,
    root_label,
    step,
    weaken,
    with_premises,
)
from proofbench.formulas import (
    Conj,
    Eq,
    Member,
    NotMember,
    Num,
    Plus,
    negate,
    seq,
    ti_sequent,
)
from proofbench.orderings import BelowOrd, FinOrd, RevOrd
from proofbench.ordinals import ZERO, add, compare, from_int, le, parse, succ

P = parse
num = Num


def tiny_axm(extra=()):
    return AxMNode(seq(Eq(Plus(num(2), num(2)), num(4)), *extra), ZERO)


# --- step contracts


def test_step_axm():
    s = step(tiny_axm())
    assert s.label.rule is RuleTag.AXM
    assert s.indices == ()


def test_step_tiroot_shape():
    s = step(TiRoot(FinOrd(2)))
    assert s.label.sequent == ti_sequent(FinOrd(2))
    assert s.label.rule is RuleTag.ALL
    assert s.label.tag == P("w*2+1")
    assert s.indices is NAT


def test_step_tiprog_tags():
    for spec, n, expected in [
        (FinOrd(3), 0, "w"),
        (FinOrd(3), 2, "w*3"),
        (BelowOrd(P("w")), 5, None),
    ]:
        if isinstance(spec, BelowOrd):
            from proofbench.orderings import ord_code

            n = ord_code(from_int(5))
            expected_tag = add(parse("w*5"), P("w"))  # w*(5+1)
        else:
            expected_tag = P(expected)
        s = step(TiProg(spec, n))
        assert s.label.tag == expected_tag
        assert s.label.rule is RuleTag.EX


def test_step_rep_contract():
    base = tiny_axm()
    rep = make_rep(base, succ(ZERO))
    s = step(rep)
    assert s.label.sequent == root_label(base).sequent
    assert s.label.rule is RuleTag.REP
    assert compare(root_label(base).tag, s.label.tag).value == -1
    with pytest.raises(DerivationError):
        make_rep(base, ZERO)


# --- checker on canonical builders


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_derive_ti_fin_passes(k):
    report = check_local(derive_ti(FinOrd(k)), depth_budget=100, width_budget=k + 3,
                         require_cut_free=True)
    assert report.passed, (report.fail_path, report.fail_reason)
    assert report.cut_free


def test_derive_ti_below_omega_passes_budgeted():
    report = check_local(derive_ti(BelowOrd(P("w"))), depth_budget=24, width_budget=8,
                         require_cut_free=True)
    assert report.passed, (report.fail_path, report.fail_reason)
    assert report.truncated


def test_standalone_ti_sub_derivation_passes():
    report = check_local(TiProg(FinOrd(3), 2), depth_budget=60, width_budget=6,
                         require_cut_free=True)
    assert report.passed, report.fail_reason


def test_derive_ti_rejects_bad_specs():
    with pytest.raises(DerivationError):
        derive_ti(RevOrd(FinOrd(3)))
    with pytest.raises(DerivationError):
        derive_ti(BelowOrd(P("E")))


def test_expand_matches_lazy_and_passes():
    lazy = derive_ti(FinOrd(3))
    explicit = expand(lazy)
    assert root_label(explicit) == root_label(lazy)
    report = check_local(explicit, depth_budget=100, width_budget=6, require_cut_free=True)
    assert report.passed, (report.fail_path, report.fail_reason)
    # expansion preserves the child labels along the window
    s_lazy, s_exp = step(lazy), step(explicit)
    for i in range(6):
        assert root_label(s_lazy.child(i)) == root_label(s_exp.child(i))


def test_expand_round_trips_through_certificate_text():
    explicit = expand(derive_ti(FinOrd(2)))
    assert parse_code(code_text(explicit)) == explicit
    lazy = TiRoot(FinOrd(2))
    assert parse_code(code_text(lazy)) == lazy
    assert code_text(lazy) == "(tiroot (fin 2))"


# --- checker sensitivity


def _raise_tag(node):
    return dataclasses.replace(node, tag=succ(node.tag))


def test_checker_rejects_raised_child_tag():
    explicit = expand(derive_ti(FinOrd(2)))
    fam = explicit.family
    i0, child0 = fam.entries[0]
    bad_child = dataclasses.replace(child0, tag=explicit.tag)
    bad = dataclasses.replace(
        explicit,
        family=dataclasses.replace(fam, entries=((i0, bad_child),) + fam.entries[1:]),
    )
    report = check_local(bad, depth_budget=100, width_budget=5)
    assert not report.passed
    assert report.fail_path is not None
    assert "descend" in report.fail_reason


def test_checker_rejects_false_axm():
    bad = AxMNode(seq(Eq(num(0), num(1))), ZERO)
    report = check_local(bad)
    assert not report.passed and report.fail_path == ()


def test_checker_rejects_cut_when_cut_free_required():
    a = Eq(num(1), num(1))
    cut = CutNode(seq(Eq(num(2), num(2))), succ(ZERO),
                  AxMNode(seq(Eq(num(2), num(2)), a), ZERO),
                  AxMNode(seq(Eq(num(2), num(2)), negate(a)), ZERO))
    ok = check_local(cut)
    assert ok.passed and not ok.cut_free
    bad = check_local(cut, require_cut_free=True)
    assert not bad.passed


def test_checker_rejects_wrong_rep():
    base = tiny_axm()
    rep = RepNode(seq(Eq(num(5), num(5))), succ(ZERO), base)
    report = check_local(rep)
    assert not report.passed


# --- transformations


def test_weaken_through_repetition():
    # a repetition premise must equal its conclusion, so weakening a
    # Rep-rooted code has to rewrite the child as well
    base = tiny_axm()
    rep = make_rep(base, succ(ZERO))
    grown = weaken(rep, root_label(rep).sequent | {Eq(num(8), num(8))}, succ(succ(ZERO)))
    report = check_local(grown, require_cut_free=True)
    assert report.passed, report.fail_reason
    s = step(grown)
    assert s.label.rule is RuleTag.REP
    assert root_label(s.child(1)).sequent == s.label.sequent


def test_weaken_identity_and_growth():
    d = derive_ti(FinOrd(2))
    root = root_label(d)
    same = weaken(d, root.sequent, root.tag)
    assert root_label(same) == root
    bigger = weaken(d, root.sequent | {Eq(num(7), num(7))}, succ(root.tag))
    report = check_local(bigger, depth_budget=100, width_budget=4, require_cut_free=True)
    assert report.passed, report.fail_reason
    with pytest.raises(DerivationError):
        weaken(d, seq(Eq(num(1), num(1))), succ(root.tag))
    with pytest.raises(DerivationError):
        weaken(d, root.sequent, ZERO)


def test_and_invert_single_step():
    # derive Delta, A and B by the and-rule from axiomatic premises
    delta = seq(Eq(num(3), num(3)))
    a, b = Eq(num(1), num(1)), Eq(num(2), num(2))
    conj = Conj(a, b)
    d = AndNode(delta | {conj}, succ(ZERO),
                AxMNode(delta | {a}, ZERO),
                AxMNode(delta | {b}, ZERO))
    inv = and_invert(d, 1)
    lbl = root_label(inv)
    assert lbl.sequent == delta | {a}
    assert le(lbl.tag, root_label(d).tag)
    report = check_local(inv, require_cut_free=True)
    assert report.passed, report.fail_reason


def test_and_invert_requires_conjunction():
    with pytest.raises(DerivationError):
        and_invert(tiny_axm(), 1)


def test_and_invert_on_ti_body():
    # the existential premise inside the canonical TI derivation holds the
    # guard conjunction; inverting branch 2 exposes the AxL leaf
    spec = FinOrd(2)
    core = step(TiProg(spec, 1)).child(1)
    conj = next(f for f in root_label(core).sequent if isinstance(f, Conj))
    inv2 = and_invert(core, 2, conj)
    lbl = root_label(inv2)
    assert NotMember(num(1)) in lbl.sequent
    assert Member(num(1)) in lbl.sequent
    report = check_local(inv2, depth_budget=60, width_budget=5, require_cut_free=True)
    assert report.passed, report.fail_reason
    inv1 = and_invert(core, 1, conj)
    report1 = check_local(inv1, depth_budget=60, width_budget=5, require_cut_free=True)
    assert report1.passed, report1.fail_reason


def test_inversion_rejects_cut_inputs():
    a = Eq(num(1), num(1))
    delta = seq(Conj(a, a))
    cut = CutNode(delta, succ(succ(ZERO)),
                  AxMNode(delta | {a}, ZERO),
                  AxMNode(delta | {negate(a)} | {a}, ZERO))
    inv = and_invert(cut, 1)
    with pytest.raises(DerivationError):
        step(inv)


# --- shape table: premises and the iterative decoder


def test_premises_round_trip_and_match_step():
    tree = expand(derive_ti(FinOrd(3)))
    stack = [tree]
    while stack:
        node = stack.pop()
        kids = premises(node)
        assert with_premises(node, dict(kids)) == node
        s = step(node)
        if s.indices is not NAT:
            assert tuple(kids) == s.indices
            assert all(s.child(i) is c for i, c in kids.items())
        stack.extend(kids.values())
    assert premises(TiRoot(FinOrd(3))) == {} and premises(TiProg(FinOrd(3), 1)) == {}


def test_decoder_is_not_bounded_by_the_stack():
    # nest through fs entries and mono children as well as premises
    text = '(axm (seq (= 1 1)) "0")'
    for i in range(1, 3001):
        if i % 3 == 0:
            text = f'(rep (seq (= 1 1)) "{i}" {text})'
        else:
            text = f'(all (seq (= 1 1)) "{i}" (fs ((0 {text})) (tivac (fin 1))))'
    code = parse_code(f'(mono {text} (seq (= 1 1) (= 2 2)) "3001")')
    code, depth = code.child, 0
    while premises(code):
        (code,) = premises(code).values()
        depth += 1
    assert depth == 3000 and code == AxMNode(seq(Eq(num(1), num(1))), ZERO)


@pytest.mark.parametrize(
    "text, named",
    [
        ("(foo 1 2)", "'foo' ...) with 2 argument(s)"),
        ("(rep (seq) \"1\")", "'rep' ...) with 2 argument(s)"),
        ("(all (seq) \"1\" (tivac (fin 1)))", "child family: ('tivac' ...) with 1 argument(s)"),
        ("((((1))))", "(a list ...) with 0 argument(s)"),
    ],
)
def test_decode_errors_name_head_and_arity(text, named):
    with pytest.raises(DerivationError, match=re.escape(named)):
        parse_code(text)

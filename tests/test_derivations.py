import dataclasses
import os
import random
import re
import subprocess
import sys

import pytest

import proofbench
from proofbench import derivations, gens, regress
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
from proofbench.orderings import BelowOrd, FinOrd, LexOrd, RevOrd, SumOrd, field_elements
from proofbench.ordinals import ZERO, Cmp, add, compare, from_int, le, parse, succ

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


# --- the checker against the plain tree walk


def reference_check(code, depth_budget, width_budget, require_cut_free):
    """check_local as a plain tree walk: every copy of a shared code is
    walked again and every node stepped twice.  Returns the seven fields
    of its CheckReport."""
    nodes = max_depth = 0
    cut_free, truncated = True, False
    stack = [(code, 0, ())]

    def fail(path, reason):
        return (False, path, reason, nodes, max_depth, cut_free, truncated)

    while stack:
        node, depth, path = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        try:
            s = step(node)
        except derivations._DECODE_ERRORS as e:
            return fail(path, f"decode error: {e}")
        if s.label.rule is RuleTag.CUT:
            cut_free = False
            if require_cut_free:
                return fail(path, "cut rule used in a cut-free check")
        if s.indices is NAT:
            idxs = list(range(width_budget))
            truncated = True
        else:
            idxs = list(s.indices)
        kids, children = {}, []
        try:
            for i in idxs:
                c = s.child(i)
                kids[i] = step(c).label
                children.append((i, c))
        except derivations._DECODE_ERRORS as e:
            return fail(path, f"decode error in a premise: {e}")
        reason = derivations._clause_ok(s.label, kids, s.indices if s.indices is NAT else tuple(idxs))
        if reason is not None:
            return fail(path, reason)
        for i, lab in kids.items():
            if compare(lab.tag, s.label.tag) is not Cmp.LT:
                return fail(path + (i,), "ordinal tag fails to descend")
        if depth + 1 <= depth_budget:
            for i, c in reversed(children):
                stack.append((c, depth + 1, path + (i,)))
        elif children:
            truncated = True
    return (True, None, None, nodes, max_depth, cut_free, truncated)


def assert_same_as_tree_walk(code, depth_budget, width_budget, require_cut_free=False):
    report = check_local(code, depth_budget, width_budget, require_cut_free)
    seven = dataclasses.astuple(report)[:7]
    assert seven == reference_check(code, depth_budget, width_budget, require_cut_free), code_text(code)
    assert report.nodes_checked <= report.nodes_visited
    return report


@pytest.mark.parametrize("k", range(1, 9))
def test_checker_matches_tree_walk_on_compact_fin(k):
    for depth in (2, 3, 5, 400):
        for cut_free in (False, True):
            assert_same_as_tree_walk(TiRoot(FinOrd(k)), depth, k + 2, cut_free)


@pytest.mark.parametrize(
    "spec",
    [BelowOrd(P("w")), BelowOrd(P("w^2")), SumOrd(FinOrd(2), BelowOrd(P("w"))),
     LexOrd(BelowOrd(P("w")), FinOrd(2))],
    ids=["w", "w^2", "sum", "lex"],
)
def test_checker_matches_tree_walk_on_infinite_fields(spec):
    for width in (3, 5):
        for depth in (4, 9, 16):
            assert_same_as_tree_walk(TiRoot(spec), depth, width, True)
            for n in field_elements(spec, 4):
                assert_same_as_tree_walk(TiProg(spec, n), depth, width)


def test_checker_matches_tree_walk_on_written_out_trees_and_mutants():
    for k in range(3, 7):
        tree = expand(derive_ti(FinOrd(k)))
        for depth in (7, 400):
            assert_same_as_tree_walk(tree, depth, k + 2, True)
    rng = random.Random(5)
    tree = expand(derive_ti(FinOrd(5)))
    nodes = list(regress._tree_nodes(tree))
    caught = 0
    while caught < 30:
        path, node = nodes[rng.randrange(len(nodes))]
        kind = rng.randrange(3)
        if kind == 0 and path:
            parent = next(n for p, n in nodes if p == path[:-1])
            mutant = dataclasses.replace(node, tag=parent.tag)
        else:
            mutant = (regress._principal_delete if kind == 1 else regress._retag_rule)(node)
        if mutant is None:
            continue
        report = assert_same_as_tree_walk(regress._rebuild(tree, path, mutant), 400, 7, True)
        caught += not report.passed
    assert caught == 30


@pytest.mark.parametrize(
    "spec, n", [(FinOrd(3), 2), (FinOrd(5), 4), (BelowOrd(P("w^2")), None)], ids=["fin3", "fin5", "w^2"]
)
def test_checker_matches_tree_walk_on_a_builder_at_two_depths(spec, n):
    # the same tiprog one level below an and/cut node and two levels below
    # it (under a rep); a budget of its height + 1 cuts the deeper copy
    # and not the shallower one
    x = TiProg(spec, field_elements(spec, 3)[-1] if n is None else n)
    lab = root_label(x)
    rep = RepNode(lab.sequent, succ(lab.tag), x)
    conj = Conj(Eq(num(1), num(1)), Eq(num(2), num(2)))
    tag = succ(succ(lab.tag))
    height = check_local(x, 400, 4).max_depth
    for top in (AndNode(lab.sequent | {conj}, tag, x, rep), AndNode(lab.sequent | {conj}, tag, rep, x),
                CutNode(lab.sequent, tag, x, rep), CutNode(lab.sequent, tag, rep, x)):
        for depth in (1, 2, 3, *range(height - 2, height + 4)):
            for cut_free in (False, True):
                assert_same_as_tree_walk(top, depth, 4, cut_free)


def test_checker_matches_tree_walk_on_random_codes():
    rng = random.Random(11)
    for _ in range(500):
        code = gens.random_code(rng)
        assert_same_as_tree_walk(code, rng.randint(1, 8), rng.randint(1, 6), rng.random() < 0.5)


WORK_SCRIPT = """
from proofbench.derivations import TiRoot, check_local
from proofbench.orderings import FinOrd
for k in (10, 12):
    r = check_local(TiRoot(FinOrd(k)), 400, k + 2, True)
    print(r.passed, r.nodes_visited, r.nodes_checked)
"""


def test_builder_subtrees_are_checked_once():
    # the tree walk evaluates a clause at each of its nodes; reusing the
    # passed builder subtrees leaves a small share, the same under any
    # hash seed
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    counts = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", WORK_SCRIPT], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        counts.add(out.stdout)
    (text,) = counts
    (ok10, visited10, checked10), (ok12, visited12, checked12) = (line.split() for line in text.splitlines())
    assert ok10 == ok12 == "True"
    assert int(visited10) == 29_692 and int(checked10) <= 2_000
    assert int(visited12) == 135_164 and int(checked12) <= 3_000


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

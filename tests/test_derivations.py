import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter

import pytest

import proofbench
from proofbench import derivations, formulas, gens, regress
from proofbench.derivations import (
    NAT,
    AllNode,
    AndNode,
    AxMNode,
    CheckReport,
    CutNode,
    DerivationError,
    ExNode,
    FiniteSupport,
    NodeLabel,
    OrNode,
    PredKids,
    PredVac,
    RepNode,
    RuleTag,
    TiKids,
    TiProg,
    TiRoot,
    TiVac,
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
    Disj,
    Eq,
    Exists,
    ForAll,
    Member,
    NotMember,
    Num,
    Plus,
    Var,
    field_statement,
    negate,
    prog_formula,
    seq,
    subst_num,
    ti_sequent,
)
from proofbench.orderings import (
    BelowOrd,
    FinOrd,
    LexOrd,
    RevOrd,
    SumOrd,
    field_elements,
    in_field,
    less,
    ord_code,
    rank,
)
from proofbench.ordinals import OMEGA, ONE, ZERO, Cmp, add, compare, from_int, le, mul, parse, succ
from proofbench.sexpr import replace

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
        derive_ti(RevOrd(BelowOrd(P("w"))))
    with pytest.raises(DerivationError):
        derive_ti(BelowOrd(P("E")))
    # a finite reversal is a well-order, with a certificate like any other
    report = check_local(expand(derive_ti(RevOrd(FinOrd(3)))), 100, 6, require_cut_free=True)
    assert report.passed, (report.fail_path, report.fail_reason)


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
    return replace(node, tag=succ(node.tag))


def test_checker_rejects_raised_child_tag():
    explicit = expand(derive_ti(FinOrd(2)))
    fam = explicit.family
    i0, child0 = fam.entries[0]
    bad_child = replace(child0, tag=explicit.tag)
    bad = replace(
        explicit,
        family=replace(fam, entries=((i0, bad_child),) + fam.entries[1:]),
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


def rep_tower(levels: int, bottom: str = '(axm (seq (= 1 1)) "0")'):
    """`levels` repetitions of (= 1 1) over `bottom`; tags count down to 1."""
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    return parse_code(head + bottom + ")" * levels)


@pytest.mark.parametrize(
    "bottom, path, reason",
    [
        ('(axm (seq (= 1 1)) "5")', (1,) * 3000, "ordinal tag fails to descend"),
        ('(axm (seq (= 2 2)) "0")', (1,) * 2999, "repetition premise must repeat the sequent"),
    ],
)
def test_a_fault_at_the_bottom_of_a_deep_tower_keeps_its_whole_path(bottom, path, reason):
    report = check_local(rep_tower(3000, bottom), depth_budget=4000)
    assert (report.passed, report.fail_path, report.fail_reason) == (False, path, reason)
    assert report.nodes_visited == len(path) + (reason != "ordinal tag fails to descend")


def test_checking_a_deep_tower_holds_memory_linear_in_its_depth(peak_bytes):
    # each open node kept its own copy of its path: 36.6 MB at 3,000 levels
    code = rep_tower(3000)
    assert check_local(code, depth_budget=4000).passed
    assert peak_bytes(lambda: check_local(code, depth_budget=4000)) < 2_000_000


A, B, C = (Eq(num(k), num(k)) for k in (1, 2, 3))
SOME = ForAll("x", Eq(Var("x"), Var("x")))  # instance k is (= k k)
ONE_OF = Exists("x", Eq(Var("x"), num(3)))  # instance k is (= k 3)


# each introduction rule's sequent, premise indices and premise sequents
@pytest.mark.parametrize(
    "rule, delta, indices, kids, reason",
    [
        (RuleTag.AND, Conj(A, B), (1,), {1: A}, "And wants premise indices {1,2}"),
        (RuleTag.AND, Conj(A, B), (1, 2), {1: A, 2: C}, "no conjunction in the sequent matches the premises"),
        (RuleTag.AND, Conj(A, B), (1, 2), {1: A, 2: B}, None),
        (RuleTag.OR, Disj(A, B), (3,), {3: A}, "Or wants a single premise indexed 1 or 2"),
        (RuleTag.OR, Disj(A, B), (1,), {1: B}, "no disjunction in the sequent matches the premise"),
        (RuleTag.OR, Disj(A, B), (2,), {2: B}, None),
        (RuleTag.ALL, SOME, (1,), {1: A}, "All wants premises for every natural"),
        (RuleTag.ALL, SOME, NAT, {1: A, 2: C}, "no universal formula matches the sampled premises"),
        (RuleTag.ALL, SOME, NAT, {1: A, 2: B}, None),
        (RuleTag.EX, ONE_OF, (-1,), {-1: A}, "Ex wants a single premise indexed by its witness"),
        (RuleTag.EX, ONE_OF, (3,), {3: A}, "no existential formula matches the premise"),
        (RuleTag.EX, ONE_OF, (3,), {3: C}, None),
    ],
)
def test_introduction_clauses_give_their_reasons(rule, delta, indices, kids, reason):
    labels = {i: NodeLabel(seq(delta, f), RuleTag.AXM, ZERO) for i, f in kids.items()}
    assert derivations._clause_ok(NodeLabel(seq(delta), rule, ONE), labels, indices) == reason


# --- the checker against the plain tree walk


def first_seven(report) -> tuple:
    """The report's first seven fields, those the reference checkers give."""
    return tuple(getattr(report, name) for name in report.__match_args__[:7])


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
    seven = first_seven(report)
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


def mutants(tree, rng):
    """Seeded mutants of an explicit tree without end: a child retagged at
    its parent's tag, a principal formula deleted, or a rule swapped."""
    nodes = list(regress._tree_nodes(tree))
    while True:
        path, node = nodes[rng.randrange(len(nodes))]
        kind = rng.randrange(3)
        if kind == 0 and path:
            parent = next(n for p, n in nodes if p == path[:-1])
            mutant = replace(node, tag=parent.tag)
        else:
            mutant = (regress._principal_delete if kind == 1 else regress._retag_rule)(node)
        if mutant is not None:
            yield regress._rebuild(tree, path, mutant)


def test_checker_matches_tree_walk_on_written_out_trees_and_mutants():
    for k in range(3, 7):
        tree = expand(derive_ti(FinOrd(k)))
        for depth in (7, 400):
            assert_same_as_tree_walk(tree, depth, k + 2, True)
    caught = 0
    for mutant in mutants(expand(derive_ti(FinOrd(5))), random.Random(5)):
        report = assert_same_as_tree_walk(mutant, 400, 7, True)
        caught += not report.passed
        # read back from text, the mutant is a DAG that shares all but the changed path
        assert_same_as_tree_walk(parse_code(code_text(mutant)), 400, 7, True)
        if caught == 30:
            break


@pytest.mark.parametrize("k", range(3, 8))
def test_checker_matches_tree_walk_on_written_out_text(k):
    # read from text, a written-out certificate is a DAG: each repeated
    # sub-derivation is one object, met under many parents
    code = parse_code(code_text(expand(derive_ti(FinOrd(k)))))
    for depth in (7, 400):
        for cut_free in (False, True):
            report = assert_same_as_tree_walk(code, depth, k + 2, cut_free)
            assert report.passed
    assert report.nodes_checked < report.nodes_visited


def _bad_tag_deep_inside(x):
    """x with the first of its deepest nodes retagged at its parent's tag,
    which fails to descend."""
    nodes = list(regress._tree_nodes(x))
    path, leaf = max(nodes, key=lambda pn: len(pn[0]))
    parent = next(n for p, n in nodes if p == path[:-1])
    return regress._rebuild(x, path, replace(leaf, tag=parent.tag))


@pytest.mark.parametrize(
    "spec, n, form",
    [(FinOrd(3), 2, "builder"), (FinOrd(5), 4, "builder"), (BelowOrd(P("w^2")), None, "builder"),
     (FinOrd(3), 2, "written-out"), (FinOrd(5), 4, "written-out"),
     (FinOrd(3), 2, "failing"), (FinOrd(5), 4, "failing")],
    ids=["fin3", "fin5", "w^2", "fin3-written-out", "fin5-written-out", "fin3-written-out-failing",
         "fin5-written-out-failing"],
)
def test_checker_matches_tree_walk_on_a_builder_at_two_depths(spec, n, form):
    # the same tiprog one level below an and/cut node and two levels below
    # it (under a rep); a budget of its height + 1 cuts the deeper copy
    # and not the shallower one.  Builder or written out, both copies are
    # one value, memoized by value.  When it fails, the first copy met on
    # the walk gives the fail_path.
    x = TiProg(spec, field_elements(spec, 3)[-1] if n is None else n)
    height = check_local(x, 400, 4).max_depth
    if form != "builder":
        x = expand(x)
    if form == "failing":
        x = _bad_tag_deep_inside(x)
    lab = root_label(x)
    rep = RepNode(lab.sequent, succ(lab.tag), x)
    conj = Conj(Eq(num(1), num(1)), Eq(num(2), num(2)))
    tag = succ(succ(lab.tag))
    for top in (AndNode(lab.sequent | {conj}, tag, x, rep), AndNode(lab.sequent | {conj}, tag, rep, x),
                CutNode(lab.sequent, tag, x, rep), CutNode(lab.sequent, tag, rep, x)):
        for depth in (1, 2, 3, *range(height - 2, height + 4)):
            for cut_free in (False, True):
                report = assert_same_as_tree_walk(top, depth, 4, cut_free)
                if depth > height + 1 and not (cut_free and type(top) is CutNode):
                    assert report.passed is (form != "failing")


def test_checker_matches_tree_walk_on_random_codes():
    rng = random.Random(11)
    for _ in range(500):
        code = gens.random_code(rng)
        assert_same_as_tree_walk(code, rng.randint(1, 8), rng.randint(1, 6), rng.random() < 0.5)


# --- the checker against its memo keyed by remaining depth


def per_depth_check(code, depth_budget, width_budget, require_cut_free):
    """check_local with every passed subtree keyed by its node and the
    remaining depth, so reused only at the depth it was walked at.
    Returns the seven fields of its CheckReport."""
    nodes = max_depth = 0
    cut_free, truncated = True, False
    passed, frames = {}, []
    stack = [(code, None, 0, ())]

    def fail(path, reason):
        md, cf, tr = max_depth, cut_free, truncated
        for *_, outer_md, outer_cf, outer_tr in frames:
            md, cf, tr = max(md, outer_md), cf and outer_cf, tr or outer_tr
        return (False, path, reason, nodes, md, cf, tr)

    while stack:
        node, s, depth, path = stack.pop()
        if node is None:
            key, top, before, outer_md, outer_cf, outer_tr = frames.pop()
            passed[key] = (nodes - before, max_depth - top, cut_free, truncated)
            max_depth = max(max_depth, outer_md)
            cut_free, truncated = cut_free and outer_cf, truncated or outer_tr
            continue
        key = (node, depth_budget - depth)
        seen = passed.get(key)
        if seen is not None:
            nodes += seen[0]
            max_depth = max(max_depth, depth + seen[1])
            cut_free, truncated = cut_free and seen[2], truncated or seen[3]
            continue
        frames.append((key, depth, nodes, max_depth, cut_free, truncated))
        stack.append((None, None, depth, path))
        max_depth, cut_free, truncated = depth, True, False
        nodes += 1
        max_depth = max(max_depth, depth)
        if s is None:
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
                cs = step(c)
                kids[i] = cs.label
                children.append((i, c, cs))
        except derivations._DECODE_ERRORS as e:
            return fail(path, f"decode error in a premise: {e}")
        reason = derivations._clause_ok(s.label, kids, s.indices if s.indices is NAT else tuple(idxs))
        if reason is not None:
            return fail(path, reason)
        for i, lab in kids.items():
            if compare(lab.tag, s.label.tag) is not Cmp.LT:
                return fail(path + (i,), "ordinal tag fails to descend")
        if depth + 1 <= depth_budget:
            for i, c, cs in reversed(children):
                stack.append((c, cs, depth + 1, path + (i,)))
        elif children:
            truncated = True
    return (True, None, None, nodes, max_depth, cut_free, truncated)


def assert_same_as_per_depth(code, depth_budget, width_budget, require_cut_free=False):
    report = check_local(code, depth_budget, width_budget, require_cut_free)
    seven = first_seven(report)
    assert seven == per_depth_check(code, depth_budget, width_budget, require_cut_free), (
        code_text(code), depth_budget, width_budget, require_cut_free)
    return report


DEPTHS = [*range(41), 400]


@pytest.mark.parametrize(
    "spec, compact, written",
    [(FinOrd(4), 3, 3), (BelowOrd(P("w")), ord_code(P("4")), ord_code(P("4"))),
     (BelowOrd(P("w^2")), ord_code(P("w+1")), ord_code(P("3"))),
     (BelowOrd(P("w^w")), ord_code(P("w^2")), ord_code(P("2"))), (SumOrd(FinOrd(2), BelowOrd(P("w"))), 2, 2)],
    ids=["fin", "w", "w^2", "w^w", "sum"],
)
def test_checker_matches_the_per_depth_memo(spec, compact, written):
    # compact codes, a written-out sub-derivation read back from text, and
    # seeded mutants of it.  Between them the codes meet every width 1..54
    # and every depth budget 0..40 and 400, with cut-free on and off; the
    # field shows in the raw window at widths 49..54 on `below` specs.
    tree = expand(TiProg(spec, written))
    rng = random.Random(code_text(TiRoot(spec)))
    codes = [TiRoot(spec), TiProg(spec, compact), parse_code(code_text(tree)), *(parse_code(code_text(m)) for m in itertools.islice(mutants(tree, rng), 3))]
    if type(spec) is FinOrd:
        codes.append(parse_code(code_text(expand(TiRoot(spec)))))
    for c, code in enumerate(codes):
        points = [(rng.choice(DEPTHS), w) for w in range(1 + c, 55, len(codes))]
        points += [(d, rng.randint(48, 54)) for d in DEPTHS[c::len(codes)]] + [(400, 54)]
        for depth, width in points:
            assert_same_as_per_depth(code, depth, width, rng.random() < 0.5)


def _shared_at_two_depths(x):
    """An And node over `rep x` and `x`: the walk meets x first two levels
    down, then one level down."""
    lab = root_label(x)
    conj = Conj(Eq(num(1), num(1)), Eq(num(2), num(2)))
    return AndNode(lab.sequent | {conj}, succ(succ(lab.tag)), RepNode(lab.sequent, succ(lab.tag), x), x)


def test_a_shared_node_cut_where_first_met_is_walked_again_higher_up():
    x = expand(TiProg(FinOrd(4), 3))
    height = check_local(x, 400, 6).max_depth
    top = _shared_at_two_depths(x)
    # at a budget of height + 1 the first copy is cut one level short of
    # its leaves, and the second has room for all of it
    report = assert_same_as_per_depth(top, height + 1, 6, True)
    assert report.passed and report.truncated
    # reused, the second copy would evaluate no clause
    cut = check_local(x, height - 1, 6)
    assert report.nodes_checked > 2 + cut.nodes_checked
    # with room for both copies, the second reuses the first
    report = assert_same_as_per_depth(top, height + 2, 6, True)
    assert report.nodes_checked == 2 + check_local(x, height, 6).nodes_checked


def test_a_subtree_that_reuses_a_cut_copy_is_cut_itself():
    # y = rep x is met two levels down, after x was cut three levels down
    # under another rep; y reuses that cut x, so y is cut too, and its
    # copy one level down, with room for all of x, is walked again
    x = expand(TiProg(FinOrd(4), 3))
    height = check_local(x, 400, 6).max_depth
    lab = root_label(x)
    y = RepNode(lab.sequent, succ(lab.tag), x)
    conj = Conj(Eq(num(1), num(1)), Eq(num(2), num(2)))
    tag = succ(succ(lab.tag))
    middle = AndNode(lab.sequent | {conj}, tag, RepNode(lab.sequent, succ(lab.tag), x), y)
    top = AndNode(lab.sequent | {conj}, succ(tag), middle, y)
    report = assert_same_as_per_depth(top, height + 2, 6, True)
    assert report.passed and report.max_depth == height + 2
    assert first_seven(report) == reference_check(top, height + 2, 6, True)


def test_a_fault_the_cut_copy_cannot_reach_fails_in_the_copy_higher_up():
    x = expand(TiProg(FinOrd(4), 3))
    nodes = list(regress._tree_nodes(x))
    path, leaf = max(nodes, key=lambda pn: len(pn[0]))
    x = regress._rebuild(x, path, regress._principal_delete(leaf))
    top = _shared_at_two_depths(x)
    height = len(path)
    report = assert_same_as_per_depth(top, height + 1, 6, True)
    # the copy under `rep` does not reach the leaf, the one beside it does
    assert not report.passed and report.fail_path == (2, *path)
    assert report.fail_reason.startswith("no ")
    assert assert_same_as_per_depth(top, height, 6, True).passed


@pytest.mark.parametrize(
    "k, visited", [(4, 268), (6, 1_340), (8, 6_396), (10, 29_692), (12, 135_164), (16, 2_686_972)],
)
def test_compact_fin_steps_all_nodes_linearly_often(k, visited, monkeypatch):
    # each element's sub-derivation used to be walked again at every
    # remaining depth it was met at: k(k+1)/2 All nodes stepped.  The root's
    # inline body of an element equals its tiprog's, so each element's
    # predecessor quantifier is stepped once: the root's and k - 1 more
    all_steps = 0

    def counted(code):
        nonlocal all_steps
        all_steps += type(code) is AllNode
        return step(code)

    monkeypatch.setattr(derivations, "step", counted)
    report = check_local(TiRoot(FinOrd(k)), 400, k + 2, True)
    assert report.passed and report.nodes_visited == visited
    assert all_steps == k


def test_the_root_shares_each_element_body_with_its_tiprog(monkeypatch):
    # the 7 elements of (below "w^2") in the window 0..54 are the digits
    # 48..54; the root builds each one's body inline, equal to the body
    # under the element's tiprog, so each is stepped once: the root's All
    # node and one predecessor quantifier for each element but 0
    all_steps = 0

    def counted(code):
        nonlocal all_steps
        all_steps += type(code) is AllNode
        return step(code)

    monkeypatch.setattr(derivations, "step", counted)
    report = check_local(TiRoot(BelowOrd(P("w^2"))), 400, 55, True)
    assert report.passed and report.nodes_visited == 14_716
    assert all_steps == 7 and report.nodes_checked == 901


WORK_SCRIPT = """
from proofbench.derivations import TiRoot, check_local
from proofbench.orderings import FinOrd
for k in (10, 12):
    r = check_local(TiRoot(FinOrd(k)), 400, k + 2, True)
    print(r.passed, r.nodes_visited, r.nodes_checked)
"""


# written out, as `ti (fin 9)` writes it, and read back
DAG_WORK_SCRIPT = """
from proofbench.derivations import check_local, code_text, derive_ti, expand, parse_code
from proofbench.orderings import FinOrd
r = check_local(parse_code(code_text(expand(derive_ti(FinOrd(9))))), 400, 11, True)
print(r.passed, r.nodes_visited, r.nodes_checked)
"""


def output_under_hash_seeds(script: str, timeout: float = 120) -> str:
    """The script's output, the same under PYTHONHASHSEED 1, 2 and 3."""
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=timeout)
        assert out.returncode == 0, out.stderr
        outputs.add(out.stdout)
    (text,) = outputs
    return text


# a code of 64 levels, each an And node over the one node below, twice
DAG_HASH_SCRIPT = """
from proofbench.derivations import AndNode, AxMNode, check_local
from proofbench.formulas import Conj, Eq, Num, seq
from proofbench.ordinals import from_int
def tower():
    one = Eq(Num(1), Num(1))
    delta = seq(one, Conj(one, one))
    code = AxMNode(delta, from_int(0))
    for level in range(1, 65):
        code = AndNode(delta, from_int(level), code, code)
    return code
top = tower()
assert hash(top) == hash(tower())
assert {top: 1}[top] == 1
r = check_local(top, 400, 4)
print(r.passed, r.nodes_visited == 2 ** 65 - 1, r.max_depth, r.nodes_checked)
"""


def test_a_code_hashes_in_constant_time_whatever_its_tree_size():
    # the tree under the top has 2^65 - 1 nodes, 65 of them distinct:
    # each code's hash is computed once, from its fields' stored hashes
    assert output_under_hash_seeds(DAG_HASH_SCRIPT, timeout=60) == "True True 64 65\n"


def test_builder_subtrees_are_checked_once():
    # the tree walk evaluates a clause at each of its nodes; reusing the
    # passed builder subtrees leaves a small share, the same under any
    # hash seed
    text = output_under_hash_seeds(WORK_SCRIPT)
    (ok10, visited10, checked10), (ok12, visited12, checked12) = (line.split() for line in text.splitlines())
    assert ok10 == ok12 == "True"
    assert int(visited10) == 29_692 and int(checked10) == 279
    assert int(visited12) == 135_164 and int(checked12) == 370


def test_shared_explicit_subtrees_are_checked_once():
    # the written-out Fin(9) repeats each element's sub-derivation under
    # every element above it; read back, each is one object, checked once
    ok, visited, checked = output_under_hash_seeds(DAG_WORK_SCRIPT).split()
    assert ok == "True"
    assert int(visited) == 13_820 and int(checked) <= 300


# the formulas criterion 3 deletes from principal positions, as regress --seed 0 runs it
PRINCIPAL_DELETE_SCRIPT = """
import hashlib, random
from proofbench import regress
deleted = []
delete = regress._principal_delete
def spy(node):
    mutant = delete(node)
    if mutant is not None:
        deleted.extend(regress.formula_text(f) for f in node.sequent - mutant.sequent)
    return mutant
regress._principal_delete = spy
result = regress.criterion_3(random.Random(3))
print(len(deleted), hashlib.sha256("\\n".join(deleted).encode()).hexdigest(), result.details)
"""


def test_criterion_3_deletes_the_same_formulas_in_every_process():
    count, _, details = output_under_hash_seeds(PRINCIPAL_DELETE_SCRIPT).split(" ", 2)
    assert count == "38" and details == "Fin(1..8) pass, 100 mutations all caught\n"


def distinct_codes(code) -> int:
    """How many code objects, by identity, are reachable over `premises`."""
    seen, todo = set(), [code]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(premises(node).values())
    return len(seen)


def test_read_and_expand_share_equal_subterms():
    # the written-out Fin(9) holds 3,578 explicit nodes; read back, equal
    # code subterms are one object, so Fin(k) reads as this many codes
    distinct = {1: 8, 2: 17, 3: 27, 4: 38, 5: 50, 6: 63, 7: 77, 8: 92, 9: 108}
    tree = expand(derive_ti(FinOrd(9)))
    assert distinct_codes(tree) <= 200
    for k, want in distinct.items():
        tree = expand(derive_ti(FinOrd(k)))
        code = parse_code(code_text(tree))
        assert distinct_codes(code) == want
        if k <= 6:
            assert code == tree


THREADS_SCRIPT = """
import json, sys, threading
from proofbench.derivations import check_local, code_text, derive_ti, expand, parse_code
from proofbench.formulas import instance
from proofbench.orderings import FinOrd
from proofbench.sexpr import parse
texts = {k: code_text(expand(derive_ti(FinOrd(k)))) for k in (7, 9)}
builder = parse_code('(tiroot (below "w^2"))')
def distinct_lists(x):
    seen, todo = set(), [x]
    while todo:
        y = todo.pop()
        if type(y) is list and id(y) not in seen:
            seen.add(id(y))
            todo.extend(y)
    return len(seen)
def run():
    out = []
    for k, text in texts.items():
        code = parse_code(text)
        r = check_local(code, 400, k + 2, True)
        out.append([r.passed, r.nodes_visited, r.max_depth, r.truncated, r.nodes_checked,
                    code_text(code) == text, distinct_lists(parse(text))])
    r = check_local(builder, 400, 55, True)
    out.append([r.passed, r.nodes_visited, r.max_depth, r.truncated, r.nodes_checked])
    return out
single = run()
instance.cache_clear()  # the threads fill the one cache of quantifier instances together
results = [None] * 4
def take(i):
    results[i] = run()
threads = [threading.Thread(target=take, args=(i,)) for i in range(4)]
sys.setswitchinterval(1e-6)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
finally:
    sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
print(json.dumps({"single": single, "threads": results}))
"""


def test_reading_checking_and_writing_agree_across_threads():
    # every table is local to one call, so four threads reading the same
    # texts share none; checking the builder, they share the module-level
    # cache of quantifier instances
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    *written, built = out["single"]
    for report in written:
        assert report[0] and report[5] and report[6] <= 500
    assert built == [True, 14_716, 37, True, 901]
    assert out["threads"] == [out["single"]] * 4


# `check` on written-out Fin(7) and Fin(9), as `ti` writes them
CHECK_SCRIPT = """
import contextlib, io, os, sys, tempfile
from proofbench.cli import main
from proofbench.derivations import code_text, derive_ti, expand
from proofbench.orderings import FinOrd
with tempfile.TemporaryDirectory() as d:
    for k in (7, 9):
        path = os.path.join(d, f"fin{k}.sx")
        with open(path, "w", encoding="utf-8") as f:
            f.write(code_text(expand(derive_ti(FinOrd(k)))) + "\\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", path, "--depth", "400", "--width", str(k + 2), "--json"])
        sys.stdout.write(f"{code} {out.getvalue()}")
"""


def test_check_prints_the_same_bytes_under_every_hash_seed():
    text = output_under_hash_seeds(CHECK_SCRIPT)
    verdict = '{"schema": "proofbench/1", "verdict": "pass"}\n'
    assert text == (
        '0 {"cut_free": true, "fail_path": null, "fail_reason": null, "max_depth": 37, "nodes_checked": 165,'
        ' "nodes_visited": 2940, "passed": true, "truncated": true}\n' + verdict
        + '0 {"cut_free": true, "fail_path": null, "fail_reason": null, "max_depth": 47, "nodes_checked": 238,'
        ' "nodes_visited": 13820, "passed": true, "truncated": true}\n' + verdict
    )



# --- builder families


# A family's child builders as they were when every child rebuilt the parts
# that depend only on the spec and the element; kept as the reference.


def ref_negprog(spec):
    return negate(prog_formula(spec))


def ref_delta_n(spec, n):
    return seq(ref_negprog(spec), Member(Num(n)))


def ref_allpred(spec, n):
    return subst_num(ref_negprog(spec).body, "x", n).left.right


def ref_pred_child(spec, n, i):
    if less(spec, i, n):
        rho = rank(spec, n)
        allpred = ref_allpred(spec, n)
        inst_i = subst_num(allpred.body, allpred.var, i)
        or_seq = ref_delta_n(spec, n) | {inst_i}
        return OrNode(or_seq, add(mul(OMEGA, rho), ONE), 2, TiProg(spec, i))
    return ref_vacuous_pred_child(spec, n, i)


def ref_vacuous_pred_child(spec, n, i):
    rho = rank(spec, n)
    allpred = ref_allpred(spec, n)
    inst_i = subst_num(allpred.body, allpred.var, i)
    not_less = inst_i.left
    or_seq = ref_delta_n(spec, n) | {inst_i}
    leaf = AxMNode(ref_delta_n(spec, n) | {not_less}, ZERO)
    return OrNode(or_seq, add(mul(OMEGA, rho), ONE), 1, leaf)


def ref_field_instance(spec, i):
    fld = field_statement(spec)
    return subst_num(fld.body, fld.var, i)


def ref_root_child(spec, i):
    if not in_field(spec, i):
        return ref_vacuous_root_child(spec, i)
    rho = rank(spec, i)
    or_seq = seq(ref_negprog(spec), ref_field_instance(spec, i))
    core = ExNode(ref_delta_n(spec, i), add(mul(OMEGA, rho), from_int(5)), i, derivations._ti_body(spec, i))
    return OrNode(or_seq, mul(OMEGA, succ(rho)), 2, core)


def ref_vacuous_root_child(spec, i):
    inst = ref_field_instance(spec, i)
    leaf = AxMNode(seq(ref_negprog(spec), inst.left), ZERO)
    return OrNode(seq(ref_negprog(spec), inst), ONE, 1, leaf)


@pytest.mark.parametrize(
    "spec",
    [FinOrd(k) for k in range(1, 7)]
    + [BelowOrd(P("w")), BelowOrd(P("w^2")), BelowOrd(P("w^w")),
       SumOrd(FinOrd(3), BelowOrd(P("w"))), LexOrd(FinOrd(2), BelowOrd(P("w")))],
    ids=lambda spec: code_text(TiRoot(spec)),
)
def test_family_children_match_the_per_child_builders(spec):
    elements = field_elements(spec, 8)
    # the naturals 0..15 and the field elements, so in-support children
    # are met on every spec
    indices = sorted(set(range(16)) | set(elements))
    for fam, ref in ((TiKids(spec), ref_root_child), (TiVac(spec), ref_vacuous_root_child)):
        kids = fam.children()
        assert [kids(i) for i in indices] == [ref(spec, i) for i in indices]
    for n in elements:
        for fam, ref in ((PredKids(spec, n), ref_pred_child), (PredVac(spec, n), ref_vacuous_pred_child)):
            kids = fam.children()
            assert [kids(i) for i in indices] == [ref(spec, n, i) for i in indices]
    assert step(TiRoot(spec)).child(elements[-1]) == ref_root_child(spec, elements[-1])


def test_finite_support_gives_the_first_entry_for_an_index():
    first, second = tiny_axm(), AxMNode(seq(Eq(num(1), num(1))), ZERO)
    node = AllNode(seq(), P("w"), FiniteSupport(((0, first), (2, second), (0, second)), PredVac(FinOrd(3), 2)))
    kids = step(node).child
    assert kids(0) is first and kids(2) is second
    assert premises(node) == {0: first, 2: second}
    assert [kids(i) for i in (1, 3)] == [ref_vacuous_pred_child(FinOrd(3), 2, i) for i in (1, 3)]


@pytest.mark.parametrize(
    "text, report",
    [
        # a family's shared parts are built at its first child, so a bad
        # element fails where the children are decoded, not in the All step
        ('(all (seq) "w" (predkids (fin 3) 7))',
         CheckReport(False, (), "decode error in a premise: 7 is not in the field", 1, 0, True, True, 0)),
        ('(all (seq) "w" (fs ((0 (axm (seq (= 1 1)) "0"))) (predvac (fin 3) 9)))',
         CheckReport(False, (), "decode error in a premise: 9 is not in the field", 1, 0, True, True, 0)),
        # code 0 is in the field, and its rank needs the order type of (rev (below "w"))
        ('(all (seq) "w" (tikids (rev (sum (fin 1) (below "w")))))',
         CheckReport(False, (), "decode error in a premise: no order type for"
                     " RevOrd(inner=BelowOrd(bound=Ordinal('w')))", 1, 0, True, True, 0)),
        # the All premise steps to its label without building anything
        ('(and (seq) "w" (axm (seq (= 1 1)) "0") (all (seq) "3" (predkids (rev (below "w")) 48)))',
         CheckReport(False, (), "no conjunction in the sequent matches the premises", 1, 0, True, False, 1)),
    ],
)
def test_malformed_families_fail_where_their_children_are_decoded(text, report):
    assert check_local(parse_code(text), 5, 7) == report


PROG_INSTANCES_SCRIPT = """
from proofbench import derivations
from proofbench.orderings import BelowOrd, FinOrd
from proofbench.ordinals import parse
calls = 0
instance = derivations.prog_witness_instance
def counted(*args):
    global calls
    calls += 1
    return instance(*args)
derivations.prog_witness_instance = counted
for spec, width in ((BelowOrd(parse("w^2")), 55), (FinOrd(10), 12)):
    calls = 0
    r = derivations.check_local(derivations.derive_ti(spec), 400, width, True)
    print(r.passed, r.nodes_visited, calls)
"""


def test_prog_instances_are_built_once_per_family():
    # each sampled child of a predecessor quantifier used to build the
    # Prog instance of its element again: 1,568 and 715 calls
    text = output_under_hash_seeds(PROG_INSTANCES_SCRIPT)
    (ok_w2, visited_w2, calls_w2), (ok10, visited10, calls10) = (line.split() for line in text.splitlines())
    assert ok_w2 == ok10 == "True"
    assert int(visited_w2) == 14_716 and int(calls_w2) <= 100
    assert int(visited10) == 29_692 and int(calls10) <= 150


# the calls of the two Python-level hashes that a check makes, counted in a
# fresh interpreter, so that no cache is warm
PER_CHILD_HASHES_SCRIPT = """
import sys
from enum import Enum
from proofbench import ordinals
from proofbench.derivations import TiRoot, check_local
from proofbench.orderings import BelowOrd
from proofbench.ordinals import parse
counts = {ordinals.stored_hash.__code__: 0, Enum.__hash__.__code__: 0}
def profile(frame, event, arg):
    if event == "call" and frame.f_code in counts:
        counts[frame.f_code] += 1
code = TiRoot(BelowOrd(parse("w")))
sys.setprofile(profile)
report = check_local(code, 400, 54)
sys.setprofile(None)
print(report.passed, report.nodes_checked, *counts.values())
"""


def test_each_sampled_child_costs_few_python_level_hashes():
    # counted, not timed: the 777 clause checks at width 54 once made 8,742
    # stored_hash calls, hashing a (node, depth) pair for each new node though
    # the depth budget cut nothing, and 408 Enum.__hash__ calls, looking the
    # rule up in INTRODUCTIONS.  Now 7,965 and 0: the bound is 2% over the first
    stored_hash_limit = 8_124
    passed, checked, stored, enum = output_under_hash_seeds(PER_CHILD_HASHES_SCRIPT).split()
    assert passed == "True" and int(checked) == 777
    assert int(stored) <= stored_hash_limit and int(enum) == 0


def test_each_quantifier_instance_is_substituted_once(monkeypatch):
    # the All clause used to substitute each sampled child's instance again,
    # though the child function had just built it: 466 of 913 calls
    # substituted a (formula, variable, numeral) met before
    substituted = Counter()
    nested = 0
    original = formulas.subst_num

    def counted(f, var, value):
        nonlocal nested
        if not nested:  # subst_num recurses through the module's name
            substituted[(f, var, value)] += 1
        nested += 1
        try:
            return original(f, var, value)
        finally:
            nested -= 1

    for module in list(sys.modules.values()):
        if module.__name__.startswith("proofbench") and getattr(module, "subst_num", None) is original:
            monkeypatch.setattr(module, "subst_num", counted)
    formulas.instance.cache_clear()
    try:
        report = check_local(parse_code('(tiroot (below "w^2"))'), 400, 55, True)
    finally:
        formulas.instance.cache_clear()
    assert report.passed and report.nodes_visited == 14_716 and report.nodes_checked == 901
    assert substituted and max(substituted.values()) == 1


def test_a_child_function_is_shared_safely_across_threads():
    # the threads race to build the shared parts at their first child
    spec = BelowOrd(P("w^2"))
    n = field_elements(spec, 12)[-1]
    family = step(TiProg(spec, n)).child(n).left.right
    single = [ref_pred_child(spec, n, i) for i in range(64)]
    kids = step(family).child
    results = [None] * 4

    def take(t):
        results[t] = [kids(i) for i in range(64)]

    threads = [threading.Thread(target=take, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(type(c.child) is TiProg for c in single) == 10
    assert results == [single] * 4


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

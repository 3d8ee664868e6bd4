import itertools
import json
from functools import cmp_to_key

import pytest

from proofbench.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_VERDICT, main
from proofbench.derivations import code_text, derive_ti, expand, premises, with_premises
from proofbench import lab
from proofbench.lab import (
    Claim,
    CulpritReport,
    Evidence,
    LabError,
    TheoryStore,
    build_precT,
    chain_check,
    reflect_check,
    retype,
)
from proofbench.orderings import (
    BelowOrd,
    FinOrd,
    LexOrd,
    RevOrd,
    SumOrd,
    TableOrd,
    element_of_rank,
    field_elements,
    in_field,
    iter_field,
    less,
    ord_code,
    otyp,
    parse_spec,
    rank,
    rankable,
)
from proofbench.ordinals import le, lt, parse, succ
from proofbench.sexpr import replace

P = parse
W, W2, W3 = P("w"), P("w^2"), P("w^3")


def checked(spec):
    return Claim(spec, Evidence.CHECKED, derive_ti(spec))


def asserted(spec):
    return Claim(spec, Evidence.ASSERTED)


def store(name, *claims):
    return TheoryStore(name, tuple(claims))


def test_induced_relation_matches_rank_criterion():
    prec = build_precT(store("t", checked(BelowOrd(W2))), BelowOrd(W3))
    elems = field_elements(BelowOrd(W3), 40)
    for a in elems:
        for b in elems:
            expected = less(BelowOrd(W3), a, b) and lt(rank(BelowOrd(W3), b), W2)
            assert prec.less(a, b) == expected


def test_big_rank_elements_do_not_participate():
    from proofbench.orderings import ord_code

    prec = build_precT(store("t", checked(BelowOrd(W2))), BelowOrd(W3))
    big = ord_code(P("w^2*5"))
    assert not prec.less(ord_code(P("w")), big)
    assert prec.less(ord_code(P("w")), ord_code(P("w*2")))


def test_empty_store_relation_is_empty():
    prec = build_precT(store("empty"), BelowOrd(W))
    for a in field_elements(BelowOrd(W), 10):
        for b in field_elements(BelowOrd(W), 10):
            assert not prec.less(a, b)


def test_fin_claim_restricts_base():
    prec = build_precT(store("t", checked(FinOrd(5))), BelowOrd(W))
    elems = field_elements(BelowOrd(W), 20)
    for b in elems:
        participates = any(prec.less(a, b) for a in elems if a != b)
        assert participates == (0 < rank(BelowOrd(W), b).nat_value() < 5)


# the candidate embeddings `embed_search` tries for a claim without ranks
EMBED_BUDGET = 200


def embed_search(source, beta, target, budget) -> bool:
    """Reference: an order-preserving map of {x : x <= beta in source} into target.

    The restriction is sampled at codes below `budget` (at most 256 of
    them).  A rank-supporting target gets the canonical rank-preserving map
    when rank(beta) + 1 <= otyp(target).  Any other target gets a greedy map
    into its first elements by code, so a failure there only means "not
    found at this budget": the search is conclusive on targets with ranks
    and on finite ones, whose pool is the whole field.
    """
    if not in_field(source, beta):
        return False
    codes = itertools.takewhile(lambda x: x < budget, iter_field(source))
    restriction = list(itertools.islice((x for x in codes if x == beta or less(source, x, beta)), 256))
    restriction.sort(key=cmp_to_key(lambda a, b: -1 if less(source, a, b) else 1))

    if rankable(target):
        if not le(succ(rank(source, beta)), otyp(target)):
            return False
        mapping = [(x, element_of_rank(target, rank(source, x))) for x in restriction]
    else:
        pool = field_elements(target, max(64, 2 * len(restriction)))
        pool.sort(key=cmp_to_key(lambda a, b: -1 if less(target, a, b) else 1))
        mapping = []
        pos = 0
        prev = None
        for x in restriction:
            while pos < len(pool) and prev is not None and not less(target, prev, pool[pos]):
                pos += 1
            if pos >= len(pool):
                return False
            prev = pool[pos]
            mapping.append((x, prev))
            pos += 1

    return all(less(source, x, y) <= less(target, fx, fy) and less(source, y, x) <= less(target, fy, fx)
               for (x, fx), (y, fy) in itertools.combinations(mapping, 2))


def test_bounded_matches_embed_search():
    # claims with ranks, and finite ones: where the reference is conclusive
    claims = (
        checked(FinOrd(5)),
        checked(BelowOrd(W)),
        checked(SumOrd(FinOrd(2), BelowOrd(P("40")))),
        asserted(LexOrd(FinOrd(3), BelowOrd(P("20")))),
        checked(TableOrd(frozenset({(4, 7), (4, 9), (7, 9)}))),
        asserted(RevOrd(FinOrd(3))),
        asserted(LexOrd(RevOrd(FinOrd(2)), TableOrd(frozenset({(8, 6)})))),
    )
    base = BelowOrd(W3)
    elems = field_elements(base, 300)

    def reference(prec, b):
        return any(embed_search(base, b, prec.store.claims[i].ordering, EMBED_BUDGET) for i in prec.usable)

    for claim in claims:
        prec = build_precT(store("t", claim), base)
        assert prec.usable == (0,)
        bounded = [prec.bounded(b) for b in elems]
        assert bounded == [reference(prec, b) for b in elems]
        assert True in bounded and False in bounded
    prec = build_precT(store("t", *claims), base)
    assert prec.usable == tuple(range(len(claims)))
    assert [prec.bounded(b) for b in elems] == [reference(prec, b) for b in elems]


def test_a_reversed_omega_bounds_only_the_finite_elements():
    prec = build_precT(store("t", asserted(RevOrd(BelowOrd(W)))), BelowOrd(W3))
    assert all(prec.bounded(ord_code(P(str(k)))) for k in (0, 1, 9, 10, 1000))
    # no infinite well-order embeds into a reversed w
    for s in ("w", "w*2", "w^2", "w^2*5+3"):
        assert not prec.bounded(ord_code(P(s)))


def test_a_reversed_finite_order_bounds_its_size():
    prec = build_precT(store("t", asserted(RevOrd(FinOrd(3)))), BelowOrd(W))
    elems = field_elements(BelowOrd(W), 12)
    assert [rank(BelowOrd(W), b).nat_value() for b in elems if prec.bounded(b)] == [0, 1, 2]


def test_an_empty_product_claim_bounds_nothing():
    prec = build_precT(store("t", asserted(LexOrd(TableOrd(frozenset({(0, 0)})), FinOrd(0)))), BelowOrd(W))
    assert prec.usable == (0,)
    assert not any(prec.bounded(b) for b in field_elements(BelowOrd(W), 12))


def test_a_claim_whose_height_has_no_notation_bounds_every_base_element():
    # both heights are at least E*w, above the type of every base element
    for spec in (LexOrd(BelowOrd(W), BelowOrd(P("E"))), LexOrd(RevOrd(BelowOrd(W)), BelowOrd(P("E")))):
        for base in (BelowOrd(W3), BelowOrd(P("E*2"))):
            prec = build_precT(store("t", asserted(spec), asserted(FinOrd(2))), base)
            assert prec.reach is None
            assert all(prec.bounded(b) for b in field_elements(base, 60))
            assert not prec.bounded(ord_code(otyp(base)))


def test_lab_verbs_on_claims_whose_height_has_no_notation(tmp_path, capsys):
    (tmp_path / "s.sx").write_text('(theory "cap" (claim (lex (rev (below "w")) (below "E")) asserted)'
                                   ' (claim (lex (below "w") (below "E")) asserted))')
    argv = [str(tmp_path / "s.sx"), "--base", '(below "w^3")']
    assert main(["lab", "build", *argv]) == EXIT_OK
    assert capsys.readouterr().out == "cap: 2/2 claims usable\n"
    assert main(["lab", "build", *argv, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[0])["usable"] == [0, 1]
    # claim 0 descends: its major side is the reversal of w
    assert main(["lab", "reflect", *argv]) == EXIT_VERDICT
    assert capsys.readouterr().out == ('cap: claim 0 ((lex (rev (below "w")) (below "E")), asserted)'
                                       ' admits a descending chain of length 50\n')
    assert main(["lab", "reflect", *argv, "--json"]) == EXIT_VERDICT
    assert json.loads(capsys.readouterr().out.splitlines()[0])["verdict"] == "culprit"


def test_induced_relation_never_asks_the_claim_and_computes_its_height_once(monkeypatch):
    calls = {"less": 0, "height": 0}
    rev_less, height = RevOrd.less, lab.height

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(RevOrd, "less", counted("less", rev_less))
    monkeypatch.setattr(lab, "height", counted("height", height))
    prec = build_precT(store("t", asserted(RevOrd(BelowOrd(W)))), BelowOrd(W3))
    elems = field_elements(BelowOrd(W3), 60)
    # w is the one infinite element: the 59 pairs below it are not bounded
    assert sum(prec.less(a, b) for a in elems for b in elems) == 60 * 59 // 2 - 59
    assert calls == {"less": 0, "height": 1}


def test_retype_examples():
    assert retype(build_precT(store("t", checked(BelowOrd(W)), checked(BelowOrd(W2))),
                              BelowOrd(W3))) == W2
    assert retype(build_precT(store("t", checked(FinOrd(3))), BelowOrd(W))) == P("3")
    assert retype(build_precT(store("t", checked(BelowOrd(W2))), BelowOrd(W))) == W
    assert retype(build_precT(store("empty"), BelowOrd(W))) == P("0")


def test_retype_refuses_asserted():
    prec = build_precT(store("t", checked(FinOrd(2)), asserted(BelowOrd(W))), BelowOrd(W2))
    with pytest.raises(LabError):
        retype(prec)


def test_monotone_in_claims():
    base = BelowOrd(W2)
    small = build_precT(store("t", checked(FinOrd(4))), base)
    big = build_precT(store("t", checked(FinOrd(4)), checked(BelowOrd(W))), base)
    elems = field_elements(base, 25)
    for a in elems:
        for b in elems:
            if small.less(a, b):
                assert big.less(a, b)


def test_reflect_on_certified_store():
    prec = build_precT(store("t", checked(BelowOrd(W))), BelowOrd(W2))
    for budget in (10, 50, 200):
        assert reflect_check(prec, budget) is None
    assert prec.usable == (0,)


def test_reflect_finds_asserted_reversal():
    bad = asserted(RevOrd(BelowOrd(W)))
    prec = build_precT(store("t", checked(BelowOrd(W)), bad), BelowOrd(W2))
    verdict = reflect_check(prec, 50)
    assert isinstance(verdict, CulpritReport)
    assert verdict.claim_index == 1
    assert verdict.evidence is Evidence.ASSERTED
    assert len(verdict.chain) == 50
    rev = RevOrd(BelowOrd(W))
    for a, b in zip(verdict.chain, verdict.chain[1:]):
        assert less(rev, b, a)


def test_reflect_ignores_true_assertions():
    prec = build_precT(store("t", asserted(BelowOrd(W))), BelowOrd(W2))
    assert reflect_check(prec, 50) is None


@pytest.mark.parametrize("budget", [10, 50, 200])
@pytest.mark.parametrize("text, exit_code", [
    ('(rev (fin 100))', EXIT_OK),  # finite, so well-founded
    ('(sum (below "w") (rev (below "w")))', EXIT_VERDICT),  # the descent lies above the code-least element
    ('(lex (rev (below "w")) (below "E"))', EXIT_VERDICT),
])
def test_reflect_verdict_does_not_depend_on_the_chain_budget(tmp_path, capsys, text, exit_code, budget):
    spec = parse_spec(text)
    verdict = reflect_check(build_precT(store("t", asserted(spec)), BelowOrd(W3)), budget)
    if exit_code == EXIT_OK:
        assert verdict is None
    else:
        assert isinstance(verdict, CulpritReport) and verdict.claim_index == 0
        assert len(verdict.chain) == budget and all(in_field(spec, x) for x in verdict.chain)
        assert all(less(spec, b, a) for a, b in zip(verdict.chain, verdict.chain[1:]))
    (tmp_path / "s.sx").write_text(f'(theory "t" (claim {text} asserted))')
    argv = ["lab", "reflect", str(tmp_path / "s.sx"), "--base", '(below "w^3")', "--chain-budget", str(budget)]
    assert main([*argv, "--json"]) == exit_code
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record.get("chain", []) == list(getattr(verdict, "chain", []))


def test_chain_check_descends():
    stores = [
        store("t0", checked(BelowOrd(W2))),
        store("t1", checked(BelowOrd(P("w*2")))),
        store("t2", checked(FinOrd(3))),
    ]
    report = chain_check(stores, BelowOrd(W3))
    assert report.descent_ok
    assert [e.order_type for e in report.entries] == [W2, P("w*2"), P("3")]
    assert report.entries[0].witnessed and report.entries[1].witnessed
    assert report.entries[2].witnessed is None


def test_chain_check_rejects_stalled():
    s = store("t", checked(BelowOrd(W)))
    report = chain_check([s, s], BelowOrd(W2))
    assert not report.descent_ok
    assert report.first_violation == 0


def test_chain_check_finite_descent():
    stores = [store(f"t{k}", checked(FinOrd(k))) for k in (5, 4, 3, 2, 1)]
    report = chain_check(stores, BelowOrd(W))
    assert report.descent_ok
    assert [e.order_type.nat_value() for e in report.entries] == [5, 4, 3, 2, 1]


def test_chain_check_reports_missing_witness():
    # descent holds but t0 has no checked claim covering t1's order type
    stores = [store("t0", checked(FinOrd(3))), store("t1", checked(BelowOrd(W)))]
    report = chain_check(stores, BelowOrd(W2))
    assert not report.descent_ok or report.first_violation == 0
    stores = [store("t0", checked(FinOrd(2))), store("t1", checked(FinOrd(1)))]
    report = chain_check(stores, BelowOrd(W))
    assert report.descent_ok and report.entries[0].witnessed


def fin9_with_a_bad_ninth_child():
    """Written-out Fin(9) whose child 8 carries the root's tag: it fails
    local checks at width 10, and passes at width 8, which never reaches it."""
    root = expand(derive_ti(FinOrd(9)))
    kids = premises(root)
    kids[8] = replace(kids[8], tag=root.tag)
    return with_premises(root, kids)


def test_chain_check_validates_at_the_given_budgets():
    stores = [store("s0", Claim(FinOrd(9), Evidence.CHECKED, fin9_with_a_bad_ninth_child())),
              store("s1", checked(FinOrd(2)))]
    assert chain_check(stores, BelowOrd(W)).descent_ok
    with pytest.raises(LabError, match="ordinal tag fails to descend"):
        chain_check(stores, BelowOrd(W), width_budget=10)


def test_lab_chain_flags_set_the_budgets(tmp_path, capsys):
    (tmp_path / "bad9.sx").write_text(code_text(fin9_with_a_bad_ninth_child()))
    (tmp_path / "f2.sx").write_text(code_text(expand(derive_ti(FinOrd(2)))))
    (tmp_path / "s0.sx").write_text('(theory "s0" (claim (fin 9) (cert "bad9.sx")))')
    (tmp_path / "s1.sx").write_text('(theory "s1" (claim (fin 2) (cert "f2.sx")))')
    stores = [str(tmp_path / "s0.sx"), str(tmp_path / "s1.sx")]
    assert main(["lab", "chain", *stores, "--base", '(below "w")', "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[0])["descent_ok"] is True
    for verb in ("build", "chain"):
        assert main(["lab", verb, *stores, "--base", '(below "w")', "--width", "10"]) == EXIT_PRECONDITION
        assert "ordinal tag fails to descend" in capsys.readouterr().err


def test_malformed_table_claims_are_inert():
    cyc = Claim(TableOrd(frozenset({(0, 1), (1, 2), (2, 0)})), Evidence.ASSERTED)
    prec = build_precT(store("t", cyc), BelowOrd(W))
    assert prec.usable == ()
    assert reflect_check(prec, 12) is None


def test_build_rejects_bad_certificates():
    wrong = Claim(FinOrd(3), Evidence.CHECKED, derive_ti(FinOrd(2)))
    with pytest.raises(LabError):
        build_precT(store("t", wrong), BelowOrd(W))
    with pytest.raises(LabError):
        build_precT(store("t", checked(FinOrd(2))), RevOrd(BelowOrd(W)))

"""The acceptance suite: nine oracle- and property-based criteria.

Each criterion is a function returning a CriterionResult; the CLI `regress`
verb and the test suite both call these, so there is exactly one source of
truth for what "passing" means.  All randomness is seeded.
"""

from __future__ import annotations

import random
import time

from . import cnforacle as oracle
from .boundedness import bounded_truth, otyp_bound
from .derivations import (
    INTRODUCTIONS,
    AllNode,
    AndNode,
    AxLNode,
    AxMNode,
    Code,
    CutNode,
    ExNode,
    OrNode,
    RepNode,
    RuleTag,
    and_invert,
    check_local,
    code_text,
    derive_ti,
    expand,
    parse_code,
    premises,
    root_label,
    weaken,
    with_premises,
)
from .formulas import (
    Conj,
    Disj,
    Eq,
    Exists,
    Member,
    NotMember,
    Num,
    Plus,
    Times,
    Var,
    atom_true,
    formula_text,
    parse_formula,
    parse_sequent,
    sequent_text,
)
from .gens import (
    random_code,
    random_formula,
    random_ordinal,
    random_sequent,
    random_spec,
    random_vec_below_w3,
)
from .lab import (
    Claim,
    Evidence,
    TheoryStore,
    build_precT,
    chain_check,
    reflect_check,
    retype,
)
from .orderings import BelowOrd, FinOrd, RevOrd, field_elements, less, otyp, rank, spec_text, parse_spec
from .ordinals import Cmp, add, compare, from_int, lt, mul, parse, pow2, succ, text
from .sexpr import replace, term
from .spector import CertifiedEntry, verify_domination, witness
from .verdict import Verdict

P = parse


@term
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    limit: float
    details: str

    @property
    def within_budget(self) -> bool:
        return self.ok and self.seconds < self.limit


def _result(number, name, limit, started, ok, details) -> CriterionResult:
    return CriterionResult(number, name, ok, time.monotonic() - started, limit, details)


# --- 1: ordinal arithmetic against the vector oracle -------------------------------


def criterion_1(_rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    vecs = oracle.enumerate_below_w3(5)
    notations = {v: P(oracle.terms_text(oracle.vec_terms(*v))) for v in vecs}
    mismatches = 0
    pairs = 0
    for va in vecs:
        ta = oracle.vec_terms(*va)
        na = notations[va]
        for vb in vecs:
            tb = oracle.vec_terms(*vb)
            nb = notations[vb]
            pairs += 1
            if compare(na, nb).value != oracle.cmp_terms(ta, tb):
                mismatches += 1
            if text(add(na, nb)) != oracle.terms_text(oracle.add_terms(ta, tb)):
                mismatches += 1
            if text(mul(na, nb)) != oracle.terms_text(oracle.mul_terms(ta, tb)):
                mismatches += 1
    pow_bad = sum(
        1 for v in vecs if text(pow2(notations[v])) != oracle.pow2_vec_text(*v)
    )
    ok = mismatches == 0 and pow_bad == 0
    details = f"{len(vecs)} notations, {pairs} pairs, {mismatches} mismatches, {pow_bad} pow2 misses"
    return _result(1, "ordinal-oracle-equivalence", 30.0, started, ok, details)


# --- 2: pow2 spot identities ---------------------------------------------------------


def criterion_2(rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    ok = (
        pow2(P("w")) == P("w")
        and pow2(P("w+2")) == P("w*4")
        and pow2(P("E")) == P("E")
    )
    tested = 0
    for _ in range(100):
        v = random_vec_below_w3(rng)
        a = P(oracle.terms_text(oracle.vec_terms(*v)))
        tested += 1
        if pow2(succ(a)) != mul(pow2(a), from_int(2)):
            ok = False
    return _result(2, "pow2-spot-identities", 5.0, started, ok, f"{tested} successor identities")


# --- 3: checker soundness and mutation sensitivity -----------------------------------


def _tree_nodes(code: Code, path=()):
    """All explicit nodes with their paths (finite-support expansions only)."""
    yield path, code
    for i, c in premises(code).items():
        yield from _tree_nodes(c, path + (i,))


def _rebuild(code: Code, path, replacement: Code) -> Code:
    if not path:
        return replacement
    kids = premises(code)
    kids[path[0]] = _rebuild(kids[path[0]], path[1:], replacement)
    return with_premises(code, kids)


def _principal_delete(node: Code):
    """The explicit node with one principal formula deleted: the least by
    text, so that every process deletes the same one."""
    rule = root_label(node).rule
    if rule is RuleTag.AXM:
        principal = atom_true
    elif rule is RuleTag.AXL:
        principal = lambda f: type(f) in (Member, NotMember)
    elif rule in INTRODUCTIONS:
        connective = INTRODUCTIONS[rule][0]
        principal = lambda f: type(f) is connective
    else:
        return None
    candidates = [f for f in node.sequent if principal(f)]
    if not candidates:
        return None
    return replace(node, sequent=node.sequent - {min(candidates, key=formula_text)})


def _all_as_ex(node: AllNode):
    kids = premises(node)
    return ExNode(node.sequent, node.tag, *next(iter(kids.items()))) if kids else None


# each explicit rule's mutant: the node under another rule, its premises kept
_RETAG = {
    AxMNode: lambda node: AxLNode(node.sequent, node.tag),
    AxLNode: lambda node: AxMNode(node.sequent, node.tag),
    AndNode: lambda node: CutNode(node.sequent, node.tag, node.left, node.right),
    OrNode: lambda node: RepNode(node.sequent, node.tag, node.child),
    ExNode: lambda node: RepNode(node.sequent, node.tag, node.child),
    AllNode: _all_as_ex,
}


def _retag_rule(node: Code):
    retag = _RETAG.get(type(node))
    return retag(node) if retag is not None else None


def criterion_3(rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    trees = {}
    ok = True
    details = []
    for k in range(1, 9):
        tree = expand(derive_ti(FinOrd(k)))
        trees[k] = tree
        report = check_local(tree, depth_budget=400, width_budget=k + 2, require_cut_free=True)
        if not report.passed:
            ok = False
            details.append(f"Fin({k}) failed: {report.fail_reason}")
    mutations_done = 0
    undetected = 0
    while mutations_done < 100:
        k = rng.randrange(1, 9)
        tree = trees[k]
        nodes = list(_tree_nodes(tree))
        path, node = nodes[rng.randrange(len(nodes))]
        kind = rng.randrange(3)
        mutant_node = None
        if kind == 0 and path:
            parent_path = path[:-1]
            parent = next(n for p, n in nodes if p == parent_path)
            mutant_node = replace(node, tag=parent.tag)
        elif kind == 1:
            mutant_node = _principal_delete(node)
        elif kind == 2:
            mutant_node = _retag_rule(node)
        if mutant_node is None:
            continue
        mutant = _rebuild(tree, path, mutant_node)
        report = check_local(mutant, depth_budget=400, width_budget=k + 2, require_cut_free=True)
        mutations_done += 1
        if report.passed or report.fail_path is None:
            undetected += 1
    if undetected:
        ok = False
        details.append(f"{undetected} mutations slipped through")
    return _result(
        3, "checker-soundness-sensitivity", 60.0, started, ok,
        "; ".join(details) or f"Fin(1..8) pass, {mutations_done} mutations all caught",
    )


# --- 4: transformation contracts -------------------------------------------------------


_TRUE_ATOMS = [
    Eq(Plus(Num(2), Num(2)), Num(4)),
    Eq(Num(3), Num(3)),
    Eq(Times(Num(2), Num(3)), Num(6)),
]


def _random_side_formula(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return Eq(Num(rng.randrange(5)), Num(rng.randrange(5, 9)))
    if pick == 1:
        return Member(Num(rng.randrange(6)))
    if pick == 2:
        return Disj(Eq(Num(1), Num(2)), Member(Num(rng.randrange(4))))
    return Conj(Eq(Num(0), Num(0)), Eq(Num(1), Num(1)))


def _random_axiom(rng: random.Random) -> Code:
    side = frozenset(_random_side_formula(rng) for _ in range(rng.randrange(0, 3)))
    if rng.random() < 0.5:
        return AxMNode(side | {rng.choice(_TRUE_ATOMS)}, from_int(0))
    v = rng.randrange(0, 7)
    pair = {NotMember(Num(v)), Member(Plus(Num(v), Num(0)))}
    return AxLNode(side | pair, from_int(0))


def _random_and(rng: random.Random, d1: Code, d2: Code) -> tuple[AndNode, Conj]:
    """An And node over d1 and d2, and its conjunction of one formula drawn
    from each conclusion, in the order of their texts."""
    s1, s2 = root_label(d1), root_label(d2)
    a1 = rng.choice(sorted(s1.sequent, key=formula_text))
    a2 = rng.choice(sorted(s2.sequent, key=formula_text))
    conj = Conj(a1, a2)
    delta = (s1.sequent - {a1}) | (s2.sequent - {a2}) | {conj}
    return AndNode(delta, succ(s1.tag if lt(s2.tag, s1.tag) else s2.tag), d1, d2), conj


def _random_derivation(rng: random.Random, depth: int) -> Code:
    if depth <= 0 or rng.random() < 0.25:
        return _random_axiom(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return _random_and(rng, _random_derivation(rng, depth - 1), _random_derivation(rng, depth - 1))[0]
    if kind == 1:
        d = _random_derivation(rng, depth - 1)
        s = root_label(d)
        a = rng.choice(sorted(s.sequent, key=formula_text))
        other = _random_side_formula(rng)
        branch = rng.choice([1, 2])
        disj = Disj(a, other) if branch == 1 else Disj(other, a)
        return OrNode((s.sequent - {a}) | {disj}, succ(s.tag), branch, d)
    if kind == 2:
        d = _random_derivation(rng, depth - 1)
        s = root_label(d)
        n = rng.randrange(0, 5)
        ex = Exists("z", Eq(Times(Var("z"), Num(0)), Num(0)))
        return ExNode(s.sequent | {ex}, succ(s.tag), n, d)
    d = _random_derivation(rng, depth - 1)
    s = root_label(d)
    return RepNode(s.sequent, succ(s.tag), d)


def criterion_4(rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    failures = []
    for trial in range(200):
        d1 = _random_derivation(rng, rng.randrange(1, 4))
        d2 = _random_derivation(rng, rng.randrange(1, 4))
        d, conj = _random_and(rng, d1, d2)
        base = check_local(d, require_cut_free=True)
        if not base.passed:
            failures.append(f"trial {trial}: generator produced a bad derivation: {base.fail_reason}")
            break
        root = root_label(d)
        grown = weaken(d, root.sequent | {Eq(Num(9), Num(9))}, succ(root.tag))
        wrep = check_local(grown, require_cut_free=True)
        wlbl = root_label(grown)
        if not wrep.passed or not (root.sequent <= wlbl.sequent) or lt(wlbl.tag, root.tag):
            failures.append(f"trial {trial}: weakening contract broke")
        which = rng.choice([1, 2])
        inv = and_invert(d, which, conj)
        irep = check_local(inv, require_cut_free=True)
        ilbl = root_label(inv)
        if not irep.passed:
            failures.append(f"trial {trial}: inversion fails checks: {irep.fail_reason}")
        if compare(ilbl.tag, root.tag) is Cmp.GT:
            failures.append(f"trial {trial}: inversion raised the root tag")
        expected = (root.sequent - {conj}) | {conj.left if which == 1 else conj.right}
        if ilbl.sequent != expected:
            failures.append(f"trial {trial}: inversion produced the wrong sequent")
        if failures:
            break
    return _result(
        4, "transformation-contracts", 60.0, started, not failures,
        failures[0] if failures else "200 randomized derivations: weaken + invert contracts hold",
    )


# --- 5: the executable order-type bound ---------------------------------------------


def _bound_family():
    return [FinOrd(k) for k in range(1, 9)] + [
        BelowOrd(P("w")),
        BelowOrd(P("w*2")),
        BelowOrd(P("w^2")),
    ]


def criterion_5(_rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    problems = []
    for spec in _bound_family():
        cert = otyp_bound(spec, derive_ti(spec), eval_budget=200, width_budget=10)
        if cert.comparison is not Cmp.LT:
            problems.append(f"{spec_text(spec)}: otyp not strictly below the bound")
        if not all(c.ok for c in cert.checks):
            problems.append(f"{spec_text(spec)}: a pointwise rank check failed")
        expected = min(200, otyp(spec).nat_value() if otyp(spec).is_finite() else 200)
        if len(cert.checks) != expected:
            problems.append(f"{spec_text(spec)}: expected {expected} checks, saw {len(cert.checks)}")
    return _result(
        5, "executable-otyp-bound", 60.0, started, not problems,
        "; ".join(problems) or "11 orderings certified with 200-element rank sweeps",
    )


# --- 6: the bound-extraction engine -----------------------------------------------------


def criterion_6(_rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    problems = []
    for k in range(1, 6):
        spec = FinOrd(k)
        claim = bounded_truth(derive_ti(spec), spec, eval_budget=200, width_budget=k + 2)
        expected_gamma = pow2(succ(mul(P("w"), from_int(k))))
        if claim.gamma != expected_gamma:
            problems.append(f"Fin({k}): gamma is {text(claim.gamma)}")
        if claim.verdict is not Verdict.TRUE:
            problems.append(f"Fin({k}): verdict {claim.verdict.value}")
        if not all(c.ok for c in claim.rank_checks):
            problems.append(f"Fin({k}): rank check failed")
        if claim.case4_checks < k:
            problems.append(f"Fin({k}): only {claim.case4_checks} witness-case checks ran")
    return _result(
        6, "bound-extraction-engine", 60.0, started, not problems,
        "; ".join(problems) or "Fin(1..5): exact gamma, true claims, witness arithmetic asserted inline",
    )


# --- 7: certified-sup witnesses ----------------------------------------------------------


def criterion_7(_rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    problems = []
    families = {
        "empty": [],
        "fins": [CertifiedEntry(i, FinOrd(k), derive_ti(FinOrd(k))) for i, k in enumerate(range(1, 6))],
        "belows": [
            CertifiedEntry(0, BelowOrd(P("w")), derive_ti(BelowOrd(P("w")))),
            CertifiedEntry(1, BelowOrd(P("w^2")), derive_ti(BelowOrd(P("w^2")))),
        ],
    }
    for name, entries in families.items():
        w = witness(entries)
        for e in entries:
            if compare(otyp(e.ordering), w.order_type) is not Cmp.LT:
                problems.append(f"{name}: witness fails to dominate entry {e.index}")
        if any(e.index == w.index for e in entries):
            problems.append(f"{name}: witness index collides")
        report = verify_domination(entries, w, sample=20)
        if not report.ok:
            problems.append(f"{name}: domination report failed")
        if w.certificate is None:
            problems.append(f"{name}: no witness certificate emitted")
        else:
            cert = check_local(w.certificate, depth_budget=24, width_budget=6, require_cut_free=True)
            if not cert.passed:
                problems.append(f"{name}: witness certificate rejected: {cert.fail_reason}")
    return _result(
        7, "certified-sup-witness", 30.0, started, not problems,
        "; ".join(problems) or "3 enumerations strictly dominated; fresh certificates check out",
    )


# --- 8: the certificate-store lab ---------------------------------------------------------


def criterion_8(_rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    problems = []
    w, w2, w3 = P("w"), P("w^2"), P("w^3")
    base = BelowOrd(w3)
    certified = TheoryStore(
        "certified",
        (
            Claim(BelowOrd(w), Evidence.CHECKED, derive_ti(BelowOrd(w))),
            Claim(BelowOrd(w2), Evidence.CHECKED, derive_ti(BelowOrd(w2))),
        ),
    )
    prec = build_precT(certified, base)
    value = retype(prec)
    if value != w2:
        problems.append(f"retype gave {text(value)}, wanted w^2")
    elems = field_elements(base, 300)
    bad_pairs = 0
    for a in elems:
        for b in elems:
            expected = less(base, a, b) and lt(rank(base, b), w2)
            if prec.less(a, b) != expected:
                bad_pairs += 1
    if bad_pairs:
        problems.append(f"{bad_pairs} induced pairs disagree with the rank oracle")

    unsound = TheoryStore(
        "unsound",
        certified.claims + (Claim(RevOrd(BelowOrd(w)), Evidence.ASSERTED),),
    )
    prec_bad = build_precT(unsound, BelowOrd(w2))
    rev = RevOrd(BelowOrd(w))
    for budget in (10, 50, 200):  # the verdict must not depend on the budget
        verdict = reflect_check(prec_bad, budget)
        if verdict is None:
            problems.append(f"reflection failed to find the asserted reversal at budget {budget}")
            continue
        if verdict.claim_index != 2 or verdict.evidence is not Evidence.ASSERTED:
            problems.append("culprit misidentified")
        if len(verdict.chain) != budget:
            problems.append(f"culprit chain has length {len(verdict.chain)}, budget {budget}")
        if not all(less(rev, b, a) for a, b in zip(verdict.chain, verdict.chain[1:])):
            problems.append("culprit chain is not descending in the claimed order")
    if reflect_check(build_precT(certified, base), 50) is not None:
        problems.append("certified store produced a culprit")

    stores = [
        TheoryStore("t0", (Claim(BelowOrd(w2), Evidence.CHECKED, derive_ti(BelowOrd(w2))),)),
        TheoryStore("t1", (Claim(BelowOrd(P("w*2")), Evidence.CHECKED, derive_ti(BelowOrd(P("w*2")))),)),
        TheoryStore("t2", (Claim(FinOrd(3), Evidence.CHECKED, derive_ti(FinOrd(3))),)),
    ]
    chain = chain_check(stores, base)
    if not chain.descent_ok or [text(e.order_type) for e in chain.entries] != ["w^2", "w*2", "3"]:
        problems.append("descending chain not confirmed")
    if not all(e.witnessed for e in chain.entries[:-1]):
        problems.append("chain preconditions unverified")
    stalled = chain_check([stores[0], stores[0]], base)
    if stalled.descent_ok or stalled.first_violation != 0:
        problems.append("stalled chain not rejected")
    return _result(
        8, "incompleteness-lab", 120.0, started, not problems,
        "; ".join(problems)
        or "retype=w^2 over 300 elements; reversal culprit extracted; chain descent confirmed",
    )


# --- 9: format round-trips -------------------------------------------------------------


def criterion_9(rng: random.Random) -> CriterionResult:
    started = time.monotonic()
    bad = 0
    for _ in range(500):
        o = random_ordinal(rng, depth=3)
        if P(text(o)) != o:
            bad += 1
    for _ in range(500):
        f = random_formula(rng)
        if parse_formula(formula_text(f)) != f:
            bad += 1
    for _ in range(500):
        s = random_sequent(rng)
        if parse_sequent(sequent_text(s)) != s:
            bad += 1
    for _ in range(500):
        sp = random_spec(rng)
        if parse_spec(spec_text(sp)) != sp:
            bad += 1
    for _ in range(500):
        c = random_code(rng, depth=2)
        if parse_code(code_text(c)) != c:
            bad += 1
    return _result(
        9, "format-round-trips", 10.0, started, bad == 0,
        f"2500 objects, {bad} round-trip failures",
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def run_all(seed: int = 0, only: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for i, criterion in enumerate(CRITERIA, start=1):
        if only and i not in only:
            continue
        results.append(criterion(random.Random(seed + i)))
    return results


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.within_budget else "FAIL"
    return f"{status}  {r.number}. {r.name}  ({r.seconds:.2f}s < {r.limit:.0f}s)  {r.details}"

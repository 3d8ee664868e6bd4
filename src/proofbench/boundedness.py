"""Executable bound extraction from cut-free derivations.

Given a cut-free locally-correct derivation whose root splits as
{not-Prog(S,X)} + {t1 not-in X, ...} + Delta (Delta positive in X), walking
the tree mirrors the classical induction on the root tag alpha: axioms give
a true atom or a rank check, side-formula rules recurse, and refutations of
progressiveness invert the witness conjunction and recurse at the witness's
rank.  The produced bound is gamma = beta + 2^alpha with beta the largest
witness rank; the claim "some member of Delta[X -> ranks below gamma] is
true" is verified by budgeted evaluation, never asserted beyond what the
analyses can justify.  At every refutation step the inequality
beta0 + 2^alpha0 <= beta + 2^alpha is re-checked with ordinal arithmetic.

Order-type certificates instantiate the classical bound: a TI derivation of
tag alpha caps the order type by 2^alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import (NOT_A_WELL_ORDER, Code, RuleTag, and_invert, check_local, derive_ti, root_label,
                          step, ti_certificate_fault)
from .formulas import (
    Disj,
    ForAll,
    Formula,
    Member,
    NotFieldMember,
    NotMember,
    SegMember,
    Sequent,
    Var,
    atom_true,
    eval_closed,
    eval_term,
    instance,
    is_x_positive,
    negated_prog,
    operands,
    prog_witness_instance,
    segment_template,
    set_vars,
    substitute_sequent,
    term_vars,
)
from .orderings import OrderingSpec, field_elements, in_field, otyp, rank, rankable
from .ordinals import ZERO, Cmp, Ordinal, add, compare, le, lt, max_ord, pow2
from .verdict import Verdict, v_and, v_or


class BoundednessError(ValueError):
    pass


class CaseArithmeticError(BoundednessError):
    """The refutation-step inequality beta0 + 2^alpha0 <= beta + 2^alpha failed."""


@dataclass(frozen=True)
class RankCheck:
    element: int
    rank: Ordinal
    bound: Ordinal
    ok: bool


@dataclass(frozen=True)
class SemanticClaim:
    spec: OrderingSpec
    sequent: Sequent  # Delta with X replaced by the segment below gamma
    gamma: Ordinal
    verdict: Verdict
    eval_budget: int
    alpha: Ordinal
    beta: Ordinal
    rank_checks: tuple[RankCheck, ...]
    case4_checks: int
    nodes_visited: int


@dataclass(frozen=True)
class BoundCertificate:
    spec: OrderingSpec
    alpha: Ordinal
    bound: Ordinal
    otyp_value: Ordinal
    comparison: Cmp
    checks: tuple[RankCheck, ...]
    valid: bool


def _segment_universal_verdict(f: Formula) -> Verdict | None:
    """Decide 'every field element's rank is below gamma' by order types.

    Matches universals whose matrix disjoins (y not in field) with
    (y in the segment below gamma) for one spec; true iff otyp <= gamma.
    """
    if not isinstance(f, ForAll):
        return None
    disjuncts = list(operands(f.body, Disj))
    outside = [g for g in disjuncts if isinstance(g, NotFieldMember) and g.term == Var(f.var)]
    inside = [g for g in disjuncts if isinstance(g, SegMember) and g.term == Var(f.var)]
    for o in outside:
        for i in inside:
            if o.spec == i.spec and rankable(i.spec):
                if le(otyp(i.spec), i.bound):
                    return Verdict.TRUE
    return None


def eval_claim(delta: Sequent, budget: int) -> Verdict:
    """Budgeted truth of the disjunction of a substituted sequent."""
    acc = Verdict.FALSE if delta else Verdict.UNKNOWN
    for f in delta:
        shortcut = _segment_universal_verdict(f)
        acc = v_or(acc, shortcut if shortcut is not None else eval_closed(f, budget))
        if acc is Verdict.TRUE:
            return acc
    return acc


def _partition(spec: OrderingSpec, sequent: Sequent, var: str = "X"):
    """Split a sequent into (not-Prog, witness atoms, positive Delta)."""
    negp = negated_prog(spec, var)
    if negp not in sequent:
        raise BoundednessError("root sequent lacks the progressiveness refutation")
    witness_atoms = []
    delta = []
    for f in sequent:
        if f == negp:
            continue
        if isinstance(f, NotMember) and f.var == var and not term_vars(f.term):
            witness_atoms.append(f)
            continue
        if not is_x_positive(f, var):
            raise BoundednessError(f"side formula is not positive in {var}: {f!r}")
        if not set_vars(f) <= {var}:
            raise BoundednessError("only one set variable is supported")
        delta.append(f)
    return negp, tuple(witness_atoms), frozenset(delta)


def _beta_of(spec: OrderingSpec, witness_atoms) -> Ordinal:
    beta = ZERO
    for f in witness_atoms:
        n = eval_term(f.term)
        if in_field(spec, n):
            beta = max_ord(beta, rank(spec, n))
    return beta


class _Walker:
    def __init__(self, spec: OrderingSpec, eval_budget: int, width_budget: int):
        self.spec = spec
        self.eval_budget = eval_budget
        self.width_budget = width_budget
        self.steps_left = 20000
        self.rank_checks: list[RankCheck] = []
        self.case4 = 0
        self.nodes = 0

    def _log_rank(self, element: int, bound: Ordinal, strict: bool = True) -> Ordinal:
        rho = rank(self.spec, element)
        ok = lt(rho, bound) if strict else le(rho, bound)
        self.rank_checks.append(RankCheck(element, rho, bound, ok))
        return rho

    def claim(self, code: Code) -> tuple[Ordinal, Verdict]:
        """Returns (gamma, verdict) for the node's own sequent partition.  A rep
        chain is walked in a loop: its outermost gamma, the verdict below it."""
        outer = None
        while True:
            self.nodes += 1
            if self.steps_left <= 0:
                return (ZERO if outer is None else outer), Verdict.UNKNOWN
            self.steps_left -= 1
            s = step(code)
            label = s.label
            negp, witness_atoms, delta = _partition(self.spec, label.sequent)
            beta = _beta_of(self.spec, witness_atoms)
            alpha = label.tag
            gamma = add(beta, pow2(alpha))
            outer = gamma if outer is None else outer
            if label.rule is not RuleTag.REP:
                return outer, self._verdict(s, negp, witness_atoms, delta, beta, alpha, gamma)
            code = s.child(1)

    def _verdict(self, s, negp, witness_atoms, delta, beta, alpha, gamma) -> Verdict:
        """The verdict of a node that is not a rep."""
        rule = s.label.rule
        if rule is RuleTag.CUT:
            raise BoundednessError("cut encountered in a cut-free walk")
        if rule is RuleTag.AXM:
            for f in delta:
                if atom_true(f):
                    return Verdict.TRUE
            return Verdict.UNKNOWN
        if rule is RuleTag.AXL:
            for f in delta:
                if isinstance(f, Member) and not term_vars(f.term):
                    t = eval_term(f.term)
                    for w in witness_atoms:
                        if eval_term(w.term) == t and in_field(self.spec, t):
                            self._log_rank(t, gamma)
                            return Verdict.TRUE
            return Verdict.UNKNOWN

        # rule with premises: principal formula either refutes progressiveness
        # (the existential witness case) or sits in Delta (side-formula case)
        if rule is RuleTag.EX:
            n = s.indices[0]
            inst = prog_witness_instance(self.spec, n)
            premise = s.child(n)
            if inst in root_label(premise).sequent and instance(negp, n) == inst:
                return self._witness_case(gamma, beta, alpha, n, inst, premise)
        return self._side_case(s, negp, delta, beta, alpha, gamma)

    def _witness_case(self, gamma, beta, alpha, n, inst, premise) -> Verdict:
        self.case4 += 1
        alpha0 = root_label(premise).tag
        gamma0 = add(beta, pow2(alpha0))
        # the guard inversion bounds the witness's rank; the rank oracle
        # realizes the bound directly and the stated cap is re-checked
        if in_field(self.spec, n):
            rho = self._log_rank(n, pow2(gamma0), strict=False)
            beta0 = max_ord(rho, beta)
        else:
            beta0 = beta
        if compare(add(beta0, pow2(alpha0)), gamma) is Cmp.GT:
            raise CaseArithmeticError(
                f"beta0 + 2^alpha0 exceeds beta + 2^alpha at witness {n}"
            )
        inverted = and_invert(premise, 2, inst)
        gamma2, verdict = self.claim(inverted)
        if compare(gamma2, gamma) is Cmp.GT:
            raise CaseArithmeticError("premise bound exceeds the conclusion bound")
        return verdict

    def _side_case(self, s, negp, delta, beta, alpha, gamma) -> Verdict:
        rule = s.label.rule
        if rule is RuleTag.AND:
            g1, v1 = self.claim(s.child(1))
            g2, v2 = self.claim(s.child(2))
            if compare(max_ord(g1, g2), gamma) is Cmp.GT:
                raise CaseArithmeticError("premise bound exceeds the conclusion bound")
            return v_and(v1, v2)
        if rule in (RuleTag.OR, RuleTag.EX):
            g1, v1 = self.claim(s.child(s.indices[0]))
            if compare(g1, gamma) is Cmp.GT:
                raise CaseArithmeticError("premise bound exceeds the conclusion bound")
            return v1
        if rule is RuleTag.ALL:
            sampled = Verdict.TRUE
            for i in range(self.width_budget):
                sampled = v_and(sampled, self.claim(s.child(i))[1])
            # the sequent is a disjunction, so any universal of delta that holds
            # of the segment proves it, whichever one the rule introduced
            segment = segment_template(self.spec, gamma)
            if any(eval_claim(substitute_sequent(frozenset({f}), "X", segment), self.eval_budget)
                   is Verdict.TRUE for f in delta if isinstance(f, ForAll)):
                return Verdict.TRUE
            # finitely many sampled premises never prove the universal
            return Verdict.UNKNOWN if sampled is Verdict.TRUE else sampled
        raise BoundednessError(f"unsupported rule in the walk: {rule}")


def bounded_truth(
    code: Code,
    spec: OrderingSpec,
    eval_budget: int = 200,
    depth_budget: int = 64,
    width_budget: int = 8,
) -> SemanticClaim:
    """Extract gamma = beta + 2^alpha and verify the substituted claim.

    The spec must be a well-order, decided first; then the derivation is
    gate-checked (cut-free local correctness at the given budgets) before
    any bound is computed.  An Unknown verdict means the budgets were
    exhausted; it is never upgraded to True.
    """
    if not rankable(spec):
        raise BoundednessError(NOT_A_WELL_ORDER)
    gate = check_local(code, depth_budget, width_budget, require_cut_free=True)
    if not gate.passed:
        raise BoundednessError(f"gate check failed at {gate.fail_path}: {gate.fail_reason}")
    root = root_label(code)
    negp, witness_atoms, delta = _partition(spec, root.sequent)
    beta = _beta_of(spec, witness_atoms)
    alpha = root.tag
    gamma = add(beta, pow2(alpha))

    walker = _Walker(spec, eval_budget, width_budget)
    walked_gamma, verdict = walker.claim(code)
    if walked_gamma != gamma:
        raise BoundednessError("bound mismatch between the walk and the root")

    substituted = substitute_sequent(delta, "X", segment_template(spec, gamma))
    if verdict is not Verdict.TRUE:
        verdict = v_or(verdict, eval_claim(substituted, eval_budget))
    if any(not c.ok for c in walker.rank_checks):
        verdict = Verdict.FALSE if verdict is not Verdict.TRUE else verdict
    return SemanticClaim(
        spec=spec,
        sequent=substituted,
        gamma=gamma,
        verdict=verdict,
        eval_budget=eval_budget,
        alpha=alpha,
        beta=beta,
        rank_checks=tuple(walker.rank_checks),
        case4_checks=walker.case4,
        nodes_visited=walker.nodes,
    )


def otyp_bound(
    spec: OrderingSpec,
    code: Code,
    eval_budget: int = 200,
    depth_budget: int = 64,
    width_budget: int = 8,
) -> BoundCertificate:
    """Certify otyp(spec) <= 2^alpha from a TI derivation with root tag alpha."""
    fault = ti_certificate_fault(code, spec, depth_budget, width_budget)
    if fault is not None:
        raise BoundednessError(fault)
    alpha = root_label(code).tag
    bound = pow2(alpha)
    value = otyp(spec)
    comparison = compare(value, bound)
    checks = []
    for e in field_elements(spec, eval_budget):
        rho = rank(spec, e)
        checks.append(RankCheck(e, rho, bound, lt(rho, bound)))
    ok = comparison in (Cmp.LT, Cmp.EQ) and all(c.ok for c in checks)
    return BoundCertificate(spec, alpha, bound, value, comparison, tuple(checks), ok)


def tc_upper(spec: OrderingSpec) -> Ordinal:
    """Upper bound on the truth complexity of TI: the canonical root tag."""
    return root_label(derive_ti(spec)).tag

"""Executable bound extraction from cut-free derivations.

Given a cut-free locally-correct derivation whose root splits as
{not-Prog(S,X)} + {t1 not-in X, ...} + Delta (Delta positive in X), walking
the tree mirrors the classical induction on the root tag alpha: axioms give
a true atom or a rank check, side-formula rules pass to their premises, and
refutations of progressiveness invert the witness conjunction and go on at
the witness's rank.  The walk is one post-order loop over an explicit
stack, so a derivation of any depth walks without recursion, and a node's
verdict is folded into its conclusion's once its premises are.  Each
distinct node, keyed by value as check_local keys its memo, is checked and
walked once, so a DAG costs one visit per distinct node.  The induction
holds only of a locally correct derivation, so every node whose verdict is
folded in first passes check_local's node check (`derivations.check_node`),
beyond the gate's depth too, and a node that fails refuses the walk.  Every
node's bound is gamma = beta + 2^alpha, read off its own label, with beta the
largest witness rank; the claim "some member of Delta[X -> ranks below
gamma] is true" is verified by budgeted evaluation, never asserted beyond
what the analyses can justify.  At every refutation step the inequality
beta0 + 2^alpha0 <= beta + 2^alpha is re-checked with ordinal arithmetic.

Order-type certificates instantiate the classical bound: a TI derivation of
tag alpha caps the order type by 2^alpha.
"""

from __future__ import annotations

from .derivations import (_DECODE_ERRORS, NOT_A_WELL_ORDER, Code, Inv, RuleTag, check_local, check_node, derive_ti,
                          root_label, step, ti_certificate_fault)
from .formulas import (
    ForAll,
    Member,
    NotMember,
    Sequent,
    eval_closed,
    eval_term,
    is_x_positive,
    negated_prog,
    prog_witness_instance,
    set_vars,
    substitute,
    substitute_sequent,
    term_vars,
)
from .orderings import OrderingSpec, field_elements, in_field, otyp, rank, rankable
from .ordinals import ZERO, Cmp, Ordinal, add, compare, le, lt, max_ord, pow2
from .sexpr import term
from .verdict import Verdict, v_and, v_or


class BoundednessError(ValueError):
    pass


class CaseArithmeticError(BoundednessError):
    """The refutation-step inequality beta0 + 2^alpha0 <= beta + 2^alpha failed."""


@term
class RankCheck:
    element: int
    rank: Ordinal
    bound: Ordinal
    ok: bool


@term
class SemanticClaim:
    sequent: Sequent  # Delta with X replaced by the segment below gamma
    gamma: Ordinal
    verdict: Verdict
    alpha: Ordinal
    beta: Ordinal
    rank_checks: tuple[RankCheck, ...]
    case4_checks: int
    nodes_visited: int  # distinct nodes walked


@term
class BoundCertificate:
    alpha: Ordinal
    bound: Ordinal
    otyp_value: Ordinal
    comparison: Cmp
    checks: tuple[RankCheck, ...]
    valid: bool


def eval_claim(delta: Sequent, budget: int) -> Verdict:
    """Budgeted truth of the disjunction of a substituted sequent."""
    acc = Verdict.FALSE if delta else Verdict.UNKNOWN
    for f in delta:
        acc = v_or(acc, eval_closed(f, budget))
        if acc is Verdict.TRUE:
            return acc
    return acc


def _partition(spec: OrderingSpec, sequent: Sequent):
    """Split a sequent into (not-Prog, witness atoms, positive Delta)."""
    negp = negated_prog(spec)
    if negp not in sequent:
        raise BoundednessError("root sequent lacks the progressiveness refutation")
    witness_atoms = []
    delta = []
    for f in sequent:
        if f == negp:
            continue
        if type(f) is NotMember and f.var == "X" and not term_vars(f.term):
            witness_atoms.append(f)
            continue
        if not is_x_positive(f):
            raise BoundednessError(f"side formula is not positive in X: {f!r}")
        if not set_vars(f) <= {"X"}:
            raise BoundednessError("only one set variable is supported")
        delta.append(f)
    return tuple(witness_atoms), frozenset(delta)


def _beta_of(spec: OrderingSpec, witness_atoms) -> Ordinal:
    beta = ZERO
    for f in witness_atoms:
        n = eval_term(f.term)
        if in_field(spec, n):
            beta = max_ord(beta, rank(spec, n))
    return beta


def _within(gamma: Ordinal, bound: Ordinal | None) -> None:
    """A premise's gamma must not exceed its conclusion's, if that bounds it."""
    if bound is not None and compare(gamma, bound) is Cmp.GT:
        raise CaseArithmeticError("premise bound exceeds the conclusion bound")


class _Walker:
    def __init__(self, spec: OrderingSpec, eval_budget: int, width_budget: int):
        self.spec = spec
        self.eval_budget = eval_budget
        self.width_budget = width_budget
        self.rank_checks: list[RankCheck] = []
        self.case4 = 0
        self.nodes = 0

    def _log_rank(self, element: int, bound: Ordinal, strict: bool = True) -> Ordinal:
        rho = rank(self.spec, element)
        ok = lt(rho, bound) if strict else le(rho, bound)
        self.rank_checks.append(RankCheck(element, rho, bound, ok))
        return rho

    def claim(self, code: Code) -> tuple[Verdict, Ordinal, Ordinal, Ordinal, Sequent]:
        """The verdict of the derivation at `code`, and its root's alpha,
        beta, gamma and delta, walked in post-order off an explicit stack.
        A node counts only once it passes check_node at the width budget;
        one that fails refuses the walk.  The walk goes on to the children
        that check stepped, and a node's verdict is folded into its
        conclusion's once its own premises are folded in.  Each distinct
        node, keyed by value, is checked and walked once: met again, it adds
        the verdict it closed with, and its rank checks are logged once.  A
        node's gamma is read off its own label, and a premise's is checked
        against its conclusion's wherever it is met, except a rep link's, so
        a rep chain is bounded by its outermost link, and an All node's,
        whose verdict its own gamma decides."""
        done: dict[Code, tuple[Verdict, Ordinal]] = {}  # a closed node -> (its verdict, its gamma)
        frames: list[list] = []  # the open nodes, root first: [index, code, verdict, label, beta, gamma, delta]
        stack = [(None, code, step(code), None)]  # (index, code, its step, its conclusion's gamma); None closes
        while stack:
            if (top := stack.pop()) is None:  # the innermost open node's premises are all folded in
                _, c, verdict, label, beta, gamma, delta = frames.pop()
                if label.rule is RuleTag.ALL:
                    verdict = self._all_verdict(verdict, delta, gamma)
                done[c] = verdict, gamma
            elif (seen := done.get(top[1])) is not None:
                verdict, gamma = seen
                _within(gamma, top[3])
            else:
                i, c, s, bound = top
                self.nodes += 1
                try:
                    children, reason, below = check_node(s, self.width_budget)
                except _DECODE_ERRORS as e:  # as check_local names it
                    children, reason, below = (), f"decode error in a premise: {e}", ()
                if reason is not None:
                    path = (*(f[0] for f in frames), i)[1:] + below
                    raise BoundednessError(f"walk check failed at {path}: {reason}")
                label, rule = s.label, s.label.rule
                witness_atoms, delta = _partition(self.spec, label.sequent)
                beta = _beta_of(self.spec, witness_atoms)
                gamma = add(beta, pow2(label.tag))
                _within(gamma, bound)
                if rule is RuleTag.CUT:
                    raise BoundednessError("cut encountered in a cut-free walk")
                # an AxM node that passed its check has a true closed atom, and delta keeps it
                verdict = Verdict.TRUE
                if rule is RuleTag.AXL and not self._axl_holds(delta, witness_atoms, gamma):
                    verdict = Verdict.UNKNOWN
                elif rule is RuleTag.EX and (inverted := self._witness_case(*children[0], beta, gamma)) is not None:
                    children = [(children[0][0], inverted, step(inverted))]
                frames.append([i, c, verdict, label, beta, gamma, delta])
                unbounded = rule is RuleTag.REP or rule is RuleTag.ALL
                stack.append(None)
                stack += ((j, cc, cs, None if unbounded else gamma) for j, cc, cs in reversed(children))
                continue
            if frames:
                frames[-1][2] = v_and(frames[-1][2], verdict)
        return verdict, label.tag, beta, gamma, delta  # the root's: it closes last

    def _axl_holds(self, delta, witness_atoms, gamma) -> bool:
        """Some closed (t in X) of delta meets a witness atom (t not in X)
        with t in the field, whose rank is then checked below gamma."""
        for f in delta:
            if type(f) is Member and not term_vars(f.term):
                t = eval_term(f.term)
                for w in witness_atoms:
                    if eval_term(w.term) == t and in_field(self.spec, t):
                        self._log_rank(t, gamma)
                        return True
        return False

    def _witness_case(self, n, premise, s, beta, gamma) -> Code | None:
        """The inverted premise of an Ex node that refutes progressiveness at
        its witness n, after the witness's rank and the refutation-step
        inequality are checked; None when the node is a side-formula Ex."""
        inst = prog_witness_instance(self.spec, n)
        if inst not in s.label.sequent:
            return None
        self.case4 += 1
        alpha0 = s.label.tag
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
        return Inv(premise, inst, 2)

    def _all_verdict(self, sampled: Verdict, delta, gamma) -> Verdict:
        """The sequent is a disjunction, so any universal of delta that holds
        of the segment below gamma proves it, whichever one the rule
        introduced; finitely many sampled premises never do."""
        if any(eval_closed(substitute(f, self.spec, gamma), self.eval_budget) is Verdict.TRUE
               for f in delta if type(f) is ForAll):
            return Verdict.TRUE
        return Verdict.UNKNOWN if sampled is Verdict.TRUE else sampled


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
    any bound is computed: only the gate checks the side of each witness
    conjunction that the walk inverts away.  The walk checks each distinct
    node it folds in once, at any depth, and refuses one that fails; it
    hands back the root's alpha, beta, gamma and delta.  An Unknown verdict
    means the budgets were exhausted; it is never upgraded to True.
    """
    if not rankable(spec):
        raise BoundednessError(NOT_A_WELL_ORDER)
    gate = check_local(code, depth_budget, width_budget, require_cut_free=True)
    if not gate.passed:
        raise BoundednessError(f"gate check failed at {gate.fail_path}: {gate.fail_reason}")
    walker = _Walker(spec, eval_budget, width_budget)
    verdict, alpha, beta, gamma, delta = walker.claim(code)
    substituted = substitute_sequent(delta, spec, gamma)
    if verdict is not Verdict.TRUE:
        verdict = v_or(verdict, eval_claim(substituted, eval_budget))
    if any(not c.ok for c in walker.rank_checks):
        verdict = Verdict.FALSE if verdict is not Verdict.TRUE else verdict
    return SemanticClaim(
        sequent=substituted,
        gamma=gamma,
        verdict=verdict,
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
    return BoundCertificate(alpha, bound, value, comparison, tuple(checks), ok)


def tc_upper(spec: OrderingSpec) -> Ordinal:
    """Upper bound on the truth complexity of TI: the canonical root tag."""
    return root_label(derive_ti(spec)).tag

"""Finitary codes for omega-branching derivations, checked locally.

A code is a closed term denoting a (possibly infinitely branching) one-sided
derivation tree.  step() is total: it yields the root label (sequent, rule,
ordinal tag), the premise index set, and a function computing the i-th child
code on demand.  Explicit nodes embed their children; All nodes branch over
all naturals through a child family; builder terms produce canonical
transfinite-induction derivations; transformer terms relabel (Mono) or
invert a conjunction (Inv) lazily.

Ordinal tags are bounds, not depths: local checking only requires strict
descent from parent to child.  The checker explores to a depth budget,
samples an initial window of every All node's children, and flags
truncation rather than silently passing unverified branches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Union, get_args

from . import sexpr
from .formulas import (
    FORMULA,
    SEQUENTS,
    Conj,
    Disj,
    Exists,
    ForAll,
    Formula,
    FormulaError,
    Member,
    NotMember,
    Num,
    Sequent,
    atom_true,
    eval_term,
    field_statement,
    negate,
    prog_formula,
    prog_witness_instance,
    seq,
    subst_num,
    term_vars,
    ti_sequent,
)
from .orderings import (
    ORDINAL,
    SPEC,
    OrderingSpec,
    UnsupportedRankError,
    finite_field,
    finite_predecessors,
    in_field,
    less,
    otyp,
    rank,
    rankable,
)
from .ordinals import EPSILON, OMEGA, ONE, ZERO, Cmp, NotationError, Ordinal, add, compare, from_int, le, lt, mul, succ
from .sexpr import ENTRIES, INT, Role


class DerivationError(ValueError):
    pass


class RuleTag(Enum):
    AXM = "AxM"
    AXL = "AxL"
    AND = "And"
    OR = "Or"
    ALL = "All"
    EX = "Ex"
    CUT = "Cut"
    REP = "Rep"


@dataclass(frozen=True)
class NodeLabel:
    sequent: Sequent
    rule: RuleTag
    tag: Ordinal


class _Nat:
    """Index set of an All node: all naturals."""

    def __repr__(self):
        return "NAT"


NAT = _Nat()


@dataclass(frozen=True)
class Step:
    label: NodeLabel
    indices: Union[tuple[int, ...], _Nat]
    child: Callable[[int], "Code"]


# --- code terms -----------------------------------------------------------------


@dataclass(frozen=True)
class AxMNode:
    sequent: Sequent
    tag: Ordinal


@dataclass(frozen=True)
class AxLNode:
    sequent: Sequent
    tag: Ordinal


@dataclass(frozen=True)
class AndNode:
    sequent: Sequent
    tag: Ordinal
    left: "Code"
    right: "Code"


@dataclass(frozen=True)
class OrNode:
    sequent: Sequent
    tag: Ordinal
    branch: int
    child: "Code"


@dataclass(frozen=True)
class ExNode:
    sequent: Sequent
    tag: Ordinal
    witness: int
    child: "Code"


@dataclass(frozen=True)
class CutNode:
    sequent: Sequent
    tag: Ordinal
    left: "Code"
    right: "Code"


@dataclass(frozen=True)
class RepNode:
    sequent: Sequent
    tag: Ordinal
    child: "Code"


@dataclass(frozen=True)
class TiKids:
    """Children of the TI root: one sub-derivation per natural."""

    spec: OrderingSpec

    def child(self, i: int) -> "Code":
        return _root_child(self.spec, i)


@dataclass(frozen=True)
class PredKids:
    """Children of the predecessor quantifier inside a TI sub-derivation."""

    spec: OrderingSpec
    element: int

    def child(self, i: int) -> "Code":
        return _pred_child(self.spec, self.element, i)


@dataclass(frozen=True)
class TiVac:
    """Default child family: vacuous field-membership axioms."""

    spec: OrderingSpec

    def child(self, i: int) -> "Code":
        return _vacuous_root_child(self.spec, i)


@dataclass(frozen=True)
class PredVac:
    """Default child family: vacuous non-predecessor axioms."""

    spec: OrderingSpec
    element: int

    def child(self, i: int) -> "Code":
        return _vacuous_pred_child(self.spec, self.element, i)


@dataclass(frozen=True)
class FiniteSupport:
    """Explicit children at finitely many indices, a default family elsewhere."""

    entries: tuple[tuple[int, "Code"], ...]
    default: "Default"

    def child(self, i: int) -> "Code":
        for j, c in self.entries:
            if j == i:
                return c
        return self.default.child(i)


Family = Union[TiKids, PredKids, FiniteSupport]
Default = Union[TiVac, PredVac]


@dataclass(frozen=True)
class AllNode:
    sequent: Sequent
    tag: Ordinal
    family: Family


@dataclass(frozen=True)
class TiProg:
    """Canonical derivation of {not-Prog(spec,X), n in X}, tag w*(rank(n)+1)."""

    spec: OrderingSpec
    element: int


@dataclass(frozen=True)
class TiRoot:
    """Canonical derivation of the TI sequent, tag w*otyp(spec)+1."""

    spec: OrderingSpec


@dataclass(frozen=True)
class Mono:
    """Weakening by relabelling: same tree, root label (sequent, tag) replaced."""

    child: "Code"
    sequent: Sequent
    tag: Ordinal


@dataclass(frozen=True)
class Inv:
    """Conjunction inversion: derive (root - conj) + chosen conjunct."""

    child: "Code"
    conj: Formula
    which: int


Code = Union[
    AxMNode, AxLNode, AndNode, OrNode, ExNode, CutNode, RepNode, AllNode,
    TiProg, TiRoot, Mono, Inv,
]


# --- S-expression certificate format ----------------------------------------------------


def code_text(code: Code) -> str:
    return sexpr.dump(sexpr.write(CODES, code))


def parse_code(s: str) -> Code:
    return sexpr.read(CODES, sexpr.parse(s))


# --- shapes ----------------------------------------------------------------------
#
# As in formulas: one table gives every code kind, child family and default
# family its head and field roles, fields in head argument order.  Explicit
# nodes also name their rule and where they keep their premises.  Codes nest
# without limit; the values inside them nest at most ordinals.MAX_NESTING deep.

CODES = sexpr.Sort("a derivation code", DerivationError, bounded=False)
FAMILIES = sexpr.Sort("a child family", DerivationError, bounded=False)
DEFAULTS = sexpr.Sort("a default family", DerivationError, bounded=False)
_SEQUENT = Role(sort=SEQUENTS)
_CODE = Role(sort=CODES)
_FAMILY = Role(sort=FAMILIES)
_DEFAULT = Role(sort=DEFAULTS)
_ENTRIES = Role(sort=CODES, many=ENTRIES)


class _Shape(NamedTuple):
    head: str
    roles: tuple[Role, ...]
    rule: RuleTag | None = None
    # (index, field) per premise; the index is a number or names its field
    premises: tuple[tuple[int | str, str], ...] = ()


_SHAPES = {
    AxMNode: _Shape("axm", (_SEQUENT, ORDINAL), RuleTag.AXM),
    AxLNode: _Shape("axl", (_SEQUENT, ORDINAL), RuleTag.AXL),
    AndNode: _Shape("and", (_SEQUENT, ORDINAL, _CODE, _CODE), RuleTag.AND, ((1, "left"), (2, "right"))),
    OrNode: _Shape("or", (_SEQUENT, ORDINAL, INT, _CODE), RuleTag.OR, (("branch", "child"),)),
    ExNode: _Shape("ex", (_SEQUENT, ORDINAL, INT, _CODE), RuleTag.EX, (("witness", "child"),)),
    CutNode: _Shape("cut", (_SEQUENT, ORDINAL, _CODE, _CODE), RuleTag.CUT, ((1, "left"), (2, "right"))),
    RepNode: _Shape("rep", (_SEQUENT, ORDINAL, _CODE), RuleTag.REP, ((1, "child"),)),
    AllNode: _Shape("all", (_SEQUENT, ORDINAL, _FAMILY), RuleTag.ALL),
    TiProg: _Shape("tiprog", (SPEC, INT)),
    TiRoot: _Shape("tiroot", (SPEC,)),
    Mono: _Shape("mono", (_CODE, _SEQUENT, ORDINAL)),
    Inv: _Shape("inv", (_CODE, FORMULA, INT)),
    TiKids: _Shape("tikids", (SPEC,)),
    PredKids: _Shape("predkids", (SPEC, INT)),
    FiniteSupport: _Shape("fs", (_ENTRIES, _DEFAULT)),
    TiVac: _Shape("tivac", (SPEC,)),
    PredVac: _Shape("predvac", (SPEC, INT)),
}

for _sort, _union in ((CODES, Code), (FAMILIES, Family), (DEFAULTS, Default)):
    _sort.define({cls: _SHAPES[cls][:2] for cls in get_args(_union)})

_RULES = {cls: shape.rule for cls, shape in _SHAPES.items() if shape.rule is not None}
_PREMISES = {cls: shape.premises for cls, shape in _SHAPES.items() if cls not in (AllNode, FiniteSupport)}


def premises(code) -> dict[int, "Code"]:
    """Index -> premise of an explicit node or of a finite-support family.

    An All node answers for its family.  Codes whose premises are not
    written out (axioms, builders, transformers, infinite families) give {}.
    """
    kids = {}
    pairs = _PREMISES.get(type(code))
    if pairs is None:
        if type(code) is AllNode:
            return premises(code.family)
        if type(code) is FiniteSupport:
            for i, c in code.entries:
                kids.setdefault(i, c)  # the first entry for an index is its child
        return kids
    for index, field in pairs:
        kids[index if type(index) is int else getattr(code, index)] = getattr(code, field)
    return kids


def with_premises(code, kids: dict[int, "Code"]):
    """The same node with the premises that `premises` reads replaced by kids."""
    cls = type(code)
    if cls is AllNode:
        return AllNode(code.sequent, code.tag, with_premises(code.family, kids))
    if cls is FiniteSupport:
        return FiniteSupport(tuple(kids.items()), code.default)
    fields = code.__dict__.copy()
    for index, field in _PREMISES[cls]:
        fields[field] = kids[index if type(index) is int else fields[index]]
    return cls(**fields)


# --- canonical TI builders ---------------------------------------------------------


@lru_cache(maxsize=None)
def _negprog(spec: OrderingSpec) -> Formula:
    return negate(prog_formula(spec))


def _delta_n(spec: OrderingSpec, n: int) -> Sequent:
    return seq(_negprog(spec), Member(Num(n)))


def _instance_parts(spec: OrderingSpec, n: int):
    inst = prog_witness_instance(spec, n)
    guard = inst.left  # (n in field) and (all predecessors in X)
    return inst, guard, guard.left, guard.right, inst.right


def _ti_body(spec: OrderingSpec, n: int) -> Code:
    """The witness-introduction body under the existential at element n."""
    rho = rank(spec, n)
    base = mul(OMEGA, rho)
    inst, guard, field_atom, allpred, not_in_x = _instance_parts(spec, n)
    delta = _delta_n(spec, n)
    n3a = AxMNode(delta | {field_atom}, ZERO)
    n3b = AllNode(delta | {allpred}, add(base, from_int(2)), PredKids(spec, n))
    n2a = AndNode(delta | {guard}, add(base, from_int(3)), n3a, n3b)
    n2b = AxLNode(delta | {not_in_x}, ZERO)
    return AndNode(delta | {inst}, add(base, from_int(4)), n2a, n2b)


def _pred_child(spec: OrderingSpec, n: int, i: int) -> Code:
    if less(spec, i, n):
        rho = rank(spec, n)
        _, _, _, allpred, _ = _instance_parts(spec, n)
        inst_i = subst_num(allpred.body, allpred.var, i)
        or_seq = _delta_n(spec, n) | {inst_i}
        return OrNode(or_seq, add(mul(OMEGA, rho), ONE), 2, TiProg(spec, i))
    return _vacuous_pred_child(spec, n, i)


def _vacuous_pred_child(spec: OrderingSpec, n: int, i: int) -> Code:
    rho = rank(spec, n)
    _, _, _, allpred, _ = _instance_parts(spec, n)
    inst_i = subst_num(allpred.body, allpred.var, i)
    not_less = inst_i.left
    or_seq = _delta_n(spec, n) | {inst_i}
    leaf = AxMNode(_delta_n(spec, n) | {not_less}, ZERO)
    return OrNode(or_seq, add(mul(OMEGA, rho), ONE), 1, leaf)


def _field_instance(spec: OrderingSpec, i: int) -> Formula:
    fld = field_statement(spec)
    return subst_num(fld.body, fld.var, i)


def _root_child(spec: OrderingSpec, i: int) -> Code:
    if not in_field(spec, i):
        return _vacuous_root_child(spec, i)
    rho = rank(spec, i)
    or_seq = seq(_negprog(spec), _field_instance(spec, i))
    core = ExNode(_delta_n(spec, i), add(mul(OMEGA, rho), from_int(5)), i, _ti_body(spec, i))
    return OrNode(or_seq, mul(OMEGA, succ(rho)), 2, core)


def _vacuous_root_child(spec: OrderingSpec, i: int) -> Code:
    inst = _field_instance(spec, i)
    leaf = AxMNode(seq(_negprog(spec), inst.left), ZERO)
    return OrNode(seq(_negprog(spec), inst), ONE, 1, leaf)


def derive_ti(spec: OrderingSpec) -> Code:
    """Cut-free canonical derivation of the TI sequent for a well-founded spec."""
    if not rankable(spec):
        raise DerivationError("derive_ti needs a well-founded combinator spec")
    if compare(otyp(spec), EPSILON) is not Cmp.LT:
        raise DerivationError("order type too large for the tag discipline")
    return TiRoot(spec)


# --- step ---------------------------------------------------------------------------


def step(code: Code) -> Step:
    """Decode one node: label, premise index set, and child-code function."""
    cls = type(code)
    rule = _RULES.get(cls)
    if rule is not None:
        if cls is AllNode:
            return Step(NodeLabel(code.sequent, rule, code.tag), NAT, code.family.child)
        if cls is OrNode and code.branch not in (1, 2):
            raise DerivationError("Or branch index must be 1 or 2")
        if cls is ExNode and code.witness < 0:
            raise DerivationError("Ex witness must be a natural")
        kids = premises(code)
        return Step(NodeLabel(code.sequent, rule, code.tag), tuple(kids), kids.__getitem__)
    if cls is TiProg:
        spec, n = code.spec, code.element
        rho = rank(spec, n)
        return Step(
            NodeLabel(_delta_n(spec, n), RuleTag.EX, mul(OMEGA, succ(rho))),
            (n,),
            lambda i: _ti_body(spec, n),
        )
    if cls is TiRoot:
        spec = code.spec
        tag = add(mul(OMEGA, otyp(spec)), ONE)
        return Step(NodeLabel(ti_sequent(spec), RuleTag.ALL, tag), NAT, TiKids(spec).child)
    if cls is Mono or cls is Inv:
        return _step_chain(code)
    raise DerivationError(f"not a derivation code: a {cls.__name__}")


def _step_chain(code: Mono | Inv) -> Step:
    """A chain of transformers (Mono, Inv) is peeled in a loop: the code
    under it is stepped once, then the transformers are applied outward."""
    chain = []
    while type(code) is Mono or type(code) is Inv:
        chain.append(code)
        code = code.child
    s = step(code)
    while chain:
        t = chain.pop()
        s = _step_mono(t, s) if type(t) is Mono else _step_inv(t, s)
    return s


def _step_mono(code: Mono, inner: Step) -> Step:
    """The step of `code` from the step of its child."""
    if inner.label.rule is RuleTag.REP:
        # a repetition premise must equal its conclusion, so the
        # weakening is pushed through to the child (at its own tag)
        child = inner.child(1)
        # a Mono's tag is its own field: stepping a chain of them for it
        # would step each link again, twice more per level
        child_tag = child.tag if type(child) is Mono else step(child).label.tag
        return Step(
            NodeLabel(code.sequent, RuleTag.REP, code.tag),
            (1,),
            lambda i: Mono(child, code.sequent, child_tag),
        )
    return Step(NodeLabel(code.sequent, inner.label.rule, code.tag), inner.indices, inner.child)


def _step_inv(code: Inv, inner: Step) -> Step:
    """The step of `code` from the step of its child."""
    delta = inner.label.sequent
    conj, which = code.conj, code.which
    if not isinstance(conj, Conj) or which not in (1, 2):
        raise DerivationError("inversion needs a conjunction and a branch in {1,2}")
    if conj not in delta:
        raise DerivationError("inversion target missing from the sequent")
    picked = conj.left if which == 1 else conj.right
    new_seq = (delta - {conj}) | {picked}
    rule = inner.label.rule
    if rule is RuleTag.CUT:
        raise DerivationError("inversion requires a cut-free code")
    if rule is RuleTag.AND:
        left, right = inner.child(1), inner.child(2)
        l1, l2 = step(left).label, step(right).label
        if l1.sequent <= delta | {conj.left} and l2.sequent <= delta | {conj.right}:
            # this node introduces the conjunction: splice the chosen premise
            chosen = left if which == 1 else right
            if conj in step(chosen).label.sequent:
                chosen = Inv(chosen, conj, which)
            return step(Mono(chosen, new_seq, inner.label.tag))

    below = inner.child if type(inner.child) is _Inverted else _Inverted(inner.child, ())
    kids = _Inverted(below.child, below.inversions + ((conj, which, picked),))
    return Step(NodeLabel(new_seq, rule, inner.label.tag), inner.indices, kids)


class _Inverted(NamedTuple):
    """The children under a chain of inversions, and its (conj, which, picked)
    triples, innermost first.  A child is stepped once, then its sequent is
    tracked: each inversion trades a present `conj` for `picked`."""

    child: Callable[[int], Code]
    inversions: tuple[tuple[Formula, int, Formula], ...]

    def __call__(self, i: int) -> Code:
        c = self.child(i)
        seq = set(step(c).label.sequent)
        for conj, which, picked in self.inversions:
            if conj in seq:
                c = Inv(c, conj, which)
                seq.remove(conj)
                seq.add(picked)
        return c


def root_label(code: Code) -> NodeLabel:
    return step(code).label


# --- transformations ------------------------------------------------------------------


def weaken(code: Code, gamma: Sequent, beta: Ordinal) -> Code:
    """Monotonicity: bigger sequent, bigger tag, same tree."""
    root = root_label(code)
    if not root.sequent <= gamma:
        raise DerivationError("weakening target must contain the root sequent")
    if not le(root.tag, beta):
        raise DerivationError("weakening tag must not decrease")
    return Mono(code, gamma, beta)


def and_invert(code: Code, which: int, conj: Formula | None = None) -> Code:
    """Inversion: from a proof of Delta + (A1 and A2) to Delta + A_which."""
    if which not in (1, 2):
        raise DerivationError("conjunct index must be 1 or 2")
    root = root_label(code)
    if conj is None:
        candidates = [f for f in root.sequent if isinstance(f, Conj)]
        if len(candidates) != 1:
            raise DerivationError(
                f"root holds {len(candidates)} conjunctions; pass the target explicitly"
            )
        conj = candidates[0]
    if conj not in root.sequent or not isinstance(conj, Conj):
        raise DerivationError("inversion target must be a conjunction in the root sequent")
    return Inv(code, conj, which)


def make_rep(code: Code, tag: Ordinal) -> Code:
    """Repetition node on top of a code, at a strictly larger tag."""
    root = root_label(code)
    if not lt(root.tag, tag):
        raise DerivationError("repetition tag must strictly increase")
    return RepNode(root.sequent, tag, code)


# --- local-correctness checking ----------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    fail_path: tuple[int, ...] | None
    fail_reason: str | None
    nodes_visited: int
    max_depth: int
    cut_free: bool
    truncated: bool
    nodes_checked: int


def _axl_holds(delta: Sequent) -> bool:
    ins = [f for f in delta if isinstance(f, Member) and not term_vars(f.term)]
    outs = [f for f in delta if isinstance(f, NotMember) and not term_vars(f.term)]
    for fin in ins:
        for fout in outs:
            if fin.var == fout.var and eval_term(fin.term) == eval_term(fout.term):
                return True
    return False


def _clause_ok(label: NodeLabel, kids: dict[int, NodeLabel], indices) -> str | None:
    """None when the node's local condition holds, else a reason."""
    delta, rule = label.sequent, label.rule
    if rule is RuleTag.AXM:
        if indices != ():
            return "axiom with premises"
        if not any(atom_true(f) for f in delta):
            return "no true closed atom for AxM"
        return None
    if rule is RuleTag.AXL:
        if indices != ():
            return "axiom with premises"
        if not _axl_holds(delta):
            return "no matching membership pair for AxL"
        return None
    if rule is RuleTag.AND:
        if indices != (1, 2):
            return "And wants premise indices {1,2}"
        for f in delta:
            if isinstance(f, Conj):
                if kids[1].sequent <= delta | {f.left} and kids[2].sequent <= delta | {f.right}:
                    return None
        return "no conjunction in the sequent matches the premises"
    if rule is RuleTag.OR:
        if len(indices) != 1 or indices[0] not in (1, 2):
            return "Or wants a single premise indexed 1 or 2"
        i = indices[0]
        for f in delta:
            if isinstance(f, Disj):
                side = f.left if i == 1 else f.right
                if kids[i].sequent <= delta | {side}:
                    return None
        return "no disjunction in the sequent matches the premise"
    if rule is RuleTag.ALL:
        if indices is not NAT:
            return "All wants premises for every natural"
        for f in delta:
            if isinstance(f, ForAll):
                if all(
                    kid.sequent <= delta | {subst_num(f.body, f.var, i)}
                    for i, kid in kids.items()
                ):
                    return None
        return "no universal formula matches the sampled premises"
    if rule is RuleTag.EX:
        if len(indices) != 1 or indices[0] < 0:
            return "Ex wants a single premise indexed by its witness"
        n = indices[0]
        for f in delta:
            if isinstance(f, Exists):
                if kids[n].sequent <= delta | {subst_num(f.body, f.var, n)}:
                    return None
        return "no existential formula matches the premise"
    if rule is RuleTag.CUT:
        if indices != (1, 2):
            return "Cut wants premise indices {1,2}"
        candidates = list(kids[1].sequent - delta) + [negate(g) for g in kids[2].sequent - delta]
        if not candidates:
            return None  # both premises lie inside delta: any cut formula fits
        for a in candidates:
            if kids[1].sequent <= delta | {a} and kids[2].sequent <= delta | {negate(a)}:
                return None
        return "no cut formula matches the premises"
    if rule is RuleTag.REP:
        if indices != (1,):
            return "Rep wants exactly one premise"
        if kids[1].sequent != delta:
            return "repetition premise must repeat the sequent"
        return None
    return f"unknown rule {rule}"


_DECODE_ERRORS = (DerivationError, FormulaError, NotationError, UnsupportedRankError)

# The codes whose passed subtrees check_local reuses.  A builder's fields are
# a spec and an int, so it hashes cheaply; an explicit node's hash walks its
# whole subtree again on every call.
_REUSED = (TiProg, TiRoot)


def check_local(
    code: Code,
    depth_budget: int = 64,
    width_budget: int = 8,
    require_cut_free: bool = False,
) -> CheckReport:
    """Verify local correctness along a budgeted exploration.

    Each visited node's rule clause is checked against its (sampled)
    children, tags must strictly descend, and Cut nodes trip the cut_free
    flag (a failure when require_cut_free).  All nodes contribute children
    0..width_budget-1; skipped branches set `truncated`, never a silent pass.

    The report is that of walking the whole tree, but each builder subtree
    (TiProg, TiRoot) is checked once per remaining depth: the budgets are
    fixed for the call, so the pair fixes the subtree, and a copy met again
    adds the counts of the first.  Only subtrees that passed are kept, and
    only for this call.  `nodes_checked` counts the clauses evaluated.
    """
    nodes = checked = max_depth = 0
    cut_free, truncated = True, False
    # (builder, remaining depth) -> (nodes, height, cut_free, truncated)
    passed: dict[tuple[Code, int], tuple[int, int, bool, bool]] = {}
    # open builder subtrees: key, depth, nodes before, and the outer
    # max_depth, cut_free and truncated; the counters restart inside
    frames: list[tuple[tuple[Code, int], int, int, int, bool, bool]] = []
    # (code, its step, depth, path); only the root comes unstepped, and a
    # None code closes the innermost frame
    stack: list[tuple[Code | None, Step | None, int, tuple[int, ...]]] = [(code, None, 0, ())]

    def fail(path, reason):
        md, cf, tr = max_depth, cut_free, truncated
        for *_, outer_md, outer_cf, outer_tr in frames:
            md, cf, tr = max(md, outer_md), cf and outer_cf, tr or outer_tr
        return CheckReport(False, path, reason, nodes, md, cf, tr, checked)

    while stack:
        node, s, depth, path = stack.pop()
        if node is None:
            key, top, before, outer_md, outer_cf, outer_tr = frames.pop()
            passed[key] = (nodes - before, max_depth - top, cut_free, truncated)
            max_depth = max(max_depth, outer_md)
            cut_free, truncated = cut_free and outer_cf, truncated or outer_tr
            continue
        if type(node) in _REUSED:
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
            except _DECODE_ERRORS as e:
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
        kids: dict[int, NodeLabel] = {}
        children: list[tuple[int, Code, Step]] = []
        try:
            for i in idxs:
                c = s.child(i)
                cs = step(c)
                kids[i] = cs.label
                children.append((i, c, cs))
        except _DECODE_ERRORS as e:
            return fail(path, f"decode error in a premise: {e}")
        checked += 1
        reason = _clause_ok(s.label, kids, s.indices if s.indices is NAT else tuple(idxs))
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
    return CheckReport(True, None, None, nodes, max_depth, cut_free, truncated, checked)


# --- full expansion (finite builders only) ----------------------------------------------


def expand(code: Code) -> Code:
    """Rewrite builder terms into explicit nodes (finite-support All nodes).

    Only possible when every All family has finite support: finite fields
    for the TI root, finite-rank elements for predecessor quantifiers.
    Transformed codes (Mono over such a tree) expand by relabelling.
    """
    cls = type(code)
    if cls is AllNode and type(code.family) is not FiniteSupport:
        code = AllNode(code.sequent, code.tag, _finite_support(code.family))
    if cls in _RULES:
        kids = premises(code)
        for i, c in kids.items():
            kids[i] = expand(c)
        return with_premises(code, kids) if kids else code
    if cls is TiRoot:
        tag = add(mul(OMEGA, otyp(code.spec)), ONE)
        return expand(AllNode(ti_sequent(code.spec), tag, TiKids(code.spec)))
    if cls is TiProg:
        s = step(code)
        return ExNode(s.label.sequent, s.label.tag, code.element, expand(_ti_body(code.spec, code.element)))
    if cls is Mono:
        return dataclasses.replace(expand(code.child), sequent=code.sequent, tag=code.tag)
    raise DerivationError(f"cannot expand {cls.__name__} terms")


def _finite_support(fam: Family) -> FiniteSupport:
    """The family's in-support children written out, unexpanded."""
    cls = type(fam)
    if cls is TiKids:
        support, default, why = finite_field(fam.spec), TiVac(fam.spec), "infinite field"
    elif cls is PredKids:
        support = finite_predecessors(fam.spec, fam.element)
        default, why = PredVac(fam.spec, fam.element), "infinitely many predecessors"
    else:
        raise DerivationError(f"unknown family: a {cls.__name__}")
    if support is None:
        raise DerivationError(f"cannot expand: {why}")
    return FiniteSupport(tuple((i, fam.child(i)) for i in sorted(support)), default)

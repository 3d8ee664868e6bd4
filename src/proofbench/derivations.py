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

from enum import Enum
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
    instance,
    negate,
    negated_prog,
    prog_witness_instance,
    seq,
    term_vars,
    ti_sequent,
    ti_spec,
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
from .sexpr import ENTRIES, INT, Role, term


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

    __hash__ = object.__hash__  # members are singletons; Enum's hashes the name in Python


class NodeLabel(NamedTuple):
    sequent: Sequent
    rule: RuleTag
    tag: Ordinal


class _Nat:
    """Index set of an All node: all naturals."""

    def __repr__(self):
        return "NAT"


NAT = _Nat()


class Step(NamedTuple):
    label: NodeLabel
    indices: Union[tuple[int, ...], _Nat]
    child: Callable[[int], "Code"]


# --- code terms -----------------------------------------------------------------


@term
class AxMNode:
    sequent: Sequent
    tag: Ordinal


@term
class AxLNode:
    sequent: Sequent
    tag: Ordinal


@term
class AndNode:
    sequent: Sequent
    tag: Ordinal
    left: "Code"
    right: "Code"


@term
class OrNode:
    sequent: Sequent
    tag: Ordinal
    branch: int
    child: "Code"


@term
class ExNode:
    sequent: Sequent
    tag: Ordinal
    witness: int
    child: "Code"


@term
class CutNode:
    sequent: Sequent
    tag: Ordinal
    left: "Code"
    right: "Code"


@term
class RepNode:
    sequent: Sequent
    tag: Ordinal
    child: "Code"


@term
class TiKids:
    """Children of the TI root: one sub-derivation per natural."""

    spec: OrderingSpec

    def children(self) -> Callable[[int], "Code"]:
        return _root_children(self.spec, vacuous=False)


@term
class PredKids:
    """Children of the predecessor quantifier inside a TI sub-derivation."""

    spec: OrderingSpec
    element: int

    def children(self) -> Callable[[int], "Code"]:
        return _pred_children(self.spec, self.element, vacuous=False)


@term
class TiVac:
    """Default child family: vacuous field-membership axioms."""

    spec: OrderingSpec

    def children(self) -> Callable[[int], "Code"]:
        return _root_children(self.spec, vacuous=True)


@term
class PredVac:
    """Default child family: vacuous non-predecessor axioms."""

    spec: OrderingSpec
    element: int

    def children(self) -> Callable[[int], "Code"]:
        return _pred_children(self.spec, self.element, vacuous=True)


@term
class FiniteSupport:
    """Explicit children at finitely many indices, a default family elsewhere."""

    entries: tuple[tuple[int, "Code"], ...]
    default: "Default"

    def children(self) -> Callable[[int], "Code"]:
        kids = None
        default = self.default.children()

        def child(i: int) -> "Code":
            nonlocal kids
            if kids is None:
                kids = premises(self)
            return kids[i] if i in kids else default(i)

        return child


Family = Union[TiKids, PredKids, FiniteSupport]
Default = Union[TiVac, PredVac]


@term
class AllNode:
    sequent: Sequent
    tag: Ordinal
    family: Family


@term
class TiProg:
    """Canonical derivation of {not-Prog(spec,X), n in X}, tag w*(rank(n)+1)."""

    spec: OrderingSpec
    element: int


@term
class TiRoot:
    """Canonical derivation of the TI sequent, tag w*otyp(spec)+1."""

    spec: OrderingSpec


@term
class Mono:
    """Weakening by relabelling: same tree, root label (sequent, tag) replaced."""

    child: "Code"
    sequent: Sequent
    tag: Ordinal


@term
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
    return sexpr.write(CODES, code)


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
    return sexpr.replace(code, **{
        field: kids[index if type(index) is int else getattr(code, index)] for index, field in _PREMISES[cls]})


# --- canonical TI builders ---------------------------------------------------------


def _delta_n(spec: OrderingSpec, n: int) -> Sequent:
    return seq(negated_prog(spec), Member(Num(n)))


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


# A family's child function builds the parts that every child shares at the
# first child asked for, not when the family is stepped: a malformed family
# then fails where its children are decoded, and a caller that reads only
# the label pays nothing.  The parts live as long as the function.  Two
# threads racing on the first child each build them, and one rebinding wins.


def _pred_children(spec: OrderingSpec, n: int, vacuous: bool) -> Callable[[int], Code]:
    """Child i proves `i is not below n, or i is in X` under Delta_n: by the
    sub-derivation at i when i is below n (never when vacuous), else by the
    true atom `i is not below n`."""
    parts = None

    def child(i: int) -> Code:
        nonlocal parts
        below = not vacuous and less(spec, i, n)
        if parts is None:
            rho = rank(spec, n)
            _, _, _, allpred, _ = _instance_parts(spec, n)
            parts = (allpred, _delta_n(spec, n), add(mul(OMEGA, rho), ONE))
        allpred, delta, tag = parts
        inst_i = instance(allpred, i)
        if below:
            return OrNode(delta | {inst_i}, tag, 2, TiProg(spec, i))
        return OrNode(delta | {inst_i}, tag, 1, AxMNode(delta | {inst_i.left}, ZERO))

    return child


def _root_children(spec: OrderingSpec, vacuous: bool) -> Callable[[int], Code]:
    """Child i proves `i is not in the field, or i is in X` under not-Prog:
    by refuting Prog at i when i is in the field (never when vacuous), else
    by the true atom `i is not in the field`."""
    parts = None

    def child(i: int) -> Code:
        nonlocal parts
        rho = rank(spec, i) if not vacuous and in_field(spec, i) else None
        if parts is None:
            parts = (seq(negated_prog(spec)), field_statement(spec))
        negprog, fld = parts
        inst = instance(fld, i)
        if rho is not None:
            core = ExNode(_delta_n(spec, i), add(mul(OMEGA, rho), from_int(5)), i, _ti_body(spec, i))
            return OrNode(negprog | {inst}, mul(OMEGA, succ(rho)), 2, core)
        return OrNode(negprog | {inst}, ONE, 1, AxMNode(negprog | {inst.left}, ZERO))

    return child


def derive_ti(spec: OrderingSpec) -> Code:
    """Cut-free canonical derivation of the TI sequent for a well-founded spec."""
    if not rankable(spec):
        raise DerivationError("derive_ti needs a well-founded combinator spec")
    if compare(otyp(spec), EPSILON) is not Cmp.LT:
        raise DerivationError("order type too large for the tag discipline")
    return TiRoot(spec)


# --- step ---------------------------------------------------------------------------


_NO_PREMISES = {}.__getitem__


def step(code: Code) -> Step:
    """Decode one node: label, premise index set, and child-code function."""
    cls = type(code)
    rule = _RULES.get(cls)
    if rule is not None:
        if cls is AllNode:
            return Step(NodeLabel(code.sequent, rule, code.tag), NAT, code.family.children())
        # the rules of every sampled child, built without the premises loop
        if cls is OrNode:
            if code.branch not in (1, 2):
                raise DerivationError("Or branch index must be 1 or 2")
            return Step(NodeLabel(code.sequent, rule, code.tag), (code.branch,), {code.branch: code.child}.__getitem__)
        if cls is AxMNode or cls is AxLNode:
            return Step(NodeLabel(code.sequent, rule, code.tag), (), _NO_PREMISES)
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
        return Step(NodeLabel(ti_sequent(spec), RuleTag.ALL, tag), NAT, TiKids(spec).children())
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
    if type(conj) is not Conj or which not in (1, 2):
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
        candidates = [f for f in root.sequent if type(f) is Conj]
        if len(candidates) != 1:
            raise DerivationError(
                f"root holds {len(candidates)} conjunctions; pass the target explicitly"
            )
        conj = candidates[0]
    if conj not in root.sequent or type(conj) is not Conj:
        raise DerivationError("inversion target must be a conjunction in the root sequent")
    return Inv(code, conj, which)


def make_rep(code: Code, tag: Ordinal) -> Code:
    """Repetition node on top of a code, at a strictly larger tag."""
    root = root_label(code)
    if not lt(root.tag, tag):
        raise DerivationError("repetition tag must strictly increase")
    return RepNode(root.sequent, tag, code)


# --- local-correctness checking ----------------------------------------------------------


@term
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
    ins = [f for f in delta if type(f) is Member and not term_vars(f.term)]
    outs = [f for f in delta if type(f) is NotMember and not term_vars(f.term)]
    for fin in ins:
        for fout in outs:
            if fin.var == fout.var and eval_term(fin.term) == eval_term(fout.term):
                return True
    return False


# Each introduction rule: its connective, a test of its premise indices, and
# its reasons for failing on wrong indices and on no matching formula.
INTRODUCTIONS = {
    RuleTag.AND: (Conj, lambda ix: ix == (1, 2), "And wants premise indices {1,2}",
                  "no conjunction in the sequent matches the premises"),
    RuleTag.OR: (Disj, lambda ix: len(ix) == 1 and ix[0] in (1, 2), "Or wants a single premise indexed 1 or 2",
                 "no disjunction in the sequent matches the premise"),
    RuleTag.ALL: (ForAll, lambda ix: ix is NAT, "All wants premises for every natural",
                  "no universal formula matches the sampled premises"),
    RuleTag.EX: (Exists, lambda ix: len(ix) == 1 and ix[0] >= 0, "Ex wants a single premise indexed by its witness",
                 "no existential formula matches the premise"),
}


def _premise_formula(f: Formula, i: int) -> Formula:
    """The formula that premise `i` of the introduction of `f` adds."""
    if type(f) in (ForAll, Exists):
        return instance(f, i)
    return f.left if i == 1 else f.right


def _clause_ok(label: NodeLabel, kids: dict[int, NodeLabel], indices) -> str | None:
    """None when the node's local condition holds, else a reason."""
    delta, rule = label.sequent, label.rule
    if rule is RuleTag.AXM or rule is RuleTag.AXL:
        if indices != ():
            return "axiom with premises"
        if rule is RuleTag.AXM and not any(atom_true(f) for f in delta):
            return "no true closed atom for AxM"
        if rule is RuleTag.AXL and not _axl_holds(delta):
            return "no matching membership pair for AxL"
        return None
    intro = INTRODUCTIONS.get(rule)
    if intro is not None:
        connective, indices_ok, bad_indices, no_match = intro
        if not indices_ok(indices):
            return bad_indices
        for f in delta:
            if type(f) is connective:
                for i, kid in kids.items():
                    if not kid.sequent <= delta | {_premise_formula(f, i)}:
                        break
                else:
                    return None
        return no_match
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


def check_node(s: Step, width: int) -> tuple[list[tuple[int, Code, Step]], str | None, tuple[int, ...]]:
    """The check of one node, for check_local and the bounded-truth walk: it
    steps the children (0..width-1 of an All node), checks the rule clause
    and that their tags descend, and gives (children as (index, code, step),
    the reason it fails or None, the path below it to the failure)."""
    children = []
    for i in range(width) if s.indices is NAT else s.indices:
        c = s.child(i)
        children.append((i, c, step(c)))
    kids = {i: cs.label for i, _, cs in children}
    reason = _clause_ok(s.label, kids, s.indices)
    if reason is not None:
        return children, reason, ()
    for i, label in kids.items():
        if compare(label.tag, s.label.tag) is not Cmp.LT:
            return children, "ordinal tag fails to descend", (i,)
    return children, None, ()


_DECODE_ERRORS = (DerivationError, FormulaError, NotationError, UnsupportedRankError)

# why the certificate gate, check_local and bounded truth refuse a spec
NOT_A_WELL_ORDER = "the ordering is not a well-order (linear, with no infinite descent)"


def check_local(
    code: Code,
    depth_budget: int = 64,
    width_budget: int = 8,
    require_cut_free: bool = False,
) -> CheckReport:
    """Verify local correctness along a budgeted exploration.

    Each visited node must pass `check_node`: its rule clause and strict tag
    descent.  Cut nodes trip the cut_free flag (a failure when
    require_cut_free).  All nodes contribute children 0..width_budget-1;
    skipped branches set `truncated`, never a silent pass.

    The report is that of walking the whole tree, but a subtree that passed
    is not walked again: an equal one met later adds the counts of the
    first.  Every node is keyed by its value, its hash computed once, at
    construction: explicit nodes, builders and the nodes a family builds
    alike, so an element's body built inline under the TI root is the one
    under its tiprog.  The width budget and require_cut_free are fixed for
    the call, so only the remaining depth can change a subtree's walk.  When
    no node of the subtree had its children cut by the depth budget, its
    deepest nodes are leaves, and the walk is the same at every remaining
    depth of at least its height: the entry is keyed by the node alone and
    reused wherever the subtree fits.  A subtree that was cut, itself or in
    a copy it reused, is keyed by the node and the remaining depth, so a
    copy met higher up is walked again.  That key is consulted only once
    some subtree was cut, so a walk the depth budget never cuts builds no
    such pair.  Only subtrees that passed are kept, and only for this call.
    `nodes_checked` counts the clauses evaluated.  The open subtrees are the
    node checked and its ancestors, so a failure's path is read off them,
    and memory stays linear in the depth; a leaf's closes where it is
    checked.
    """
    nodes = checked = max_depth = 0
    # cut: a node's children were skipped for the depth budget; clipped: some
    # node's were in this call, so an entry may be keyed by the remaining depth
    cut_free, truncated, cut, clipped = True, False, False, False
    # a node, or (node, remaining depth) when its subtree was cut
    # -> (nodes, height, cut_free, truncated, cut)
    passed: dict[Code | tuple[Code, int], tuple[int, int, bool, bool, bool]] = {}
    # open subtrees: the node's index under its parent, node, depth, nodes
    # before, and the outer max_depth, cut_free, truncated and cut; the
    # counters restart inside
    frames: list[tuple[int | None, Code, int, int, int, bool, bool, bool]] = []
    # (code, its step, depth, its index); only the root comes unstepped, and
    # close_frame closes the innermost frame once its children are walked
    stack: list[tuple[Code | None, Step | None, int, int | None]] = [(code, None, 0, None)]
    close_frame = (None, None, 0, None)

    def fail(reason, *below):
        md, cf, tr = max_depth, cut_free, truncated
        for *_, outer_md, outer_cf, outer_tr, _ in frames:
            md, cf, tr = max(md, outer_md), cf and outer_cf, tr or outer_tr
        path = tuple(frame[0] for frame in frames[1:]) + below
        return CheckReport(False, path, reason, nodes, md, cf, tr, checked)

    while stack:
        node, s, depth, index = stack.pop()
        if node is not None:
            seen = passed.get(node)
            if seen is None or seen[1] > depth_budget - depth:  # a miss, or too tall to fit here
                seen = passed.get((node, depth_budget - depth)) if clipped else None
            if seen is not None:
                nodes += seen[0]
                max_depth = max(max_depth, depth + seen[1])
                cut_free, truncated, cut = cut_free and seen[2], truncated or seen[3], cut or seen[4]
                continue
            frames.append((index, node, depth, nodes, max_depth, cut_free, truncated, cut))
            max_depth, cut_free, truncated, cut = depth, True, False, False
            nodes += 1
            if s is None:
                try:
                    s = step(node)
                except _DECODE_ERRORS as e:
                    return fail(f"decode error: {e}")
                # the root: a TI sequent claims its spec is a well-order, decided
                # before any child is sampled
                spec = ti_spec(s.label.sequent)
                if spec is not None and not rankable(spec):
                    return fail(NOT_A_WELL_ORDER)
            if s.label.rule is RuleTag.CUT:
                cut_free = False
                if require_cut_free:
                    return fail("cut rule used in a cut-free check")
            truncated = s.indices is NAT
            try:
                children, reason, below = check_node(s, width_budget)
            except _DECODE_ERRORS as e:
                return fail(f"decode error in a premise: {e}")
            checked += 1
            if reason is not None:
                return fail(reason, *below)
            if children and depth + 1 <= depth_budget:
                stack.append(close_frame)
                for i, c, cs in reversed(children):
                    stack.append((c, cs, depth + 1, i))
                continue
            if children:
                truncated = cut = clipped = True
            # no child is walked: the frame closes at once
        _, key, top, before, outer_md, outer_cf, outer_tr, outer_cut = frames.pop()
        passed[(key, depth_budget - top) if cut else key] = (
            nodes - before, max_depth - top, cut_free, truncated, cut)
        max_depth = max(max_depth, outer_md)
        cut_free, truncated, cut = cut_free and outer_cf, truncated or outer_tr, cut or outer_cut
    return CheckReport(True, None, None, nodes, max_depth, cut_free, truncated, checked)


def ti_certificate_fault(code: Code, spec: OrderingSpec, depth_budget: int, width_budget: int) -> str | None:
    """Why `code` is not a TI certificate of `spec`, or None when it is: the
    spec must be a well-order, decided first; the root must be
    ti_sequent(spec); and a cut-free check_local must pass."""
    if not rankable(spec):
        return NOT_A_WELL_ORDER
    if root_label(code).sequent != ti_sequent(spec):
        return "certificate root is not the TI sequent of the ordering"
    report = check_local(code, depth_budget, width_budget, require_cut_free=True)
    if not report.passed:
        return f"certificate fails local checks at {report.fail_path}: {report.fail_reason}"
    return None


# --- full expansion (finite builders only) ----------------------------------------------


def expand(code: Code) -> Code:
    """Rewrite builder terms into explicit nodes (finite-support All nodes).

    Only possible when every All family has finite support: finite fields
    for the TI root, finite-rank elements for predecessor quantifiers.
    Transformed codes (Mono over such a tree) expand by relabelling.

    The result is a DAG: a table local to the call maps each TiProg code to
    its expansion, so the canonical sub-derivation of an element is built
    once however many elements above it use it.
    """
    return _expand(code, {})


def _expand(code: Code, done: dict[TiProg, Code]) -> Code:
    cls = type(code)
    if cls is AllNode and type(code.family) is not FiniteSupport:
        code = AllNode(code.sequent, code.tag, _finite_support(code.family))
    if cls in _RULES:
        kids = premises(code)
        for i, c in kids.items():
            kids[i] = _expand(c, done)
        return with_premises(code, kids) if kids else code
    if cls is TiRoot:
        tag = add(mul(OMEGA, otyp(code.spec)), ONE)
        return _expand(AllNode(ti_sequent(code.spec), tag, TiKids(code.spec)), done)
    if cls is TiProg:
        tree = done.get(code)
        if tree is None:
            s = step(code)
            body = _expand(_ti_body(code.spec, code.element), done)
            tree = done[code] = ExNode(s.label.sequent, s.label.tag, code.element, body)
        return tree
    if cls is Mono:
        return sexpr.replace(_expand(code.child, done), sequent=code.sequent, tag=code.tag)
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
    kids = fam.children()
    return FiniteSupport(tuple((i, kids(i)) for i in sorted(support)), default)

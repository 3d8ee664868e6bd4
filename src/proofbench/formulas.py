"""Tait-normal-form formulas over (0,1,+,x) with one set-variable alphabet.

Negation lives on atoms only; `negate` is the De Morgan dual and an
involution.  Atoms come in dual pairs: term equations, set-variable
membership, and decidable relation atoms referring to an ordering spec
(strict comparison, field membership, and membership in the initial segment
of ranks below a notation).  The relation atoms are what lets Prog/TI
matrices over combinator orderings stay quantifier-checkable at desk scale;
the atomic diagram used by axiom checks is the set of true closed atoms over
this enlarged signature.

Sequents are plain frozensets of formulas, read disjunctively.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Union

from . import sexpr
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
    rankable,
    segment_member,
)
from .ordinals import Ordinal, le
from .sexpr import NATURAL, REST, SYMBOL, Role, term
from .verdict import Verdict, v_and, v_not, v_or


class FormulaError(ValueError):
    pass


# --- terms -------------------------------------------------------------------


@term
class Num:
    value: int


@term
class Var:
    name: str


@term
class Plus:
    left: "Term"
    right: "Term"


@term
class Times:
    left: "Term"
    right: "Term"


Term = Union[Num, Var, Plus, Times]

# the binary term operators
_OPERATORS = {Plus: operator.add, Times: operator.mul}


def eval_term(t: Term, env: dict[str, int] | None = None) -> int:
    cls = type(t)
    if cls is Num:
        return t.value
    if cls is Var:
        if env and t.name in env:
            return env[t.name]
        raise FormulaError(f"open term: variable {t.name}")
    if cls not in _OPERATORS:
        raise FormulaError(f"not a term: a {cls.__name__}")
    return _OPERATORS[cls](eval_term(t.left, env), eval_term(t.right, env))


def term_vars(t: Term) -> frozenset[str]:
    cls = type(t)
    if cls is Num:
        return frozenset()
    if cls is Var:
        return frozenset({t.name})
    return term_vars(t.left) | term_vars(t.right)


def subst_term(t: Term, var: str, num: Num) -> Term:
    """t with the numeral `num` for each occurrence of the variable `var`."""
    cls = type(t)
    if cls is Num:
        return t
    if cls is Var:
        return num if t.name == var else t
    return cls(subst_term(t.left, var, num), subst_term(t.right, var, num))


# --- formulas ------------------------------------------------------------------


@term
class Eq:
    left: Term
    right: Term


@term
class Neq:
    left: Term
    right: Term


@term
class Member:
    term: Term
    var: str = "X"


@term
class NotMember:
    term: Term
    var: str = "X"


@term
class OrdLess:
    spec: OrderingSpec
    left: Term
    right: Term


@term
class NotOrdLess:
    spec: OrderingSpec
    left: Term
    right: Term


@term
class FieldMember:
    spec: OrderingSpec
    term: Term


@term
class NotFieldMember:
    spec: OrderingSpec
    term: Term


@term
class SegMember:
    spec: OrderingSpec
    term: Term
    bound: Ordinal


@term
class NotSegMember:
    spec: OrderingSpec
    term: Term
    bound: Ordinal


@term
class Conj:
    left: "Formula"
    right: "Formula"


@term
class Disj:
    left: "Formula"
    right: "Formula"


@term
class ForAll:
    var: str
    body: "Formula"


@term
class Exists:
    var: str
    body: "Formula"


Formula = Union[
    Eq, Neq, Member, NotMember, OrdLess, NotOrdLess, FieldMember, NotFieldMember,
    SegMember, NotSegMember, Conj, Disj, ForAll, Exists,
]

Sequent = frozenset


def seq(*formulas: Formula) -> Sequent:
    return frozenset(formulas)


# --- S-expression format -------------------------------------------------------------


def formula_text(f: Formula) -> str:
    return sexpr.write(FORMULAS, f)


def parse_formula(s: str) -> Formula:
    return sexpr.read(FORMULAS, sexpr.parse(s))


def sequent_text(delta: Sequent) -> str:
    return sexpr.write(SEQUENTS, delta)


def parse_sequent(s: str) -> Sequent:
    return sexpr.read(SEQUENTS, sexpr.parse(s))


# --- shapes ----------------------------------------------------------------------
#
# One table per sort (sexpr.Sort) gives every term and formula class its head
# and the role of each field.  The roles also say which fields the
# structural operations below descend into: every function that walks
# formulas dispatches on type(f) through these tables and reads the fields
# through the table's getter, in declaration order.  Terms and formulas are
# `sexpr.term` classes, each hash computed once, at construction.

TERMS = sexpr.Sort("a term", FormulaError)
FORMULAS = sexpr.Sort("a formula", FormulaError)
SEQUENTS = sexpr.Sort("a sequent", FormulaError)
TERM = Role(sort=TERMS)
FORMULA = Role(sort=FORMULAS)

TERMS.define({
    Num: (int, (NATURAL,)),
    Var: (str, (SYMBOL,)),
    Plus: ("+", (TERM, TERM)),
    Times: ("*", (TERM, TERM)),
})
SEQUENTS.define({frozenset: ("seq", (Role(sort=FORMULAS, many=REST),))})

_SHAPES = {
    Eq: ("=", (TERM, TERM)),
    Neq: ("!=", (TERM, TERM)),
    Member: ("in", (TERM, SYMBOL)),
    NotMember: ("nin", (TERM, SYMBOL)),
    OrdLess: ("lt", (SPEC, TERM, TERM)),
    NotOrdLess: ("nlt", (SPEC, TERM, TERM)),
    FieldMember: ("fld", (SPEC, TERM)),
    NotFieldMember: ("nfld", (SPEC, TERM)),
    SegMember: ("seg", (SPEC, TERM, ORDINAL)),
    NotSegMember: ("nseg", (SPEC, TERM, ORDINAL)),
    Conj: ("and", (FORMULA, FORMULA)),
    Disj: ("or", (FORMULA, FORMULA)),
    ForAll: ("forall", (SYMBOL, FORMULA)),
    Exists: ("exists", (SYMBOL, FORMULA)),
}

# De Morgan duals; a dual pair has the same fields in the same order
_POSITIVE_DUALS = {
    Eq: Neq, Member: NotMember, OrdLess: NotOrdLess, FieldMember: NotFieldMember,
    SegMember: NotSegMember, Conj: Disj, ForAll: Exists,
}
_DUAL = {**_POSITIVE_DUALS, **{neg: pos for pos, neg in _POSITIVE_DUALS.items()}}

FORMULAS.define(_SHAPES)
# per class: its dual, the positions of its term fields and of its
# subformula fields, whether it binds the variable in its `var` field, and
# its field getter
_OPS = {
    cls: (
        _DUAL[cls],
        tuple(i for i, role in enumerate(roles) if role is TERM),
        tuple(i for i, role in enumerate(roles) if role is FORMULA),
        cls in (ForAll, Exists),
        FORMULAS.shapes[cls][2],
    )
    for cls, (_, roles) in _SHAPES.items()
}


def _not_a_formula(f) -> FormulaError:
    return FormulaError(f"not a formula: a {type(f).__name__}")


def negate(f: Formula) -> Formula:
    try:
        dual, _, subs, _, get = _OPS[type(f)]
    except KeyError:
        raise _not_a_formula(f) from None
    if not subs:
        return dual(*get(f))
    args = [*get(f)]
    for i in subs:
        args[i] = negate(args[i])
    return dual(*args)


def subformulas(f: Formula):
    yield f
    _, _, subs, _, get = _OPS[type(f)]
    args = get(f)
    for i in subs:
        yield from subformulas(args[i])


def is_x_positive(f: Formula, var: str = "X") -> bool:
    """No occurrence of the form t not-in var."""
    return not any(type(g) is NotMember and g.var == var for g in subformulas(f))


def set_vars(f: Formula) -> frozenset[str]:
    return frozenset(g.var for g in subformulas(f) if type(g) in (Member, NotMember))


def free_num_vars(f: Formula) -> frozenset[str]:
    try:
        _, terms, subs, binder, get = _OPS[type(f)]
    except KeyError:
        raise _not_a_formula(f) from None
    args = get(f)
    out = frozenset()
    for i in terms:
        out |= term_vars(args[i])
    for i in subs:
        out |= free_num_vars(args[i])
    return out - {f.var} if binder else out


def subst_num(f: Formula, var: str, value: int | Num) -> Formula:
    """Instantiate a number variable with a numeral (capture-free: numerals),
    one `Num` for all its occurrences."""
    num = value if type(value) is Num else Num(value)
    try:
        _, terms, subs, binder, get = _OPS[type(f)]
    except KeyError:
        raise _not_a_formula(f) from None
    if binder and f.var == var:
        return f
    args = [*get(f)]
    for i in terms:
        args[i] = subst_term(args[i], var, num)
    for i in subs:
        args[i] = subst_num(args[i], var, num)
    return type(f)(*args)


@lru_cache(maxsize=4096)
def instance(f: Formula, i: int) -> Formula:
    """The instance of the quantifier `f` at the numeral `i`,
    subst_num(f.body, f.var, i), built once per quantifier and numeral: the
    child that introduces `f` and the check of that child's rule are given
    one object."""
    return subst_num(f.body, f.var, i)


def substitute(f: Formula, var: str, template: Callable[[Term], Formula]) -> Formula:
    """Replace each occurrence of (t in var) by template(t).

    Only defined on formulas positive in var, mirroring how the bound
    machinery applies it.
    """
    if not is_x_positive(f, var):
        raise FormulaError(f"substitution target is not positive in {var}")

    def walk(g: Formula) -> Formula:
        cls = type(g)
        if cls is Member and g.var == var:
            return template(g.term)
        _, _, subs, _, get = _OPS[cls]
        if not subs:
            return g
        args = [*get(g)]
        for i in subs:
            args[i] = walk(args[i])
        return cls(*args)

    return walk(f)


def substitute_sequent(delta: Sequent, var: str, template: Callable[[Term], Formula]) -> Sequent:
    return frozenset(substitute(f, var, template) for f in delta)


def segment_template(spec: OrderingSpec, bound: Ordinal) -> Callable[[Term], Formula]:
    """The substitution X |-> (rank below `bound`); (t in X) becomes a segment atom."""
    return lambda t: SegMember(spec, t, bound)


# --- budgeted evaluation ---------------------------------------------------------


def operands(f: Formula, connective: type):
    """The operands of a nest of one binary connective (Conj or Disj)."""
    if type(f) is connective:
        yield from operands(f.left, connective)
        yield from operands(f.right, connective)
    else:
        yield f


def _critical_domain(var: str, body: Formula, existential: bool) -> list[int] | None:
    """A finite set outside which an existential matrix is surely false
    (resp. a universal matrix surely true), when one is detectable.

    The detectable shapes are guards on the quantified variable: a strict
    predecessor guard below an element of finite rank, or field membership
    in an order of finite type.
    """
    guards = operands(body, Conj if existential else Disj)
    want_less, want_field = (OrdLess, FieldMember) if existential else (NotOrdLess, NotFieldMember)
    for g in guards:
        if isinstance(g, want_less) and g.left == Var(var) and not term_vars(g.right):
            spec, n = g.spec, eval_term(g.right)
            if not in_field(spec, n):
                return []
            if (domain := finite_predecessors(spec, n)) is not None:
                return domain
        if isinstance(g, want_field) and g.term == Var(var):
            if (domain := finite_field(g.spec)) is not None:
                return domain
    return None


def _segment_covers_field(f: ForAll) -> bool:
    """forall y (y not in fld S or y in seg_S(gamma) or ...) holds when S is a
    well-order and otyp(S) <= gamma, every rank being below the order type."""
    y = Var(f.var)
    disjuncts = list(operands(f.body, Disj))
    outside = {g.spec for g in disjuncts if type(g) is NotFieldMember and g.term == y}
    return any(type(g) is SegMember and g.term == y and g.spec in outside and rankable(g.spec)
               and le(otyp(g.spec), g.bound) for g in disjuncts)


def _set_variable_atom(f: Formula) -> bool:
    raise FormulaError("eval_closed needs a set-variable-free formula")


def _segment_holds(f: Formula) -> bool | None:
    n = eval_term(f.term)
    if not in_field(f.spec, n):
        return False
    try:
        return segment_member(f.spec, n, f.bound)
    except UnsupportedRankError:
        return None


# Truth of each positive closed atom (None: undecidable here, UNKNOWN); its
# dual holds exactly when it fails.  The lambdas look the ordering predicates
# up when called.
_HOLDS = {
    Eq: lambda f: eval_term(f.left) == eval_term(f.right),
    Member: _set_variable_atom,
    OrdLess: lambda f: less(f.spec, eval_term(f.left), eval_term(f.right)),
    FieldMember: lambda f: in_field(f.spec, eval_term(f.term)),
    SegMember: _segment_holds,
}
_ATOM_TESTS = {
    **{pos: (holds, True) for pos, holds in _HOLDS.items()},
    **{_DUAL[pos]: (holds, False) for pos, holds in _HOLDS.items()},
}


def eval_closed(f: Formula, budget: int) -> Verdict:
    """Three-valued evaluation; quantifiers search numerals below `budget`.

    TRUE/FALSE are definitive; UNKNOWN signals budget exhaustion.  Two sound
    analyses go beyond the budget.  A universal placing a well-order's field
    in its segment below gamma holds when its order type is at most gamma.
    A quantifier whose matrix carries a decidable guard on the bound variable
    (predecessors of a finite-rank element, or a finite field) is decided
    exactly over that finite domain.  Set variables are not allowed
    (evaluate after substitution).
    """
    cls = type(f)
    test = _ATOM_TESTS.get(cls)
    if test is not None:
        holds, positive = test
        value = holds(f)
        if value is None:
            return Verdict.UNKNOWN
        return Verdict.TRUE if bool(value) is positive else Verdict.FALSE
    if cls is Conj:
        return v_and(eval_closed(f.left, budget), eval_closed(f.right, budget))
    if cls is Disj:
        return v_or(eval_closed(f.left, budget), eval_closed(f.right, budget))
    if cls is not ForAll and cls is not Exists:
        raise _not_a_formula(f)
    if f.var not in free_num_vars(f.body):
        return eval_closed(f.body, budget)
    existential = cls is Exists
    if not existential and _segment_covers_field(f):
        return Verdict.TRUE
    # one instance with the decisive value settles the quantifier
    decisive = Verdict.TRUE if existential else Verdict.FALSE
    domain = _critical_domain(f.var, f.body, existential)
    if domain is not None:
        combine = v_or if existential else v_and
        acc = v_not(decisive)
        for i in domain:
            acc = combine(acc, eval_closed(instance(f, i), budget))
            if acc is decisive:
                return acc
        return acc
    for i in range(budget):
        if eval_closed(instance(f, i), budget) is decisive:
            return decisive
    return Verdict.UNKNOWN


def atom_true(f: Formula) -> bool:
    """Membership of a closed, set-variable-free atom in the atomic diagram."""
    cls = type(f)
    if cls not in _ATOM_TESTS or cls is Member or cls is NotMember:
        return False
    try:
        return eval_closed(f, 1) is Verdict.TRUE
    except FormulaError:  # an open term: eval_term meets a variable
        return False


# --- progressiveness and transfinite induction ------------------------------------


def prog_formula(spec: OrderingSpec, var: str = "X") -> Formula:
    """Tait normal form of: X is progressive along the ordering."""
    x, y = Var("x"), Var("y")
    hyp_fails = Disj(
        NotFieldMember(spec, x),
        Exists("y", Conj(OrdLess(spec, y, x), NotMember(y, var))),
    )
    return ForAll("x", Disj(hyp_fails, Member(x, var)))


def field_statement(spec: OrderingSpec, var: str = "X") -> Formula:
    y = Var("y")
    return ForAll("y", Disj(NotFieldMember(spec, y), Member(y, var)))


@lru_cache(maxsize=None)
def negated_prog(spec: OrderingSpec, var: str = "X") -> Formula:
    """negate(prog_formula(spec, var)), built once per spec and variable."""
    return negate(prog_formula(spec, var))


def ti_sequent(spec: OrderingSpec, var: str = "X") -> Sequent:
    return seq(negated_prog(spec, var), field_statement(spec, var))


def ti_spec(sequent: Sequent) -> OrderingSpec | None:
    """S when `sequent` is exactly ti_sequent(S), read off its field
    statement (forall y (or (nfld S y) (in y X))); else None."""
    for f in sequent:
        if type(f) is ForAll and type(f.body) is Disj and type(f.body.left) is NotFieldMember:
            return f.body.left.spec if sequent == ti_sequent(f.body.left.spec) else None
    return None


def prog_witness_instance(spec: OrderingSpec, n: int, var: str = "X") -> Formula:
    """The instance picked when refuting progressiveness at element n."""
    return instance(negated_prog(spec, var), n)

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.formulas import (
    Conj,
    Disj,
    Eq,
    Exists,
    FieldMember,
    ForAll,
    FormulaError,
    Member,
    Neq,
    NotMember,
    NotOrdLess,
    Num,
    OrdLess,
    Plus,
    SegMember,
    Times,
    Var,
    atom_true,
    eval_closed,
    field_statement,
    formula_text,
    free_num_vars,
    is_x_positive,
    negate,
    parse_formula,
    parse_sequent,
    prog_formula,
    prog_witness_instance,
    seq,
    sequent_text,
    subst_num,
    substitute,
    substitute_sequent,
    ti_sequent,
)
from proofbench.orderings import BelowOrd, FinOrd
from proofbench.ordinals import from_int, parse
from proofbench.verdict import Verdict

num = Num
x, y = Var("x"), Var("y")


# --- hypothesis formula strategy


terms = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=9).map(Num), st.sampled_from([x, y])),
    lambda inner: st.builds(Plus, inner, inner) | st.builds(Times, inner, inner),
    max_leaves=4,
)

atoms = st.one_of(
    st.builds(Eq, terms, terms),
    st.builds(Neq, terms, terms),
    st.builds(Member, terms),
    st.builds(NotMember, terms),
    st.builds(OrdLess, st.just(FinOrd(4)), terms, terms),
    st.builds(FieldMember, st.just(FinOrd(4)), terms),
)

formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Conj, inner, inner),
        st.builds(Disj, inner, inner),
        st.builds(ForAll, st.sampled_from(["x", "y"]), inner),
        st.builds(Exists, st.sampled_from(["x", "y"]), inner),
    ),
    max_leaves=8,
)


@given(formulas)
@settings(max_examples=1000, deadline=None)
def test_negate_is_an_involution(f):
    assert negate(negate(f)) == f


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_a_formula_keeps_the_dataclass_hash_and_stays_frozen(f):
    # the hash stored at construction is that of the tuple of the fields,
    # as a frozen dataclass computes it, so sequents keep their order
    names = type(f).__match_args__
    assert hash(f) == hash(tuple(getattr(f, name) for name in names))
    assert not hasattr(f, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(f, names[0], getattr(f, names[0]))


def test_negate_swaps_duals():
    assert negate(Member(num(3))) == NotMember(num(3))
    f = ForAll("x", Disj(Member(x), Eq(x, num(0))))
    assert negate(f) == Exists("x", Conj(NotMember(x), Neq(x, num(0))))


def test_x_positive():
    assert is_x_positive(Member(num(2)))
    assert not is_x_positive(ForAll("y", Disj(NotMember(y), Member(y))))
    assert not is_x_positive(negate(prog_formula(FinOrd(3))))
    assert not is_x_positive(prog_formula(FinOrd(3)))
    assert is_x_positive(field_statement(FinOrd(3)))
    assert is_x_positive(Eq(num(1), num(1)))


def test_substitute():
    spec, bound = FinOrd(5), from_int(4)
    assert substitute(Member(num(5)), spec, bound) == SegMember(spec, num(5), bound)
    delta = seq(Member(num(1)), Member(num(2)))
    assert substitute_sequent(delta, spec, bound) == seq(SegMember(spec, num(1), bound),
                                                         SegMember(spec, num(2), bound))
    with pytest.raises(FormulaError):
        substitute(NotMember(num(1)), spec, bound)
    # the result never mentions X again
    from proofbench.formulas import set_vars

    out = substitute(field_statement(FinOrd(3)), spec, bound)
    assert set_vars(out) == frozenset()
    # and on X-free formulas the substitution is the identity
    xfree = ForAll("y", Disj(Eq(Var("y"), num(0)), Neq(Var("y"), num(0))))
    assert substitute(xfree, spec, bound) == xfree
    assert substitute(negate(xfree), spec, bound) == negate(substitute(xfree, spec, bound))


def test_segment_substitution_means_rank_below():
    spec = FinOrd(5)
    f = substitute(Member(num(3)), spec, from_int(4))
    assert f == SegMember(spec, num(3), from_int(4))
    assert eval_closed(f, 10) is Verdict.TRUE
    g = substitute(Member(num(3)), spec, from_int(3))
    assert eval_closed(g, 10) is Verdict.FALSE


def test_eval_closed_examples():
    assert eval_closed(Eq(Plus(num(2), num(2)), num(4)), 10) is Verdict.TRUE
    assert eval_closed(Exists("x", Eq(Times(x, x), num(49))), 10) is Verdict.TRUE
    assert eval_closed(ForAll("x", Eq(x, Plus(x, num(1)))), 1) is Verdict.FALSE
    assert eval_closed(Exists("x", Eq(Times(x, x), num(50))), 10) is Verdict.UNKNOWN
    assert eval_closed(ForAll("x", Eq(Plus(x, num(0)), x)), 10) is Verdict.UNKNOWN


def test_eval_budget_monotone():
    rng = random.Random(5)
    candidates = [
        Exists("x", Eq(Times(x, x), num(rng.randrange(0, 60)))),
        ForAll("x", Neq(Times(x, num(2)), num(rng.randrange(0, 60)))),
        Exists("x", Exists("y", Eq(Plus(x, y), num(rng.randrange(0, 30))))),
    ]
    for f in candidates * 10:
        for b in range(1, 12):
            v = eval_closed(f, b)
            if v is not Verdict.UNKNOWN:
                for bigger in range(b, 14):
                    assert eval_closed(f, bigger) is v
                break


def test_ti_sequent_shape():
    for spec in [FinOrd(1), FinOrd(4), BelowOrd(parse("w"))]:
        delta = ti_sequent(spec)
        assert len(delta) == 2
        assert delta == seq(negate(prog_formula(spec)), field_statement(spec))


def _interpret_x(f, template):
    """Semantic interpretation of X by a formula template (both polarities)."""
    if isinstance(f, Member):
        return template(f.term)
    if isinstance(f, NotMember):
        return negate(template(f.term))
    if isinstance(f, Conj):
        return Conj(_interpret_x(f.left, template), _interpret_x(f.right, template))
    if isinstance(f, Disj):
        return Disj(_interpret_x(f.left, template), _interpret_x(f.right, template))
    if isinstance(f, ForAll):
        return ForAll(f.var, _interpret_x(f.body, template))
    if isinstance(f, Exists):
        return Exists(f.var, _interpret_x(f.body, template))
    return f


def test_prog_instance_on_singleton_order():
    # at the only element of Fin(1) the hypothesis is vacuous, so the
    # instance reduces to membership of 0: interpreting X by a true
    # template makes it true, by a false template false
    spec = FinOrd(1)
    inst = subst_num(prog_formula(spec).body, "x", 0)
    always = _interpret_x(inst, lambda t: Eq(t, t))
    never = _interpret_x(inst, lambda t: Neq(t, t))
    assert eval_closed(always, 8) is Verdict.TRUE
    assert eval_closed(never, 8) is Verdict.FALSE


def test_prog_witness_instance_shape():
    spec = FinOrd(2)
    inst = prog_witness_instance(spec, 1)
    assert isinstance(inst, Conj)
    assert inst.right == NotMember(num(1))
    assert inst.left.left == FieldMember(spec, num(1))
    assert free_num_vars(inst) == frozenset()


def test_atom_true():
    assert atom_true(Eq(num(2), num(2)))
    assert not atom_true(Eq(num(2), num(3)))
    assert atom_true(NotOrdLess(FinOrd(3), num(2), num(1)))
    assert not atom_true(Conj(Eq(num(1), num(1)), Eq(num(2), num(2))))
    assert not atom_true(Eq(x, x))
    assert not atom_true(Member(num(1)))


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_formula_sexp_round_trip(f):
    assert parse_formula(formula_text(f)) == f


def test_sequent_round_trip_and_canonical_text():
    spec = FinOrd(3)
    delta = ti_sequent(spec)
    assert parse_sequent(sequent_text(delta)) == delta
    assert sequent_text(parse_sequent(sequent_text(delta))) == sequent_text(delta)


def test_grammar_examples():
    f = parse_formula("(or (= (+ 2 2) 4) (in 7 X))")
    assert f == Disj(Eq(Plus(num(2), num(2)), num(4)), Member(num(7)))
    g = parse_formula('(seg (fin 5) 3 "4")')
    assert g == SegMember(FinOrd(5), num(3), from_int(4))
    with pytest.raises(FormulaError, match=r"'and' \.\.\.\) with 1 argument"):
        parse_formula("(and (= 1 1))")

"""Seeded random generators for workbench objects.

Used by the regression driver and the test suite; everything is a pure
function of the supplied random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from functools import cmp_to_key

from . import derivations as dv
from . import formulas as fm
from . import orderings as ords
from .ordinals import Ordinal, compare, from_int

_by_value = cmp_to_key(lambda a, b: compare(a, b).value)


def random_efree(rng: random.Random, depth: int = 2, max_terms: int = 3, max_coeff: int = 5) -> Ordinal:
    """Random E-free notation; exponents nest up to `depth`."""
    if depth <= 0 or rng.random() < 0.3:
        return from_int(rng.randrange(0, max_coeff + 1))
    n_terms = rng.randrange(1, max_terms + 1)
    exps: set[Ordinal] = set()
    for _ in range(n_terms):
        exps.add(random_efree(rng, depth - 1, max_terms, max_coeff))
    ordered = sorted(exps, key=_by_value, reverse=True)
    return Ordinal(0, tuple((e, rng.randrange(1, max_coeff + 1)) for e in ordered))


def random_ordinal(rng: random.Random, depth: int = 2, allow_e: bool = True) -> Ordinal:
    o = random_efree(rng, depth)
    if allow_e and rng.random() < 0.25:
        return Ordinal(rng.randrange(1, 4), o.wterms)
    return o


def random_vec_below_w3(rng: random.Random) -> tuple[int, int, int]:
    return rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(0, 6)


def random_term(rng: random.Random, depth: int = 2) -> fm.Term:
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.7:
            return fm.Num(rng.randrange(0, 20))
        return fm.Var(rng.choice(["x", "y", "z"]))
    ctor = fm.Plus if rng.random() < 0.5 else fm.Times
    return ctor(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_spec(rng: random.Random, depth: int = 2) -> ords.OrderingSpec:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return ords.FinOrd(rng.randrange(1, 7))
        return ords.BelowOrd(random_efree(rng, depth=1, max_terms=2, max_coeff=3))
    kind = rng.randrange(4)
    if kind == 0:
        return ords.SumOrd(random_spec(rng, depth - 1), random_spec(rng, depth - 1))
    if kind == 1:
        return ords.LexOrd(random_spec(rng, depth - 1), random_spec(rng, depth - 1))
    if kind == 2:
        return ords.RevOrd(random_spec(rng, depth - 1))
    pairs = set()
    for _ in range(rng.randrange(1, 5)):
        a, b = rng.randrange(0, 6), rng.randrange(0, 6)
        if a != b:
            pairs.add((a, b))
    return ords.TableOrd(frozenset(pairs)) if pairs else ords.FinOrd(2)


def random_formula(rng: random.Random, depth: int = 3) -> fm.Formula:
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(6)
        s, t = random_term(rng, 1), random_term(rng, 1)
        if kind == 0:
            return fm.Eq(s, t)
        if kind == 1:
            return fm.Neq(s, t)
        if kind == 2:
            return fm.Member(t, rng.choice(["X", "Y"]))
        if kind == 3:
            return fm.NotMember(t, rng.choice(["X", "Y"]))
        spec = random_spec(rng, 1)
        if kind == 4:
            ctor = rng.choice([fm.OrdLess, fm.NotOrdLess])
            return ctor(spec, s, t)
        ctor = rng.choice([fm.FieldMember, fm.NotFieldMember])
        return ctor(spec, t)
    kind = rng.randrange(5)
    if kind == 0:
        return fm.Conj(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 1:
        return fm.Disj(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return fm.ForAll(rng.choice(["x", "y"]), random_formula(rng, depth - 1))
    if kind == 3:
        return fm.Exists(rng.choice(["x", "y"]), random_formula(rng, depth - 1))
    spec = random_spec(rng, 1)
    ctor = rng.choice([fm.SegMember, fm.NotSegMember])
    return ctor(spec, random_term(rng, 1), random_efree(rng, depth=1))


def random_sequent(rng: random.Random) -> fm.Sequent:
    return frozenset(random_formula(rng, 2) for _ in range(rng.randrange(1, 5)))


def random_code(rng: random.Random, depth: int = 3) -> dv.Code:
    """Random code term for format round-trips (not necessarily correct)."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return dv.AxMNode(random_sequent(rng), random_efree(rng, 1))
        if kind == 1:
            return dv.AxLNode(random_sequent(rng), random_efree(rng, 1))
        if kind == 2:
            return dv.TiProg(random_spec(rng, 1), rng.randrange(0, 6))
        return dv.TiRoot(random_spec(rng, 1))
    kind = rng.randrange(8)
    seqnt = random_sequent(rng)
    tag = random_efree(rng, 1)
    if kind == 0:
        return dv.AndNode(seqnt, tag, random_code(rng, depth - 1), random_code(rng, depth - 1))
    if kind == 1:
        return dv.OrNode(seqnt, tag, rng.choice([1, 2]), random_code(rng, depth - 1))
    if kind == 2:
        return dv.ExNode(seqnt, tag, rng.randrange(0, 9), random_code(rng, depth - 1))
    if kind == 3:
        return dv.CutNode(seqnt, tag, random_code(rng, depth - 1), random_code(rng, depth - 1))
    if kind == 4:
        return dv.RepNode(seqnt, tag, random_code(rng, depth - 1))
    if kind == 5:
        spec = random_spec(rng, 1)
        fam_kind = rng.randrange(3)
        if fam_kind == 0:
            fam = dv.TiKids(spec)
        elif fam_kind == 1:
            fam = dv.PredKids(spec, rng.randrange(0, 5))
        else:
            entries = tuple(
                (i, random_code(rng, depth - 1)) for i in range(rng.randrange(0, 3))
            )
            default = dv.TiVac(spec) if rng.random() < 0.5 else dv.PredVac(spec, rng.randrange(0, 5))
            fam = dv.FiniteSupport(entries, default)
        return dv.AllNode(seqnt, tag, fam)
    if kind == 6:
        return dv.Mono(random_code(rng, depth - 1), seqnt, tag)
    conj = fm.Conj(random_formula(rng, 1), random_formula(rng, 1))
    return dv.Inv(random_code(rng, depth - 1), conj, rng.choice([1, 2]))

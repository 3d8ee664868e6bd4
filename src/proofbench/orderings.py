"""Computable orderings as a closed combinator algebra.

Combinators: Fin(k), Below(gamma) (canonical notations under gamma, coded as
naturals), Sum(A,B), Lex(A,B) (first coordinate most significant), Rev(A)
(reversal) and Table (explicit finite relation).

Element coding is fixed and documented:
  * Below(gamma): the big-endian base-256 value of the ASCII text of the
    canonical notation.  Code order therefore equals shortlex text order.
  * Sum(A,B): even codes 2a are A-elements, odd codes 2b+1 are B-elements.
  * Lex(A,B): the Cantor pairing (a+b)(a+b+1)/2 + b of the component codes,
    A-component first.

Every linear combinator gets an exact height, the least ordinal that does
not embed in it, and an infinite ascent and descent exactly when it has one.
Every well-order (`rankable`: linear with no infinite descent) gets a
computable rank (the order type of its strict predecessors) and order type.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from heapq import heappop, heappush, merge
from math import isqrt

from . import sexpr
from .ordinals import (EPSILON, OMEGA, ONE, ZERO, NotationError, Ordinal, add, canonical_texts, div, from_int,
                       left_diff, lt, max_ord, mul, parse, succ, text)
from .sexpr import NATURAL, REST, Role, Str, term


class SpecError(ValueError):
    """Malformed ordering specification."""


class UnsupportedRankError(ValueError):
    """Rank/order type requested off the field or on a spec that is not a
    well-order."""


class OrderingSpec:
    """A spec kind's defaults: linear, with no infinite ascent.  The kinds'
    methods recurse through the module functions below, so their caches see
    every call."""

    __slots__ = ()

    def linear(self) -> bool:
        return True

    def height(self, reverse: bool) -> Ordinal:
        """A well-order of type t embeds every ordinal up to t; its reversal
        embeds every ordinal up to t when t is finite, else the finite ones."""
        t = otyp(self)
        return OMEGA if reverse and not t.is_finite() else succ(t)

    def ascent(self, reverse: bool):
        """An infinite strictly ascending sequence of field elements (of the
        reversal when `reverse`, so a descent), or None.  Exact for a linear
        spec, by induction on its kinds: an infinite ascent of a sum stays
        in one part from some point on, and one of a product ascends in the
        major coordinate infinitely often or settles there and ascends in
        the minor one.  So one exists exactly when `height(reverse)` > w."""
        return None

    def reversal(self):
        """(spec, mask): a spec isomorphic to the reversal of this one, code n
        here being code n ^ mask there; None for a kind with no parts."""
        return None


@term
class FinOrd(OrderingSpec):
    size: int

    def in_field(self, n: int) -> bool:
        return 0 <= n < self.size

    def less(self, n: int, m: int) -> bool:
        return 0 <= n < m < self.size

    def otyp(self) -> Ordinal:
        return from_int(self.size)

    def rank(self, n: int) -> Ordinal:
        return from_int(n)

    def element_of_rank(self, rho: Ordinal) -> int:
        return rho.nat_value()

    def iter_field(self):
        return range(self.size)


@term
class BelowOrd(OrderingSpec):
    bound: Ordinal

    def in_field(self, n: int) -> bool:
        o = ord_decode(n)
        return o is not None and lt(o, self.bound)

    def less(self, n: int, m: int) -> bool:
        a, b = ord_decode(n), ord_decode(m)
        return a is not None and b is not None and lt(a, b) and lt(b, self.bound)

    def otyp(self) -> Ordinal:
        return self.bound

    def rank(self, n: int) -> Ordinal:
        return ord_decode(n)

    def element_of_rank(self, rho: Ordinal) -> int:
        return ord_code(rho)

    def iter_field(self):
        if self.bound.is_finite():  # just 0..n-1
            return map(_text_code, map(str, range(self.bound.nat_value())))
        # an infinite bound holds every natural, so no length of text comes up
        # empty, and only the texts that are not numerals need a comparison
        return (_text_code(s) for s in canonical_texts() if s[0].isdigit() or lt(parse(s), self.bound))

    def ascent(self, reverse: bool):
        if reverse or self.bound.is_finite():
            return None
        return map(_text_code, map(str, itertools.count()))  # the naturals


@term
class SumOrd(OrderingSpec):
    first: "OrderingSpec"
    second: "OrderingSpec"

    def in_field(self, n: int) -> bool:
        return n >= 0 and in_field(self.second if n % 2 else self.first, n // 2)

    def less(self, n: int, m: int) -> bool:
        if not (in_field(self, n) and in_field(self, m)):
            return False
        if n % 2 != m % 2:
            return m % 2 == 1
        return less(self.second if n % 2 else self.first, n // 2, m // 2)

    def linear(self) -> bool:
        return linear(self.first) and linear(self.second)

    def otyp(self) -> Ordinal:
        return add(otyp(self.first), otyp(self.second))

    def height(self, reverse: bool) -> Ordinal:
        first, second = (self.second, self.first) if reverse else (self.first, self.second)
        return _sum_height(height(first, reverse), height(second, reverse))

    def rank(self, n: int) -> Ordinal:
        if n % 2 == 0:
            return rank(self.first, n // 2)
        return add(otyp(self.first), rank(self.second, n // 2))

    def element_of_rank(self, rho: Ordinal) -> int:
        first_type = otyp(self.first)
        if lt(rho, first_type):
            return 2 * element_of_rank(self.first, rho)
        return 2 * element_of_rank(self.second, left_diff(first_type, rho)) + 1

    def iter_field(self):
        return merge((2 * a for a in iter_field(self.first)), (2 * b + 1 for b in iter_field(self.second)))

    def ascent(self, reverse: bool):
        for odd, part in enumerate((self.first, self.second)):
            seq = part.ascent(reverse)
            if seq is not None:
                return (2 * n + odd for n in seq)
        return None

    def reversal(self):
        # the parts trade places, so every code changes parity
        return SumOrd(RevOrd(self.second), RevOrd(self.first)), 1


@term
class LexOrd(OrderingSpec):
    major: "OrderingSpec"
    minor: "OrderingSpec"

    def in_field(self, n: int) -> bool:
        if n < 0:
            return False
        a, b = unpair_code(n)
        return in_field(self.major, a) and in_field(self.minor, b)

    def less(self, n: int, m: int) -> bool:
        if not (in_field(self, n) and in_field(self, m)):
            return False
        na, nb = unpair_code(n)
        ma, mb = unpair_code(m)
        return less(self.major, na, ma) if na != ma else less(self.minor, nb, mb)

    def empty(self) -> bool:
        return not (field_elements(self.major, 1) and field_elements(self.minor, 1))

    def linear(self) -> bool:
        # a product with an empty side has no elements
        return (linear(self.major) and linear(self.minor)) or self.empty()

    def otyp(self) -> Ordinal:
        # an empty product's other side need not have an order type
        return ZERO if self.empty() else mul(otyp(self.minor), otyp(self.major))

    def height(self, reverse: bool) -> Ordinal:
        # an empty product's other side need not be linear, so it is not asked
        if self.empty():
            return ONE
        return _lex_height(height(self.major, reverse), height(self.minor, reverse))

    def rank(self, n: int) -> Ordinal:
        a, b = unpair_code(n)
        return add(mul(otyp(self.minor), rank(self.major, a)), rank(self.minor, b))

    def element_of_rank(self, rho: Ordinal) -> int:
        q, r = div(rho, otyp(self.minor))  # rho = otyp(minor)*q + r
        return pair_code(element_of_rank(self.major, q), element_of_rank(self.minor, r))

    def iter_field(self):
        """Codes in code order, by a lazy merge of the rows pair_code(a_i, b_j).

        pair_code grows with each argument, so row i waits until (i-1, 0) is
        out, and each row asks for b_j only after row 0 has asked for it.
        """
        sides = (iter_field(self.major), iter_field(self.minor))
        seen: tuple[list[int], list[int]] = ([], [])
        heap: list[tuple[int, int, int]] = []

        def push(i: int, j: int):
            for side, k in ((0, i), (1, j)):
                if k == len(seen[side]):
                    seen[side].extend(itertools.islice(sides[side], 1))
                if k >= len(seen[side]):
                    return
            heappush(heap, (pair_code(seen[0][i], seen[1][j]), i, j))

        push(0, 0)
        while heap:
            code, i, j = heappop(heap)
            yield code
            push(i, j + 1)
            if j == 0:
                push(i + 1, 0)

    def ascent(self, reverse: bool):
        if self.empty():
            return None
        a0, b0 = field_elements(self.major, 1)[0], field_elements(self.minor, 1)[0]
        seq = self.major.ascent(reverse)
        if seq is not None:
            return (pair_code(a, b0) for a in seq)
        seq = self.minor.ascent(reverse)
        return None if seq is None else (pair_code(a0, b) for b in seq)

    def reversal(self):
        return LexOrd(RevOrd(self.major), RevOrd(self.minor)), 0


@term
class RevOrd(OrderingSpec):
    inner: "OrderingSpec"

    def in_field(self, n: int) -> bool:
        return in_field(self.inner, n)

    def less(self, n: int, m: int) -> bool:
        return n != m and less(self.inner, m, n)

    def linear(self) -> bool:
        return linear(self.inner)

    def otyp(self) -> Ordinal:
        iso = self.inner.reversal()
        if iso is not None:
            return otyp(iso[0])
        t = otyp(self.inner)
        if not t.is_finite():  # the reversal of an infinite well-order descends
            raise UnsupportedRankError(f"no order type for {self!r}")
        return t

    def rank(self, n: int) -> Ordinal:
        iso = self.inner.reversal()
        if iso is not None:
            return rank(iso[0], n ^ iso[1])
        return from_int(otyp(self).nat_value() - 1 - rank(self.inner, n).nat_value())

    def element_of_rank(self, rho: Ordinal) -> int:
        iso = self.inner.reversal()
        if iso is not None:
            return element_of_rank(iso[0], rho) ^ iso[1]
        return element_of_rank(self.inner, from_int(otyp(self).nat_value() - 1 - rho.nat_value()))

    def height(self, reverse: bool) -> Ordinal:
        return height(self.inner, not reverse)

    def ascent(self, reverse: bool):
        return self.inner.ascent(not reverse)

    def reversal(self):
        return self.inner, 0

    def iter_field(self):
        return iter_field(self.inner)


@term
class TableOrd(OrderingSpec):
    pairs: frozenset[tuple[int, int]]

    def field(self) -> frozenset[int]:
        return frozenset(x for p in self.pairs for x in p)

    def in_field(self, n: int) -> bool:
        return n in self.field()

    def less(self, n: int, m: int) -> bool:
        return (n, m) in self.pairs

    def ordered(self) -> list[int]:
        """The field by number of predecessors: the order, when the pairs are linear."""
        field = self.field()
        return sorted(field, key=lambda x: sum((y, x) in self.pairs for y in field))

    def linear(self) -> bool:
        ordered = self.ordered()
        return self.pairs == {(x, y) for i, x in enumerate(ordered) for y in ordered[i + 1:]}

    def otyp(self) -> Ordinal:
        if not self.linear():
            raise UnsupportedRankError("table is not a linear order")
        return from_int(len(self.field()))

    def rank(self, n: int) -> Ordinal:
        otyp(self)  # cached, and raises unless the table is a linear order
        return from_int(sum((x, n) in self.pairs for x in self.field()))

    def element_of_rank(self, rho: Ordinal) -> int:
        return self.ordered()[rho.nat_value()]

    def iter_field(self):
        return sorted(self.field())


# --- element coding ----------------------------------------------------------


def _text_code(s: str) -> int:
    return int.from_bytes(s.encode("ascii"), "big")


def ord_code(o: Ordinal) -> int:
    return _text_code(text(o))


_NOTATION_STARTS = b"0123456789Ew"  # the first characters of notations


def ord_decode(n: int) -> Ordinal | None:
    if n <= 0 or n < 256 and n not in _NOTATION_STARTS:  # a one-byte code is its first character
        return None
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if raw[0] not in _NOTATION_STARTS:
        return None
    try:
        return parse(raw.decode("ascii"))
    except (UnicodeDecodeError, NotationError):
        return None


def pair_code(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def unpair_code(n: int) -> tuple[int, int]:
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


# --- decision procedures ------------------------------------------------------


def in_field(spec: OrderingSpec, n: int) -> bool:
    return spec.in_field(n)


def less(spec: OrderingSpec, n: int, m: int) -> bool:
    return spec.less(n, m)


def linear(spec: OrderingSpec) -> bool:
    """True when the combinator is a strict linear order on its field.

    Decided from the spec's structure, with no budget: a table must be a
    strict total order itself, and so must every part of a sum, a reversal
    or a product with two nonempty sides.  A table with a self-pair is not
    linear even where a reversal or a product's major side hides it."""
    return spec.linear()


def rankable(spec: OrderingSpec) -> bool:
    """True when the combinator is a well-order: linear with no infinite
    descent, so exactly when `height(spec, True)` <= w."""
    return linear(spec) and spec.ascent(True) is None


@lru_cache(maxsize=None)
def otyp(spec: OrderingSpec) -> Ordinal:
    return spec.otyp()


@lru_cache(maxsize=262144)
def rank(spec: OrderingSpec, n: int) -> Ordinal:
    """Order type of the strict predecessors of n."""
    if not in_field(spec, n):
        raise UnsupportedRankError(f"{n} is not in the field")
    return spec.rank(n)


def height(spec: OrderingSpec, reverse: bool = False) -> Ordinal:
    """The least ordinal that does not embed into the linear order `spec`
    (into its reversal when `reverse`), so the ordinals that embed are those
    below it.  Raises CapExceededError when that is E*w or more."""
    return spec.height(reverse)


def search_descending(spec: OrderingSpec, budget: int) -> list[int] | None:
    """The first `budget` elements of an infinite descent in `spec`, or None
    when it has none (exactly, for a linear spec: see `OrderingSpec.ascent`)."""
    seq = spec.ascent(True)
    return None if seq is None else list(itertools.islice(seq, budget))


def _split_last(a: Ordinal) -> tuple[Ordinal, Ordinal]:
    """(rest, p) with a = rest + p and p the power of a's last term (1, w^e
    or E), for a > 0."""
    if not a.wterms:
        return Ordinal(a.eterm - 1, ()), EPSILON
    *head, (e, c) = a.wterms
    return Ordinal(a.eterm, (*head, *([(e, c - 1)] if c > 1 else []))), Ordinal(0, ((e, 1),))


def _sum_height(a: Ordinal, b: Ordinal) -> Ordinal:
    """Height of A + B from the heights a of A and b of B: g1 + g2 embeds
    for g1 < a and g2 < b.  With a = rest + p, g1 = rest is best, unless b is
    below p, and then every such sum is below a."""
    rest, _ = _split_last(a)
    return max_ord(a, add(rest, b))


def _lex_height(a: Ordinal, b: Ordinal) -> Ordinal:
    """Height of lex(A, B), a copy of B at each element of A, from the
    heights a of A and b of B: a sum of d < a pieces embeds when each piece
    is below b.  When b = beta + 1, every piece can be beta.  When b is a
    limit with leading term p*c, a piece holds g whole copies of p (c - 1
    when b = p*c, else c), and w pieces add up to p*w when g >= 1, to p when
    g = 0.  Write a = w*q + r: a limit a (r = 0) takes every d below it; a
    successor takes d = w*q + r - 1, whose last r - 1 pieces can be p*g each
    but the final one, which ranges below b."""
    b_rest, b_last = _split_last(b)
    if b_last == ONE:
        a_rest, a_last = _split_last(a)
        return succ(mul(b_rest, a_rest)) if a_last == ONE else mul(b_rest, a)
    p, c = (EPSILON, b.eterm) if b.eterm else (Ordinal(0, ((b.wterms[0][0], 1),)), b.wterms[0][1])
    g = c - 1 if b == mul(p, from_int(c)) else c
    q, r = div(a, OMEGA)
    limits = mul(p, mul(OMEGA, q) if g else q)
    n = r.nat_value()
    if n <= 1:
        return succ(limits) if n else limits
    return add(add(limits, mul(p, from_int(g * (n - 2)))), b)


def segment_member(spec: OrderingSpec, n: int, alpha: Ordinal) -> bool:
    """n lies in the initial segment of elements of rank below alpha."""
    return lt(rank(spec, n), alpha)


def elements_up_to_rank(spec: OrderingSpec, k: int) -> list[int]:
    """The elements of rank 0..k-1, for k <= otyp(spec)."""
    return [element_of_rank(spec, from_int(i)) for i in range(k)]


def finite_field(spec: OrderingSpec) -> list[int] | None:
    """The whole field when the order type is finite, else None."""
    try:
        size = otyp(spec)
    except UnsupportedRankError:
        return None
    return elements_up_to_rank(spec, size.nat_value()) if size.is_finite() else None


def finite_predecessors(spec: OrderingSpec, n: int) -> list[int] | None:
    """All strict predecessors of n when its rank is finite, else None."""
    try:
        rho = rank(spec, n)
    except UnsupportedRankError:
        return None
    return elements_up_to_rank(spec, rho.nat_value()) if rho.is_finite() else None


def element_of_rank(spec: OrderingSpec, rho: Ordinal) -> int | None:
    """Inverse of rank; None when rho >= otyp(spec)."""
    if not lt(rho, otyp(spec)):
        return None
    return spec.element_of_rank(rho)


# --- field enumeration (ascending code order) --------------------------------


def iter_field(spec: OrderingSpec):
    """Field element codes in ascending code order."""
    yield from spec.iter_field()


def field_elements(spec: OrderingSpec, k: int) -> list[int]:
    """First k field elements by code."""
    return list(itertools.islice(iter_field(spec), k))


# --- S-expression format ---------------------------------------------------------


def _notation(x) -> Ordinal | None:
    return parse(x.value) if type(x) is Str else None


def _table_pair(x) -> tuple[int, int] | None:
    if type(x) is list and len(x) == 2 and all(type(v) is int and v >= 0 for v in x):
        return x[0], x[1]
    return None


SPECS = sexpr.Sort("an ordering spec", SpecError)
SPEC = Role(sort=SPECS)
# an ordinal notation, written quoted
ORDINAL = Role(lambda o: sexpr.quote(text(o)), _notation)

SPECS.define({
    FinOrd: ("fin", (NATURAL,)),
    BelowOrd: ("below", (ORDINAL,)),
    SumOrd: ("sum", (SPEC, SPEC)),
    LexOrd: ("lex", (SPEC, SPEC)),
    RevOrd: ("rev", (SPEC,)),
    TableOrd: ("table", (Role(lambda p: f"({p[0]} {p[1]})", _table_pair, many=REST),)),
})


def spec_text(spec: OrderingSpec) -> str:
    return sexpr.write(SPECS, spec)


def parse_spec(s: str) -> OrderingSpec:
    return sexpr.read(SPECS, sexpr.parse(s))

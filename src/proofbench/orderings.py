"""Computable orderings as a closed combinator algebra.

Combinators: Fin(k), Below(gamma) (canonical notations under gamma, coded as
naturals), Sum(A,B), Lex(A,B) (first coordinate most significant), Rev(A)
(reversal; generally ill-founded) and Table (explicit finite relation).

Element coding is fixed and documented:
  * Below(gamma): the big-endian base-256 value of the ASCII text of the
    canonical notation.  Code order therefore equals shortlex text order.
  * Sum(A,B): even codes 2a are A-elements, odd codes 2b+1 are B-elements.
  * Lex(A,B): the Cantor pairing (a+b)(a+b+1)/2 + b of the component codes,
    A-component first.

Every rank-supporting combinator gets a computable rank (the order type of
its strict predecessors) and a compositional order type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from heapq import heappop, heappush, merge
from math import isqrt

from . import sexpr
from .ordinals import (ONE, Cmp, NotationError, Ordinal, add, canonical_texts, compare, div, from_int, left_diff, lt,
                       mul, parse, text)
from .sexpr import NATURAL, REST, Role, Str
from .verdict import Verdict


class SpecError(ValueError):
    """Malformed ordering specification."""


class UnsupportedRankError(ValueError):
    """Rank/order type requested on a spec without one (Rev, bad tables)."""


@dataclass(frozen=True)
class FinOrd:
    size: int


@dataclass(frozen=True)
class BelowOrd:
    bound: Ordinal


@dataclass(frozen=True)
class SumOrd:
    first: "OrderingSpec"
    second: "OrderingSpec"


@dataclass(frozen=True)
class LexOrd:
    major: "OrderingSpec"
    minor: "OrderingSpec"


@dataclass(frozen=True)
class RevOrd:
    inner: "OrderingSpec"


@dataclass(frozen=True)
class TableOrd:
    pairs: frozenset[tuple[int, int]]


OrderingSpec = FinOrd | BelowOrd | SumOrd | LexOrd | RevOrd | TableOrd


# --- element coding ----------------------------------------------------------


def _text_code(s: str) -> int:
    return int.from_bytes(s.encode("ascii"), "big")


def ord_code(o: Ordinal) -> int:
    return _text_code(text(o))


def ord_decode(n: int) -> Ordinal | None:
    if n <= 0:
        return None
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
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


def _table_field(t: TableOrd) -> frozenset[int]:
    return frozenset(x for p in t.pairs for x in p)


# --- decision procedures ------------------------------------------------------


def in_field(spec: OrderingSpec, n: int) -> bool:
    if isinstance(spec, FinOrd):
        return 0 <= n < spec.size
    if isinstance(spec, BelowOrd):
        o = ord_decode(n)
        return o is not None and lt(o, spec.bound)
    if isinstance(spec, SumOrd):
        part, m = (spec.first, n // 2) if n % 2 == 0 else (spec.second, n // 2)
        return n >= 0 and in_field(part, m)
    if isinstance(spec, LexOrd):
        if n < 0:
            return False
        a, b = unpair_code(n)
        return in_field(spec.major, a) and in_field(spec.minor, b)
    if isinstance(spec, RevOrd):
        return in_field(spec.inner, n)
    if isinstance(spec, TableOrd):
        return n in _table_field(spec)
    raise SpecError(f"unknown spec {spec!r}")


def less(spec: OrderingSpec, n: int, m: int) -> bool:
    if isinstance(spec, FinOrd):
        return 0 <= n < m < spec.size
    if isinstance(spec, BelowOrd):
        a, b = ord_decode(n), ord_decode(m)
        return (
            a is not None
            and b is not None
            and lt(a, spec.bound)
            and lt(b, spec.bound)
            and lt(a, b)
        )
    if isinstance(spec, SumOrd):
        if not (in_field(spec, n) and in_field(spec, m)):
            return False
        if n % 2 == 0 and m % 2 == 1:
            return True
        if n % 2 == 1 and m % 2 == 0:
            return False
        part = spec.first if n % 2 == 0 else spec.second
        return less(part, n // 2, m // 2)
    if isinstance(spec, LexOrd):
        if not (in_field(spec, n) and in_field(spec, m)):
            return False
        na, nb = unpair_code(n)
        ma, mb = unpair_code(m)
        if na != ma:
            return less(spec.major, na, ma)
        return less(spec.minor, nb, mb)
    if isinstance(spec, RevOrd):
        return n != m and less(spec.inner, m, n)
    if isinstance(spec, TableOrd):
        return (n, m) in spec.pairs
    raise SpecError(f"unknown spec {spec!r}")


def _table_valid(t: TableOrd) -> bool:
    field = sorted(_table_field(t))
    for x in field:
        if (x, x) in t.pairs:
            return False
    for x, y in itertools.combinations(field, 2):
        if ((x, y) in t.pairs) == ((y, x) in t.pairs):
            return False
    for x, y in t.pairs:
        for z in field:
            if (y, z) in t.pairs and (x, z) not in t.pairs:
                return False
    return True


def rankable(spec: OrderingSpec) -> bool:
    """True when the combinator is well-founded by construction."""
    if isinstance(spec, (FinOrd, BelowOrd)):
        return True
    if isinstance(spec, (SumOrd, LexOrd)):
        a, b = _parts(spec)
        return rankable(a) and rankable(b)
    if isinstance(spec, RevOrd):
        return False
    if isinstance(spec, TableOrd):
        return _table_valid(spec)
    raise SpecError(f"unknown spec {spec!r}")


def _parts(spec):
    if isinstance(spec, SumOrd):
        return spec.first, spec.second
    return spec.major, spec.minor


@lru_cache(maxsize=None)
def otyp(spec: OrderingSpec) -> Ordinal:
    if isinstance(spec, FinOrd):
        return from_int(spec.size)
    if isinstance(spec, BelowOrd):
        return spec.bound
    if isinstance(spec, SumOrd):
        return add(otyp(spec.first), otyp(spec.second))
    if isinstance(spec, LexOrd):
        return mul(otyp(spec.minor), otyp(spec.major))
    if isinstance(spec, TableOrd):
        if not _table_valid(spec):
            raise UnsupportedRankError("table is not a linear order")
        return from_int(len(_table_field(spec)))
    raise UnsupportedRankError(f"no order type for {spec!r}")


@lru_cache(maxsize=262144)
def rank(spec: OrderingSpec, n: int) -> Ordinal:
    """Order type of the strict predecessors of n."""
    if not in_field(spec, n):
        raise UnsupportedRankError(f"{n} is not in the field")
    if isinstance(spec, FinOrd):
        return from_int(n)
    if isinstance(spec, BelowOrd):
        o = ord_decode(n)
        assert o is not None
        return o
    if isinstance(spec, SumOrd):
        if n % 2 == 0:
            return rank(spec.first, n // 2)
        return add(otyp(spec.first), rank(spec.second, n // 2))
    if isinstance(spec, LexOrd):
        a, b = unpair_code(n)
        return add(mul(otyp(spec.minor), rank(spec.major, a)), rank(spec.minor, b))
    if isinstance(spec, TableOrd):
        if not _table_valid(spec):
            raise UnsupportedRankError("table is not a linear order")
        below = [x for x in _table_field(spec) if (x, n) in spec.pairs]
        return from_int(len(below))
    raise UnsupportedRankError(f"no rank on {spec!r}")


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
    if not size.is_finite():
        return None
    return elements_up_to_rank(spec, size.nat_value())


def finite_predecessors(spec: OrderingSpec, n: int) -> list[int] | None:
    """All strict predecessors of n when its rank is finite, else None."""
    try:
        rho = rank(spec, n)
    except UnsupportedRankError:
        return None
    if not rho.is_finite():
        return None
    return elements_up_to_rank(spec, rho.nat_value())


def element_of_rank(spec: OrderingSpec, rho: Ordinal) -> int | None:
    """Inverse of rank; None when rho >= otyp(spec)."""
    if not lt(rho, otyp(spec)):
        return None
    if isinstance(spec, FinOrd):
        return rho.nat_value()
    if isinstance(spec, BelowOrd):
        return ord_code(rho)
    if isinstance(spec, SumOrd):
        first_type = otyp(spec.first)
        if lt(rho, first_type):
            return 2 * element_of_rank(spec.first, rho)
        return 2 * element_of_rank(spec.second, left_diff(first_type, rho)) + 1
    if isinstance(spec, TableOrd):
        ordered = sorted(_table_field(spec), key=cmp_to_key(lambda x, y: -1 if less(spec, x, y) else 1))
        return ordered[rho.nat_value()]
    # otyp raised on every other spec, so this is a lex: rho = otyp(minor)*q + r
    q, r = div(rho, otyp(spec.minor))
    return pair_code(element_of_rank(spec.major, q), element_of_rank(spec.minor, r))


# --- field enumeration (ascending code order) --------------------------------


def _iter_below(bound: Ordinal):
    if bound.is_finite():  # just 0..n-1
        return map(_text_code, map(str, range(bound.nat_value())))
    # an infinite bound holds every natural, so no length of text comes up
    # empty, and only the texts that are not numerals need a comparison
    return (_text_code(s) for s in canonical_texts() if s[0].isdigit() or lt(parse(s), bound))


def _iter_lex(spec: LexOrd):
    """Lex codes in code order, by a lazy merge of the rows pair_code(a_i, b_j).

    pair_code grows with each argument, so row i waits until (i-1, 0) is
    out, and each row asks for b_j only after row 0 has asked for it.
    """
    sides = (iter_field(spec.major), iter_field(spec.minor))
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


def iter_field(spec: OrderingSpec):
    """Field element codes in ascending code order."""
    if isinstance(spec, FinOrd):
        yield from range(spec.size)
    elif isinstance(spec, BelowOrd):
        yield from _iter_below(spec.bound)
    elif isinstance(spec, SumOrd):
        yield from merge(
            (2 * a for a in iter_field(spec.first)),
            (2 * b + 1 for b in iter_field(spec.second)),
        )
    elif isinstance(spec, RevOrd):
        yield from iter_field(spec.inner)
    elif isinstance(spec, TableOrd):
        yield from sorted(_table_field(spec))
    elif isinstance(spec, LexOrd):
        yield from _iter_lex(spec)
    else:
        raise SpecError(f"unknown spec {spec!r}")


def field_elements(spec: OrderingSpec, k: int) -> list[int]:
    """First k field elements by code."""
    return list(itertools.islice(iter_field(spec), k))


# --- linearity check ----------------------------------------------------------


@dataclass(frozen=True)
class LoReport:
    verdict: Verdict
    violation: tuple[int, ...] | None
    clause: str | None
    checked: int


def check_lo(spec: OrderingSpec, budget: int) -> LoReport:
    """Test irreflexivity, trichotomy and transitivity on codes below budget."""
    elems = [n for n in range(budget) if in_field(spec, n)]
    for x in elems:
        if less(spec, x, x):
            return LoReport(Verdict.FALSE, (x,), "irreflexivity", len(elems))
    for x, y in itertools.combinations(elems, 2):
        if not (less(spec, x, y) or less(spec, y, x)):
            return LoReport(Verdict.FALSE, (x, y), "trichotomy", len(elems))
    for x in elems:
        for y in elems:
            if x != y and less(spec, x, y):
                for z in elems:
                    if z != y and less(spec, y, z) and not less(spec, x, z):
                        return LoReport(Verdict.FALSE, (x, y, z), "transitivity", len(elems))
    return LoReport(Verdict.TRUE, None, None, len(elems))


# --- descending-chain search ---------------------------------------------------


def search_descending(spec: OrderingSpec, start: int, budget: int) -> list[int] | None:
    """Look for a descending chain of length `budget` starting at `start`.

    Rank-supporting specs are reported chain-free outright: every step
    strictly decreases the rank, a well-founded measure, so no constructive
    infinite descent exists.  For the remaining specs (reversals, malformed
    tables) a depth-first search over the code-least pool elements is run;
    repeated elements are allowed, so cycles count as descent.
    """
    if budget <= 0 or not in_field(spec, start):
        return None
    if rankable(spec):
        return None
    pool = field_elements(spec, max(64, 4 * budget))
    failed_at: dict[int, int] = {}

    def extend(chain: list[int]) -> list[int] | None:
        if len(chain) >= budget:
            return chain
        remaining = budget - len(chain)
        cur = chain[-1]
        if failed_at.get(cur, 0) >= remaining:
            return None
        for cand in pool:
            if less(spec, cand, cur):
                chain.append(cand)
                got = extend(chain)
                if got is not None:
                    return got
                chain.pop()
        failed_at[cur] = max(failed_at.get(cur, 0), remaining)
        return None

    return extend([start])


# --- embedding search -----------------------------------------------------------


@dataclass(frozen=True)
class EmbedResult:
    ok: bool
    mapping: tuple[tuple[int, int], ...] | None
    reason: str


def embed_search(source: OrderingSpec, beta: int, target: OrderingSpec, budget: int) -> EmbedResult:
    """Order-preserving map of {x : x <= beta in source} into target.

    The restriction is sampled at codes below `budget` (at most 256 of
    them).  For rank-supporting targets the decision is exact: the
    restriction (order type rank(beta)+1) embeds iff that does not exceed
    otyp(target), and the emitted map is the canonical rank-preserving one.
    Ill-founded targets get a greedy budgeted search instead, so failures
    there only mean "not found at this budget".
    """
    if not in_field(source, beta):
        return EmbedResult(False, None, "restriction point outside the field")
    restriction = []
    for x in iter_field(source):
        if x >= budget or len(restriction) >= 256:
            break
        if x == beta or less(source, x, beta):
            restriction.append(x)
    restriction.sort(key=cmp_to_key(lambda a, b: -1 if less(source, a, b) else 1))

    if rankable(target):
        top = add(rank(source, beta), ONE)
        if compare(top, otyp(target)) is Cmp.GT:
            return EmbedResult(False, None, "target order type too small")
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
                return EmbedResult(False, None, "target pool exhausted")
            prev = pool[pos]
            mapping.append((x, prev))
            pos += 1

    for (x, fx), (y, fy) in itertools.combinations(mapping, 2):
        if less(source, x, y) and not less(target, fx, fy):
            return EmbedResult(False, None, f"not order-preserving at ({x},{y})")
        if less(source, y, x) and not less(target, fy, fx):
            return EmbedResult(False, None, f"not order-preserving at ({y},{x})")
    return EmbedResult(True, tuple(mapping), "ok")


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
ORDINAL = Role(lambda o: Str(text(o)), _notation)

SPECS.define({
    FinOrd: ("fin", (NATURAL,)),
    BelowOrd: ("below", (ORDINAL,)),
    SumOrd: ("sum", (SPEC, SPEC)),
    LexOrd: ("lex", (SPEC, SPEC)),
    RevOrd: ("rev", (SPEC,)),
    TableOrd: ("table", (Role(list, _table_pair, many=REST),)),
})


def spec_text(spec: OrderingSpec) -> str:
    return sexpr.dump(sexpr.write(SPECS, spec))


def parse_spec(s: str) -> OrderingSpec:
    return sexpr.read(SPECS, sexpr.parse(s))

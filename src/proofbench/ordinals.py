"""Ordinal notations below epsilon_0 * omega in hereditary Cantor normal form.

A notation is a formal sum  E*k + w^e1*c1 + ... + w^em*cm  where E is a
distinguished atom denoting epsilon_0, the exponents e_i are themselves
notations that are hereditarily E-free (so canonicity is purely structural),
exponents strictly decrease left to right, and all coefficients are >= 1.
The empty sum is 0.  Every representable value is below epsilon_0 * omega,
which leaves room for values such as E+1 produced by the bound machinery.

Text grammar:

    notation  = term ("+" term)*
    term      = nat | "E" ["*" nat] | "w" ["^" exp] ["*" nat]
    exp       = nat | "w" | "(" notation ")"
    nat       = one or more of the ASCII digits 0-9

A text is read by this grammar alone and accepted only when `text` writes
its value back unchanged.  So a notation has one spelling: no leading
zeros, no coefficient or exponent 0 or 1 written out, no parentheses around
a numeral or w, E first, no zero term, and exponents in decreasing order.

Examples: ``w^2*3+w+5``, ``E+1``, ``w^(w+1)*2``.
"""

from __future__ import annotations

import itertools
import math
import re
from enum import Enum
from functools import cache, lru_cache


class NotationError(ValueError):
    """Malformed or non-canonical notation."""


class CapExceededError(ArithmeticError):
    """Operation result would reach or exceed epsilon_0 * omega, or has a
    coefficient too long to write."""


class Cmp(Enum):
    LT = -1
    EQ = 0
    GT = 1


def frozen(self, name, *value):
    """`__setattr__` and `__delattr__` of an ordinal and a `sexpr.term`."""
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def stored_hash(self) -> int:
    """`__hash__` of an ordinal and a `sexpr.term`: the hash set at construction."""
    return self._hash


class Ordinal:
    """Canonical notation: E-coefficient plus descending w-power terms.

    ``wterms`` is a tuple of (exponent, coefficient) pairs; the finite part,
    if any, is the trailing pair with exponent ZERO.

    ``key`` is ``(eterm, ((exponent key, coefficient), ...))``, built at
    construction from the exponents' keys.  Tuples compare in notation
    order: the E coefficient first, then term by term the exponent and the
    coefficient, and a sum that is a proper prefix of another is smaller.
    So two ordinals compare, and are equal, as their keys do.  The hash is
    that of (eterm, wterms), computed once too.  Both are set, with the
    fields, through the slots in one frame; then the ordinal is frozen.
    """

    __slots__ = ("eterm", "wterms", "key", "_hash")
    __setattr__ = __delattr__ = frozen
    __hash__ = stored_hash

    def __init__(self, eterm: int, wterms: tuple[tuple["Ordinal", int], ...]):
        if eterm < 0:
            raise NotationError("negative E coefficient")
        keys = []
        prev = None
        for exp, coeff in wterms:
            if coeff < 1:
                raise NotationError("coefficient below 1")
            if exp.eterm != 0:
                raise NotationError("E may not appear in an exponent")
            if prev is not None and not prev > exp.key:
                raise NotationError("exponents must strictly decrease")
            prev = exp.key
            keys.append((prev, coeff))
        _set_eterm(self, eterm)
        _set_wterms(self, wterms)
        _set_key(self, (eterm, tuple(keys)))
        _set_hash(self, hash((eterm, wterms)))

    def __eq__(self, other):
        if other.__class__ is Ordinal:
            return self.key == other.key
        return NotImplemented

    def is_zero(self) -> bool:
        return self.eterm == 0 and not self.wterms

    def is_finite(self) -> bool:
        if self.eterm:
            return False
        return not self.wterms or (len(self.wterms) == 1 and self.wterms[0][0].is_zero())

    def nat_value(self) -> int:
        if not self.is_finite():
            raise NotationError("not a finite notation")
        return self.wterms[0][1] if self.wterms else 0

    def __str__(self) -> str:
        return text(self)

    def __repr__(self) -> str:
        return f"Ordinal({text(self)!r})"


# the frozen class's __setattr__ refuses; its slots take the values
_set_eterm, _set_wterms, _set_key, _set_hash = (Ordinal.__dict__[name].__set__ for name in Ordinal.__slots__)

ZERO = Ordinal(0, ())
ONE = Ordinal(0, ((ZERO, 1),))
OMEGA = Ordinal(0, ((ONE, 1),))
EPSILON = Ordinal(1, ())


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise NotationError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(0, ((ZERO, n),))


def compare(a: Ordinal, b: Ordinal) -> Cmp:
    """Order of the denoted ordinals; total on canonical notations."""
    ka, kb = a.key, b.key
    if ka < kb:
        return Cmp.LT
    return Cmp.EQ if ka == kb else Cmp.GT


def lt(a: Ordinal, b: Ordinal) -> bool:
    return a.key < b.key


def le(a: Ordinal, b: Ordinal) -> bool:
    return a.key <= b.key


def max_ord(a: Ordinal, b: Ordinal) -> Ordinal:
    return b if lt(a, b) else a


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition (left summand partially absorbed at limits)."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    if b.eterm:
        return Ordinal(a.eterm + b.eterm, b.wterms)
    lead, lead_coeff = b.wterms[0]
    kept = []
    merged = False
    for exp, coeff in a.wterms:
        c = compare(exp, lead)
        if c is Cmp.GT:
            kept.append((exp, coeff))
        elif c is Cmp.EQ:
            kept.append((exp, coeff + lead_coeff))
            merged = True
            break
        else:
            break
    rest = b.wterms[1:] if merged else b.wterms
    return Ordinal(a.eterm, tuple(kept) + rest)


def succ(a: Ordinal) -> Ordinal:
    return add(a, ONE)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication a*b (b copies of a), left-distributed over b."""
    if a.is_zero() or b.is_zero():
        return ZERO
    acc = ZERO
    if b.eterm:
        if a.eterm:
            raise CapExceededError("E * E exceeds the notation cap")
        acc = Ordinal(b.eterm, ())
    for exp, coeff in b.wterms:
        if exp.is_zero():
            if a.eterm:
                part = Ordinal(a.eterm * coeff, a.wterms)
            else:
                lead, lead_coeff = a.wterms[0]
                part = Ordinal(0, ((lead, lead_coeff * coeff),) + a.wterms[1:])
        else:
            if a.eterm:
                raise CapExceededError("E * w^e exceeds the notation cap")
            lead = a.wterms[0][0]
            part = Ordinal(0, ((add(lead, exp), coeff),))
        acc = add(acc, part)
    return acc


def _left_pred(e: Ordinal) -> Ordinal:
    # the f with 1 + f = e, defined for e >= 1
    if e.is_finite():
        return from_int(e.nat_value() - 1)
    return e


def pow2(a: Ordinal) -> Ordinal:
    """2^a for a <= epsilon_0, via a = w*q + n  ==>  2^a = w^q * 2^n."""
    if a.eterm:
        if a == EPSILON:
            return EPSILON
        raise CapExceededError("pow2 argument above epsilon_0")
    n = 0
    limit_terms = []
    for exp, coeff in a.wterms:
        if exp.is_zero():
            n = coeff
        else:
            limit_terms.append((_left_pred(exp), coeff))
    if not limit_terms:
        return from_int(2**n)
    q = Ordinal(0, tuple(limit_terms))
    return Ordinal(0, ((q, 2**n),))


def left_diff(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c = b, for a <= b."""
    if lt(b, a):
        raise NotationError("left difference needs a <= b")
    if a.eterm != b.eterm:
        return Ordinal(b.eterm - a.eterm, b.wterms)
    k = 0
    while k < len(a.wterms) and k < len(b.wterms) and a.wterms[k] == b.wterms[k]:
        k += 1
    if k == len(a.wterms):
        return Ordinal(0, b.wterms[k:])
    ea, ca = a.wterms[k]
    eb, cb = b.wterms[k]
    if ea == eb:
        # a < b with equal exponents at k forces ca < cb; the rest of a is
        # absorbed into the merged leading term
        return Ordinal(0, ((eb, cb - ca),) + b.wterms[k + 1 :])
    return Ordinal(0, b.wterms[k:])


def div(a: Ordinal, b: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Left division: the (q, r) with a = b*q + r and r < b, for b > 0.

    With w^l the leading power of b, b*w^g = w^(l+g) for g >= 1, and b*E = E
    when b < E.  So every E and every term w^e*c of a with e > l passes to
    q as E or w^(e-l)*c; what remains of a is b*n + r for the largest
    natural n with b*n <= it.
    """
    if b.is_zero():
        raise ZeroDivisionError("ordinal division by zero")
    if b.eterm:
        # b*w already exceeds every notation, so q is finite
        q, rest, n = ZERO, a, a.eterm // b.eterm
    else:
        lead, lead_coeff = b.wterms[0]
        k = sum(1 for e, _ in a.wterms if lt(lead, e))  # exponents decrease
        q = Ordinal(a.eterm, tuple((left_diff(lead, e), c) for e, c in a.wterms[:k]))
        rest = Ordinal(0, a.wterms[k:])
        n = rest.wterms[0][1] // lead_coeff if rest.wterms and rest.wterms[0][0] == lead else 0
    # n bounds the quotient from above and misses it by at most one
    if lt(rest, mul(b, from_int(n))):
        n -= 1
    return add(q, from_int(n)), left_diff(mul(b, from_int(n)), rest)


# --- text form -------------------------------------------------------------


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # more digits than str() writes
        k = int(math.log10(n))  # the exact floor, or one off it
        k += (10 ** (k + 1) <= n) - (10**k > n)
        raise CapExceededError(f"a {k + 1}-digit coefficient is too long to write") from None


def _exp_text(e: Ordinal) -> str:
    if e.is_finite():
        return _decimal(e.nat_value())
    if e == OMEGA:
        return "w"
    return f"({text(e)})"


def text(a: Ordinal) -> str:
    """Canonical text; parse(text(a)) == a.

    Raises CapExceededError when a coefficient has more digits than the
    interpreter converts to text.
    """
    if a.is_zero():
        return "0"
    parts = []
    if a.eterm:
        parts.append("E" if a.eterm == 1 else f"E*{_decimal(a.eterm)}")
    for exp, coeff in a.wterms:
        if exp.is_zero():
            parts.append(_decimal(coeff))
            continue
        if exp == ONE:
            base = "w"
        else:
            base = f"w^{_exp_text(exp)}"
        parts.append(base if coeff == 1 else f"{base}*{_decimal(coeff)}")
    return "+".join(parts)


# Parenthesised exponents may nest this deep.  The reader recurses once per
# level, so deeper input is rejected rather than left to exhaust the stack.
MAX_NESTING = 100

# a run of ASCII digits, or any other single character
_TOKEN = re.compile(r"[0-9]+|.", re.DOTALL)


def _unexpected(tokens: list[str], i: int) -> NotationError:
    found = repr(tokens[i]) if tokens[i] else "end of input"
    return NotationError(f"unexpected {found} at offset {sum(map(len, tokens[:i]))} in {''.join(tokens)!r}")


def _read_nat(tokens: list[str], i: int) -> tuple[int, int]:
    if not "0" <= tokens[i][:1] <= "9":
        raise _unexpected(tokens, i)
    try:
        return int(tokens[i]), i + 1
    except ValueError:  # more digits than int() reads
        at = sum(map(len, tokens[:i]))
        raise NotationError(f"the {len(tokens[i])}-digit numeral at offset {at} is too long to read") from None


def _read_coeff(tokens: list[str], i: int) -> tuple[int, int]:
    return _read_nat(tokens, i + 1) if tokens[i] == "*" else (1, i)


def _read_exp(tokens: list[str], i: int, depth: int) -> tuple[Ordinal, int]:
    if tokens[i] == "w":
        return OMEGA, i + 1
    if tokens[i] != "(":
        n, i = _read_nat(tokens, i)
        return from_int(n), i
    if depth >= MAX_NESTING:
        raise NotationError(f"exponents nest deeper than {MAX_NESTING} levels")
    e, i = _read_sum(tokens, i + 1, depth + 1)
    if tokens[i] != ")":
        raise _unexpected(tokens, i)
    return e, i + 1


def _read_sum(tokens: list[str], i: int, depth: int) -> tuple[Ordinal, int]:
    """The sum from token i on, built in one pass: the coefficient of its
    last E term and its nonzero w-terms in the order written.  `parse`
    rejects every text whose terms are not as canonical form has them."""
    eterm, wterms = 0, []
    while True:
        if tokens[i] == "E":
            eterm, i = _read_coeff(tokens, i + 1)
        elif tokens[i] == "w":
            exp, i = _read_exp(tokens, i + 2, depth) if tokens[i + 1] == "^" else (ONE, i + 1)
            coeff, i = _read_coeff(tokens, i)
            if coeff:
                wterms.append((exp, coeff))
        else:
            n, i = _read_nat(tokens, i)
            if n:
                wterms.append((ZERO, n))
        if tokens[i] != "+":
            break
        i += 1
    try:
        return Ordinal(eterm, tuple(wterms)), i
    except NotationError as e:  # the terms are out of order
        raise NotationError(f"{e} in {''.join(tokens)!r}") from None


@lru_cache(maxsize=65536)
def parse(s: str) -> Ordinal:
    """The notation whose canonical text is `s`.

    `s` is read by the grammar above, and its value is returned only when
    `text` writes it back as `s`; every other spelling, and any digit
    outside ASCII 0-9, raises NotationError.  A canonical ASCII numeral
    that int() reads skips the grammar, which would read the same value.
    """
    if s.isascii() and s.isdigit() and (s[0] != "0" or s == "0"):
        try:
            return from_int(int(s))
        except ValueError:  # more digits than int() reads: left to the grammar
            pass
    tokens = _TOKEN.findall(s)
    tokens.append("")  # end of input
    value, i = _read_sum(tokens, 0, 0)
    if tokens[i]:
        raise _unexpected(tokens, i)
    canonical = text(value)
    if canonical != s:
        raise NotationError(f"{s!r} is not canonical: it is written {canonical!r}")
    return value


def canonical_texts():
    """Every canonical notation text, shortest first and in text order within a length.

    Texts are built from the grammar above one length at a time, with E only
    first in a sum and a natural only last, as canonical form has them.  Each
    production is memoized per length, for this generator alone, as a tuple.
    Digits sort before "E" and "w", so within a length the numerals come
    first.  Exponent order is left to `parse`, which drops the texts that are
    not canonical.
    """

    def nats(n: int, least: int):
        """Naturals >= least written with n digits."""
        return map(str, range(max(least, 10 ** (n - 1) if n > 1 else 0), 10**n if n > 0 else 0))

    @cache
    def coeff(n: int) -> tuple[str, ...]:
        return ("",) if n == 0 else tuple("*" + c for c in nats(n - 1, 2))

    @cache
    def exponent(n: int) -> tuple[str, ...]:
        return (*nats(n, 2), *(("w",) if n == 1 else ()), *("(" + s + ")" for s in w_sum(n - 2)))

    def e_term(n: int) -> tuple[str, ...]:
        return tuple("E" + c for c in coeff(n - 1))

    @cache
    def w_term(n: int) -> tuple[str, ...]:
        powers = ("w^" + e + c for k in range(1, n - 1) for e in exponent(k) for c in coeff(n - 2 - k))
        return (*("w" + c for c in coeff(n - 1)), *powers)

    def sums(term, n: int) -> tuple[str, ...]:
        """A term alone, or followed by "+" and a sum of w-terms or a nonzero natural."""
        return (*term(n), *(t + "+" + s for k in range(1, n - 1) for t in term(k)
                            for s in itertools.chain(w_sum(n - 1 - k), nats(n - 1 - k, 1))))

    @cache
    def w_sum(n: int) -> tuple[str, ...]:
        return sums(w_term, n)

    for n in itertools.count(1):
        yield from nats(n, 0)
        for s in sorted(sums(e_term, n) + w_sum(n)):
            try:
                parse(s)
            except NotationError:
                continue
            yield s

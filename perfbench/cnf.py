"""A small Cantor-normal-form oracle, written apart from `proofbench.ordinals`.

An ordinal below epsilon_0 is a tuple of (exponent, coefficient) pairs with
strictly decreasing exponents; () is zero.  Only what the benchmark's
expected answers need is here: strict parsing of the notation text,
comparison, addition, multiplication, `w*a`, `2^a` and printing.
"""

from __future__ import annotations

ZERO: tuple = ()


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


ONE = nat(1)
OMEGA = ((ONE, 1),)


def cmp(a: tuple, b: tuple) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def add(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    lead, coeff = b[0]
    kept = [t for t in a if cmp(t[0], lead) > 0]
    same = [c for e, c in a if cmp(e, lead) == 0]
    if same:
        return tuple(kept) + ((lead, same[0] + coeff),) + b[1:]
    return tuple(kept) + b


def mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ZERO
    out = ZERO
    for e, c in b:
        if not e:
            part = ((a[0][0], a[0][1] * c),) + a[1:]
        else:
            part = ((add(a[0][0], e), c),)
        out = add(out, part)
    return out


def is_finite(a: tuple) -> bool:
    return not a or (len(a) == 1 and not a[0][0])


def pow2(a: tuple) -> tuple:
    """2^a, from a = w*q + n  ==>  2^a = w^q * 2^n."""
    n = 0
    q = []
    for e, c in a:
        if not e:
            n = c
        else:
            # the f with 1 + f = e
            q.append((nat(e[0][1] - 1) if is_finite(e) else e, c))
    return ((tuple(q), 2**n),) if q else nat(2**n)


def text(a: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif is_finite(e):
            base = f"w^{e[0][1]}"
        elif e == OMEGA:
            base = "w^w"
        else:
            base = f"w^({text(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def _parse_sum(s: str, i: int) -> tuple[tuple, int]:
    terms = []
    while True:
        if s.startswith("w", i):
            i += 1
            exp = ONE
            if s.startswith("^", i):
                i += 1
                if s.startswith("(", i):
                    exp, i = _parse_sum(s, i + 1)
                    if not s.startswith(")", i):
                        raise ValueError(f"unclosed exponent in {s!r}")
                    i += 1
                elif s.startswith("w", i):
                    exp, i = OMEGA, i + 1
                else:
                    n, i = _parse_nat(s, i)
                    exp = nat(n)
            coeff = 1
            if s.startswith("*", i):
                coeff, i = _parse_nat(s, i + 1)
            terms.append((exp, coeff))
        else:
            n, i = _parse_nat(s, i)
            terms.append((ZERO, n))
        if not s.startswith("+", i):
            return tuple(terms), i
        i += 1


def _parse_nat(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ValueError(f"expected a number at {i} in {s!r}")
    return int(s[i:j]), j


def _canonical(a: tuple) -> bool:
    return all(c >= 1 and _canonical(e) for e, c in a) and all(
        cmp(a[k][0], a[k + 1][0]) > 0 for k in range(len(a) - 1)
    )


def parse(s: str) -> tuple:
    """Strict: only canonical text (as `text` prints it) is accepted."""
    if s == "0":
        return ZERO
    value, i = _parse_sum(s, 0)
    if i != len(s) or not _canonical(value) or text(value) != s:
        raise ValueError(f"not a canonical notation: {s!r}")
    return value


def below_code(a: tuple) -> int:
    """The code of a notation as an element of a `below` ordering."""
    return int.from_bytes(text(a).encode("ascii"), "big")


def from_below_code(n: int) -> tuple:
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big").decode("ascii")
    return parse(raw)

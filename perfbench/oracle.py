"""Expected answers, worked out apart from the program, and the checks on them.

Specs are the benchmark's own S-expressions (`sx` lists).  Order types,
ranks, root tags `w*otyp+1` and bounds `2^alpha` come from `cnf`; field
elements and their codes follow the coding the README documents (`below`:
the bytes of the notation text; `sum`: even/odd; `lex`: Cantor pairing).

`verify(expect, exit_code, records, ctx)` returns None when a request's
outcome is right and a one-line reason when it is not.  `expect` is a tuple
whose first item names the check.
"""

from __future__ import annotations

from math import isqrt

import cnf
import sx
from sx import Q


def fin(k: int):
    return ["fin", k]


def below(notation: str):
    return ["below", Q(notation)]


def spec_text(spec) -> str:
    return sx.dump(spec)


# --- the orderings ---------------------------------------------------------------


def otyp(spec) -> tuple:
    head = spec[0]
    if head == "fin":
        return cnf.nat(spec[1])
    if head == "below":
        return cnf.parse(spec[1].value)
    if head == "sum":
        return cnf.add(otyp(spec[1]), otyp(spec[2]))
    if head == "lex":
        return cnf.mul(otyp(spec[2]), otyp(spec[1]))
    raise ValueError(f"no order type for {spec_text(spec)}")


def root_tag(spec) -> tuple:
    return cnf.add(cnf.mul(cnf.OMEGA, otyp(spec)), cnf.ONE)


def pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


def rank(spec, n: int):
    """The rank of code n, or None when n is not in the field."""
    head = spec[0]
    if n < 0:
        return None
    if head == "fin":
        return cnf.nat(n) if n < spec[1] else None
    if head == "below":
        try:
            value = cnf.from_below_code(n)
        except (ValueError, UnicodeDecodeError, OverflowError):
            return None
        return value if cnf.cmp(value, otyp(spec)) < 0 else None
    if head == "sum":
        if n % 2 == 0:
            return rank(spec[1], n // 2)
        r = rank(spec[2], n // 2)
        return None if r is None else cnf.add(otyp(spec[1]), r)
    if head == "lex":
        a, b = unpair(n)
        ra, rb = rank(spec[1], a), rank(spec[2], b)
        if ra is None or rb is None:
            return None
        return cnf.add(cnf.mul(otyp(spec[2]), ra), rb)
    if head == "rev":
        return rank(spec[1], n)  # field membership only; the order is reversed
    raise ValueError(f"no rank for {spec_text(spec)}")


def _candidates(spec, limit: int) -> list[int]:
    """A superset of the `limit` code-least field elements (finite or small specs)."""
    head = spec[0]
    if head == "fin":
        return list(range(spec[1]))
    if head == "below":
        # naturals and w-polynomials of short text cover every spec used here
        texts = [str(i) for i in range(10 * limit)]
        for a in range(2, 10):
            texts += [f"w^{a}", f"w^{a}+1"]
        texts += ["w", "w+1", "w*2", "w^w"]
        out = []
        for t in texts:
            c = cnf.below_code(cnf.parse(t))
            if rank(spec, c) is not None:
                out.append(c)
        return out
    if head == "sum":
        return [2 * a for a in _candidates(spec[1], limit)] + [
            2 * b + 1 for b in _candidates(spec[2], limit)
        ]
    if head == "lex":
        return [pair(a, b) for a in _candidates(spec[1], limit) for b in _candidates(spec[2], limit)]
    raise ValueError(f"cannot enumerate {spec_text(spec)}")


def first_elements(spec, k: int) -> list[int]:
    """The k code-least field elements (fewer when the field is smaller)."""
    return sorted(set(_candidates(spec, k)))[:k]


def less(spec, a: int, b: int) -> bool:
    """Strict order between two field elements (rev reverses its inner order)."""
    if spec[0] == "rev":
        return less(spec[1], b, a)
    return cnf.cmp(rank(spec, a), rank(spec, b)) < 0


# --- checks on CLI records -------------------------------------------------------


def _one(records, exit_code: int, want_exit: int):
    if exit_code != want_exit:
        return None, f"exit {exit_code}, expected {want_exit}"
    if len(records) != 2:
        return None, f"expected one record and a verdict, got {len(records)} lines"
    verdict = "pass" if want_exit == 0 else "fail"
    if records[-1] != {"schema": "proofbench/1", "verdict": verdict}:
        return None, f"verdict object {records[-1]!r}, expected {verdict}"
    return records[0], None


def _same_spec(got: str, spec) -> bool:
    try:
        return sx.parse(got) == spec
    except ValueError:
        return False


def _check_pass(rec, min_nodes: int):
    if rec["passed"] is not True or rec["fail_path"] is not None:
        return f"valid certificate rejected at {rec['fail_path']}: {rec['fail_reason']}"
    if rec["cut_free"] is not True:
        return "cut-free certificate reported with cuts"
    if rec["nodes_visited"] < min_nodes:
        return f"visited {rec['nodes_visited']} nodes, the certificate needs {min_nodes}"
    return None


def _mutant(rec, path):
    if rec["passed"] is not False:
        return "mutant passed"
    got = rec["fail_path"]
    if not isinstance(got, list) or got != path[: len(got)]:
        return f"mutant rejected at {got}, mutated node is at {path}"
    return None


def _bound(rec, spec):
    tag = root_tag(spec)
    want = {
        "alpha": cnf.text(tag),
        "bound": cnf.text(cnf.pow2(tag)),
        "otyp": cnf.text(otyp(spec)),
        "verdict": "pass",
    }
    for key, value in want.items():
        if rec[key] != value:
            return f"{key} is {rec[key]!r}, expected {value!r}"
    if not _same_spec(rec["ordering"], spec):
        return f"ordering is {rec['ordering']!r}"
    elements = first_elements(spec, 200)
    got = [(c["element"], c["rank"], c["ok"]) for c in rec["checks"]]
    want_checks = [(e, cnf.text(rank(spec, e)), True) for e in elements]
    if got != want_checks:
        return f"rank checks differ from the first {len(elements)} field elements"
    return None


def _truth(rec, spec, element, width: int):
    """Claim walk on a TI root (element None) or on `(tiprog spec element)`."""
    if element is None:
        tag = root_tag(spec)
        sampled = [e for e in range(width) if rank(spec, e) is not None]
    else:
        tag = cnf.mul(cnf.OMEGA, cnf.add(rank(spec, element), cnf.ONE))
        sampled = [element]
    gamma = cnf.pow2(tag)
    want = {"alpha": cnf.text(tag), "beta": "0", "gamma": cnf.text(gamma), "verdict": "true"}
    for key, value in want.items():
        if rec[key] != value:
            return f"{key} is {rec[key]!r}, expected {value!r}"
    # the witness step and the membership axiom each check every sampled element
    want_checks = [(e, cnf.text(rank(spec, e)), True) for e in sampled for _ in (0, 1)]
    got = [(c["element"], c["rank"], c["ok"]) for c in rec["checks"]]
    if got != want_checks:
        return f"rank checks {got[:4]}..., expected {want_checks[:4]}..."
    return None


def _ti(rec, spec, out: str, ctx):
    tag = cnf.text(root_tag(spec))
    if rec != {"written": out, "root_tag": tag}:
        return f"ti record {rec!r}"
    tree = sx.parse(ctx.read(out))
    if tree[0] != "all" or tree[2] != Q(tag):
        return f"written root is {tree[0]} tagged {tree[2]!r}, expected all tagged {tag}"
    family = tree[3]
    indices = [i for i, _ in family[1]]
    field = first_elements(spec, 1000)
    if family[0] != "fs" or indices != field:
        return f"written root branches at {indices}, expected the field {field}"
    for i, child in family[1]:
        want = cnf.text(cnf.mul(cnf.OMEGA, cnf.add(rank(spec, i), cnf.ONE)))
        if child[2] != Q(want):
            return f"child {i} tagged {child[2]!r}, expected {want}"
    return None


def _lab_build(rec, name: str, claims: int):
    want = {"name": name, "claims": claims, "usable": list(range(claims))}
    return None if rec == want else f"build record {rec!r}, expected {want!r}"


def _max(values):
    best = values[0]
    for v in values[1:]:
        if cnf.cmp(v, best) > 0:
            best = v
    return best


def _lab_retype(rec, name: str, claim_specs, base):
    top = _max([otyp(s) for s in claim_specs])
    base_type = otyp(base)
    want = top if cnf.cmp(top, base_type) < 0 else base_type
    if rec != {"name": name, "otyp": cnf.text(want)}:
        return f"retype record {rec!r}, expected order type {cnf.text(want)}"
    return None


def _lab_culprit(rec, name: str, index: int, rev_spec, budget: int):
    if rec.get("verdict") != "culprit" or rec.get("name") != name:
        return f"no culprit reported: {rec!r}"
    if rec["claim_index"] != index or rec["evidence"] != "asserted":
        return f"culprit is claim {rec['claim_index']} ({rec['evidence']}), planted at {index}"
    if not _same_spec(rec["ordering"], rev_spec):
        return f"culprit ordering {rec['ordering']!r}"
    chain = rec["chain"]
    if len(chain) != budget:
        return f"descending chain of length {len(chain)}, budget {budget}"
    if chain[0] != first_elements(rev_spec[1], 1)[0]:
        return f"chain starts at {chain[0]}, not at the code-least element"
    if any(rank(rev_spec, x) is None for x in chain):
        return "chain leaves the field"
    if not all(less(rev_spec, b, a) for a, b in zip(chain, chain[1:])):
        return "chain does not descend in the claimed order"
    return None


def _lab_sound(rec, name: str, claims: int, budget: int):
    want = {"name": name, "verdict": "well-founded-up-to-budget", "budget": budget, "claims_checked": claims}
    return None if rec == want else f"reflect record {rec!r}, expected {want!r}"


def _chain_answer(stores, base):
    """stores: [(name, spec of its single checked claim)]; the expected record."""
    base_type = otyp(base)
    types = [_min(otyp(s), base_type) for _, s in stores]
    violation = next((i for i in range(len(types) - 1) if cnf.cmp(types[i], types[i + 1]) <= 0), None)
    entries = []
    for i, (name, spec) in enumerate(stores):
        witnessed = None if i + 1 == len(stores) else cnf.cmp(otyp(spec), types[i + 1]) >= 0
        entries.append({"name": name, "otyp": cnf.text(types[i]), "witnessed": witnessed})
    return {"entries": entries, "descent_ok": violation is None, "first_violation": violation}


def _min(a, b):
    return a if cnf.cmp(a, b) <= 0 else b


def _lab_chain(rec, stores, base):
    want = _chain_answer(stores, base)
    return None if rec == want else f"chain record {rec!r}, expected {want!r}"


def _spector(rec, entries, sample: int):
    """entries: [(index, spec)] of the enumeration file."""
    alpha = _max([root_tag(s) for _, s in entries])
    top = cnf.add(cnf.pow2(alpha), cnf.ONE)
    spots = sum(min(sample, len(first_elements(s, sample))) for _, s in entries)
    want = {
        "alpha": cnf.text(alpha),
        "witness_index": max(i for i, _ in entries) + 1,
        "witness_otyp": cnf.text(top),
        "witness_spec": spec_text(below(cnf.text(top))),
        "dominates": [{"index": i, "otyp": cnf.text(otyp(s)), "ok": True} for i, s in entries],
        "spot_checks": spots,
        "ok": True,
    }
    return None if rec == want else f"spector record {rec!r}, expected {want!r}"


_CHECKS = {
    # name: (expected exit code, check on the single record)
    "check_pass": (0, _check_pass),
    "mutant": (1, _mutant),
    "bound": (0, _bound),
    "truth": (0, _truth),
    "ti": (0, _ti),
    "lab_build": (0, _lab_build),
    "lab_retype": (0, _lab_retype),
    "lab_culprit": (1, _lab_culprit),
    "lab_sound": (0, _lab_sound),
    "lab_chain": (None, _lab_chain),  # exit code from the expected record
    "spector": (0, _spector),
}


def expected_exit(expect: tuple) -> int:
    name, *args = expect
    if name == "lab_chain":
        want = _chain_answer(*args)
        return 0 if want["descent_ok"] and all(e["witnessed"] is not False for e in want["entries"]) else 1
    return _CHECKS[name][0]


def verify(expect: tuple, exit_code: int, records: list, ctx) -> str | None:
    name, *args = expect
    rec, problem = _one(records, exit_code, expected_exit(expect))
    if problem:
        return problem
    if name == "mutant":
        args = [ctx.mutant_path(args[0])]
    if name == "check_pass" and isinstance(args[0], str):
        args = [ctx.nodes(args[0])]  # every explicit node of the certificate file
    if name == "ti":
        args.append(ctx)
    try:
        return _CHECKS[name][1](rec, *args)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed record: {type(e).__name__}: {e}"

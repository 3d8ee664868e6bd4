"""Workloads: seeded request lists and the input files they read.

A plan is a fixed list of requests, each one CLI call with its expected
outcome, plus the recipes for the input files.  A run cycles the list in
whole rounds.  The seed picks the inputs (mutated nodes, tiprog elements,
store layouts, enumeration indices, the `below "k"` bound) and the order of
the round; it never picks which kinds are in the round, so every seed does
the same mix of the same costs.

Input recipes, made at set-up:
  ("ti", SPEC, compact)          the program's own `ti` verb writes the file
  ("text", CONTENT)              the benchmark writes it
  ("mutant", BASE, MODE, PICK)   one node of BASE changed, see `mutate`
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import cnf
import sx
from oracle import below, fin, spec_text
from sx import Q

WORKLOADS = ("expanded", "lazy", "lab")


@dataclass(frozen=True)
class Request:
    kind: str  # one verb on one input; latency is summarised per kind
    argv: tuple[str, ...]
    expect: tuple  # see oracle.verify
    certs: tuple[str, ...]  # certificate files the request reads or writes


@dataclass(frozen=True)
class Input:
    name: str
    recipe: tuple


@dataclass(frozen=True)
class Plan:
    workload: str
    inputs: tuple[Input, ...]
    requests: tuple[Request, ...]


def build(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}/{seed}")
    inputs, requests = {"expanded": _expanded, "lazy": _lazy, "lab": _lab}[workload](rng)
    requests = list(requests)
    rng.shuffle(requests)
    return Plan(workload, tuple(inputs), tuple(requests))


def _check(name: str, width: int) -> tuple[str, ...]:
    return ("check", name, "--cut-free", "--depth", "400", "--width", str(width), "--json")


def _bound(spec, cert: str, *extra: str) -> tuple[str, ...]:
    return ("bound", "--ordering", spec_text(spec), "--cert", cert, *extra, "--json")


# --- expanded: written-out certificates for (fin k) ---------------------------------

REP_LEVELS = 1000
MUTATED_K = 7


def rep_tower(levels: int) -> str:
    """`rep` nodes over a `(= 1 1)` axiom; tags count down to the axiom's 0."""
    head = "".join(f'(rep (seq (= 1 1)) "{i}" ' for i in range(levels, 0, -1))
    return head + '(axm (seq (= 1 1)) "0")' + ")" * levels + "\n"


def _expanded(rng: random.Random):
    inputs, requests = [], []
    for k in range(5, 10):
        spec, name, width = fin(k), f"fin{k}.sx", k + 2
        inputs.append(Input(name, ("ti", spec_text(spec), False)))
        requests.append(Request(f"check fin{k}", _check(name, width), ("check_pass", name), (name,)))
        out = f"out-fin{k}.sx"
        requests.append(
            Request(f"ti fin{k}", ("ti", spec_text(spec), "-o", out, "--json"), ("ti", spec, out), (out,))
        )
        if k <= 8:
            deep = ("--depth", "400", "--width", str(width))
            requests.append(Request(f"bound fin{k}", _bound(spec, name, *deep), ("bound", spec), (name,)))
            requests.append(
                Request(
                    f"bound --truth fin{k}",
                    _bound(spec, name, "--truth", *deep),
                    ("truth", spec, None, width),
                    (name,),
                )
            )
    base = f"fin{MUTATED_K}.sx"
    for mode in MUTATIONS:
        name = f"mutant-{mode}.sx"
        inputs.append(Input(name, ("mutant", base, mode, rng.random())))
        requests.append(
            Request(f"check mutant-{mode}", _check(name, MUTATED_K + 2), ("mutant", name), (name,))
        )
    inputs.append(Input("rep.sx", ("text", rep_tower(REP_LEVELS))))
    requests.append(
        Request(
            "check rep-tower",
            ("check", "rep.sx", "--depth", str(4 * REP_LEVELS), "--json"),
            ("check_pass", REP_LEVELS + 1),
            ("rep.sx",),
        )
    )
    return inputs, requests


# --- lazy: builder terms on infinite fields -------------------------------------------


def _lazy(rng: random.Random):
    inputs, requests = [], []
    roots = {
        "w": (below("w"), 54),
        "w2": (below("w^2"), 55),
        "ww": (below("w^w"), 54),
        "sum": (["sum", fin(3), below("w")], 56),
        "fin9": (fin(9), 11),
        "fin10": (fin(10), 12),
    }
    for key, (spec, width) in roots.items():
        name = f"root-{key}.sx"
        inputs.append(Input(name, ("ti", spec_text(spec), True)))
        requests.append(Request(f"check tiroot {key}", _check(name, width), ("check_pass", 1 + width), (name,)))
    # tiprog elements of infinite rank (or, in `below "w"`, above the window),
    # so every window samples the same predecessors whatever the seed
    progs = {
        "w": (below("w"), str(rng.randrange(10, 100))),
        "w2": (below("w^2"), f"w*{rng.randrange(2, 10)}+{rng.randrange(1, 10)}"),
        "ww": (below("w^w"), f"w^{rng.randrange(2, 10)}*{rng.randrange(2, 10)}"),
    }
    elements = {}
    for key, (spec, notation) in progs.items():
        name, width = f"prog-{key}.sx", 54
        element = cnf.below_code(cnf.parse(notation))
        elements[key] = element
        inputs.append(Input(name, ("text", sx.dump(["tiprog", spec, element]) + "\n")))
        requests.append(Request(f"check tiprog {key}", _check(name, width), ("check_pass", 4 + width), (name,)))
    truths = [
        ("root-fin9.sx", fin(9), None, 11),
        ("root-w2.sx", below("w^2"), None, 54),
        ("root-w.sx", below("w"), None, 52),
        ("prog-w2.sx", below("w^2"), elements["w2"], 54),
    ]
    for name, spec, element, width in truths:
        requests.append(
            Request(
                f"bound --truth {name[:-3]}",
                _bound(spec, name, "--truth", "--depth", "400", "--width", str(width)),
                ("truth", spec, element, width),
                (name,),
            )
        )
    return inputs, requests


# --- lab: stores, enumerations and order-type bounds ------------------------------------

CHAIN_BUDGET = 50  # the CLI's default --chain-budget
SPOT_SAMPLE = 50  # field elements per entry that `spector` spot-checks


def _store(name: str, claims) -> str:
    """claims: [(spec, cert file or None for an asserted claim)]."""
    parts = [
        ["claim", spec, ["cert", Q(cert)] if cert else "asserted"] for spec, cert in claims
    ]
    return sx.dump(["theory", Q(name), *parts]) + "\n"


def _lab(rng: random.Random):
    w, w2, w3 = below("w"), below("w^2"), below("w^3")
    lex = ["lex", fin(3), w]
    sum_ = ["sum", fin(3), w]
    k = rng.randrange(2, 10)
    certs = {
        "cert-w.sx": (w, True),
        "cert-w2.sx": (w2, True),
        "cert-lex.sx": (lex, True),
        "cert-sum.sx": (sum_, True),
        "cert-k.sx": (below(str(k)), True),
        "cert-fin5.sx": (fin(5), False),
        "cert-fin3.sx": (fin(3), False),
    }
    inputs = [Input(name, ("ti", spec_text(spec), compact)) for name, (spec, compact) in certs.items()]
    requests = []

    def store(name: str, claims):
        rng.shuffle(claims)
        inputs.append(Input(f"{name}.sx", ("text", _store(name, claims))))
        return claims, tuple(cert for _, cert in claims if cert)

    rev = ["rev", rng.choice([w, w2])]
    mixed, mixed_certs = store(
        "mixed",
        [(w, "cert-w.sx"), (sum_, "cert-sum.sx"), (fin(5), "cert-fin5.sx"), (below("w^5"), None), (rev, None)],
    )
    requests.append(
        Request("lab build mixed", ("lab", "build", "mixed.sx", "--base", spec_text(w3), "--json"),
                ("lab_build", "mixed", len(mixed)), mixed_certs)
    )
    requests.append(
        Request("lab reflect mixed", ("lab", "reflect", "mixed.sx", "--base", spec_text(w2), "--json"),
                ("lab_culprit", "mixed", mixed.index((rev, None)), rev, CHAIN_BUDGET), mixed_certs)
    )
    sound, sound_certs = store("sound", [(w2, "cert-w2.sx"), (lex, "cert-lex.sx"), (w3, None)])
    requests.append(
        Request("lab reflect sound", ("lab", "reflect", "sound.sx", "--base", spec_text(w2), "--json"),
                ("lab_sound", "sound", len(sound), CHAIN_BUDGET), sound_certs)
    )
    checked, checked_certs = store(
        "checked", [(w2, "cert-w2.sx"), (lex, "cert-lex.sx"), (fin(3), "cert-fin3.sx")]
    )
    for key, base in (("below", w3), ("sum", ["sum", w2, w]), ("lex", lex)):
        requests.append(
            Request(f"lab retype {key}", ("lab", "retype", "checked.sx", "--base", spec_text(base), "--json"),
                    ("lab_retype", "checked", [s for s, _ in checked], base), checked_certs)
        )
    links = [("t-w2", w2, "cert-w2.sx"), ("t-lex", lex, "cert-lex.sx"), ("t-fin5", fin(5), "cert-fin5.sx")]
    for name, spec, cert in links:
        inputs.append(Input(f"{name}.sx", ("text", _store(name, [(spec, cert)]))))
    stalled = [links[0], links[2], links[1]] if rng.random() < 0.5 else [links[1], links[0], links[2]]
    for key, chain in (("descending", links), ("stalled", stalled)):
        requests.append(
            Request(
                f"lab chain {key}",
                ("lab", "chain", *(f"{n}.sx" for n, _, _ in chain), "--base", spec_text(w3), "--json"),
                ("lab_chain", [(n, s) for n, s, _ in chain], w3),
                tuple(c for _, _, c in chain),
            )
        )
    entries = [(w2, "cert-w2.sx"), (fin(5), "cert-fin5.sx"), (lex, "cert-lex.sx"), (sum_, "cert-sum.sx")]
    rng.shuffle(entries)
    indices = rng.sample(range(100), len(entries))
    enum = sx.dump(["entries", *([i, s, Q(c)] for i, (s, c) in zip(indices, entries))]) + "\n"
    inputs.append(Input("enum.sx", ("text", enum)))
    requests.append(
        Request("spector", ("spector", "enum.sx", "--emit-cert", "witness.sx", "--json"),
                ("spector", [(i, s) for i, (s, _) in zip(indices, entries)], SPOT_SAMPLE),
                tuple(c for _, c in entries) + ("witness.sx",))
    )
    for key, (spec, cert) in (("below-k", (below(str(k)), "cert-k.sx")), ("lex", (lex, "cert-lex.sx")),
                              ("sum", (sum_, "cert-sum.sx"))):
        requests.append(Request(f"bound {key}", _bound(spec, cert), ("bound", spec), (cert,)))
    return inputs, requests


# --- mutants ------------------------------------------------------------------------

MUTATIONS = ("tag", "delete", "retag")
_CONNECTIVE = {"and": "and", "or": "or", "all": "forall", "ex": "exists"}
_NON_ATOMS = {"in", "nin", "and", "or", "forall", "exists"}


def children(node) -> list:
    """(premise index, child) pairs of an explicit node, as the checker numbers them."""
    head = node[0]
    if head in ("and", "cut"):
        return [(1, node[3]), (2, node[4])]
    if head in ("or", "ex"):
        return [(node[3], node[4])]
    if head == "rep":
        return [(1, node[3])]
    if head == "all" and node[3][0] == "fs":
        return [(i, c) for i, c in node[3][1]]
    return []


def preorder(root) -> list:
    """(path, node, parent) for every explicit node, in the checker's visiting order."""
    out, stack = [], [((), root, None)]
    while stack:
        path, node, parent = stack.pop()
        out.append((path, node, parent))
        for i, child in reversed(children(node)):
            stack.append((path + (i,), child, node))
    return out


def _mutation(node, parent, mode: str):
    """The mutated node, or None when MODE cannot surely break this node.

    Every mutation returned breaks the node's local condition whatever the
    rest of the tree holds, so a sound checker must reject the mutant at
    this node or above it.
    """
    head, seq, tag = node[0], node[1], node[2]
    formulas = seq[1:]
    if mode == "tag":
        return None if parent is None else [head, seq, parent[2], *node[3:]]
    if mode == "delete":
        if head in _CONNECTIVE:
            hits = [f for f in formulas if f[0] == _CONNECTIVE[head]]
        elif head == "axm":
            hits = [f for f in formulas if f[0] not in _NON_ATOMS]
        elif head == "axl":
            hits = [f for f in formulas if f[0] == "nin"]
        else:
            hits = []
        if len(hits) != 1:
            return None
        return [head, ["seq", *(f for f in formulas if f is not hits[0])], tag, *node[3:]]
    # retag: a rule whose condition the node's own premises cannot meet
    if head == "and":
        return ["cut", seq, tag, *node[3:]]
    if head == "axm" and not any(f[0] == "nin" for f in formulas):
        return ["axl", seq, tag]
    if head == "axl" and all(f[0] in ("in", "nin") for f in formulas):
        return ["axm", seq, tag]
    if head in ("or", "ex"):
        child_seq = node[4][1]
        if sorted(map(sx.dump, child_seq[1:])) != sorted(map(sx.dump, formulas)):
            return ["rep", seq, tag, node[4]]
    return None


TAIL_SHARE = 0.1  # mutate only in the last tenth of the visiting order


def mutate(text: str, mode: str, pick: float) -> tuple[str, list[int]]:
    """Change one node; return the mutant's text and the node's path.

    Nodes come from the last tenth of the checker's visiting order, so a
    mutant costs nearly a full check whichever node the seed picks.
    """
    root = sx.parse(text)
    nodes = preorder(root)
    tail = nodes[int(len(nodes) * (1 - TAIL_SHARE)):]
    candidates = [(p, n, m) for p, n, parent in tail if (m := _mutation(n, parent, mode)) is not None]
    if not candidates:
        raise ValueError(f"no node can take a {mode} mutation")
    path, node, mutated = candidates[int(pick * len(candidates))]
    node[:] = mutated
    return sx.dump(root) + "\n", list(path)

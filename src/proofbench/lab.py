"""Certificate-store labs: induced orderings, their types, and reflection checks.

A theory at desk scale is a named store of claims, each pairing an ordering
with either a checked TI certificate or a bare assertion of
well-foundedness.  The induced relation restricts a well-founded base: a
pair holds when some linear store claim admits an embedding of the base
restricted below the pair's upper element, a well-order of type rank + 1
that embeds exactly when that is below the claim's height (`orderings.height`).
Linearity is decided exactly from the claim's spec kinds (`orderings.linear`),
with no budget; a claim that is not linear is inert: it bounds no pair and
is never reflected on.
Checked-only stores have a computable order type (the certified supremum
capped by the base); a false assertion is caught by the infinite descent
its ordering gives by spec kind (`OrderingSpec.ascent`), since the induced
relation, being a subrelation of the base, never descends unboundedly on
its own.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from . import sexpr
from .derivations import Code, parse_code, ti_certificate_fault
from .orderings import SPECS, OrderingSpec, height, in_field, less, linear, otyp, rank, rankable, search_descending
from .ordinals import ZERO, CapExceededError, Cmp, Ordinal, compare, lt, max_ord, succ
from .sexpr import Str, term


class LabError(ValueError):
    pass


class Evidence(Enum):
    CHECKED = "checked"
    ASSERTED = "asserted"


@term
class Claim:
    ordering: OrderingSpec
    evidence: Evidence
    certificate: Code | None = None


@term
class TheoryStore:
    name: str
    claims: tuple[Claim, ...]


@term
class CulpritReport:
    claim_index: int
    ordering: OrderingSpec
    evidence: Evidence
    chain: tuple[int, ...]


@term
class ChainEntry:
    name: str
    order_type: Ordinal
    witnessed: bool | None  # next store's type covered by a claim here


@term
class ChainReport:
    entries: tuple[ChainEntry, ...]
    descent_ok: bool
    first_violation: int | None


@term
class PrecT:
    """The induced relation: below the base, bounded by embeddable claims."""

    base: OrderingSpec
    store: TheoryStore
    usable: tuple[int, ...]  # indices of the claims whose orderings are linear
    reach: Ordinal | None  # the largest height of a usable claim; None when it has no notation

    def less(self, a: int, b: int) -> bool:
        return less(self.base, a, b) and self.bounded(b)

    def bounded(self, b: int) -> bool:
        """Some usable claim embeds the base restricted below b, of type
        rank(b) + 1; a height with no notation (reach None) is above them all."""
        return in_field(self.base, b) and (self.reach is None or lt(succ(rank(self.base, b)), self.reach))


def build_precT(
    store: TheoryStore,
    base: OrderingSpec,
    depth_budget: int = 64,
    width_budget: int = 8,
) -> PrecT:
    """Validate the store and assemble the induced relation.

    Every checked claim's certificate must be a cut-free TI certificate of
    its ordering at the depth and width budgets, or LabError is raised.  The
    usable claims are the linear ones, whatever the budgets."""
    if not rankable(base):
        raise LabError("the base presentation must be a well-founded combinator")
    for i, claim in enumerate(store.claims):
        if claim.evidence is Evidence.CHECKED:
            if claim.certificate is None:
                raise LabError(f"claim {i}: checked evidence needs a certificate")
            fault = ti_certificate_fault(claim.certificate, claim.ordering, depth_budget, width_budget)
            if fault is not None:
                raise LabError(f"claim {i}: {fault}")
    usable = [i for i, claim in enumerate(store.claims) if linear(claim.ordering)]
    reach = ZERO
    try:
        for i in usable:
            reach = max_ord(reach, height(store.claims[i].ordering))
    except CapExceededError:
        reach = None
    return PrecT(base, store, tuple(usable), reach)


def retype(prec: PrecT) -> Ordinal:
    """Order type of the induced relation (checked-only stores)."""
    for i, claim in enumerate(prec.store.claims):
        if claim.evidence is not Evidence.CHECKED:
            raise LabError(f"claim {i} is only asserted; the order type is undefined")
    certified = ZERO
    for i in prec.usable:
        certified = max_ord(certified, otyp(prec.store.claims[i].ordering))
    base_type = otyp(prec.base)
    return certified if compare(certified, base_type) is Cmp.LT else base_type


def reflect_check(prec: PrecT, chain_budget: int = 50) -> CulpritReport | None:
    """Find a false well-foundedness claim among the usable store claims, or
    None when every usable claim is well-founded.

    The induced relation is a subrelation of the well-founded base, so the
    lemma's contrapositive is realized directly on the claims: the first
    usable claim whose ordering has an infinite descent (decided exactly, so
    whatever the budget) is the culprit, with the first `chain_budget`
    elements of that descent.  A culprit is only ever asserted, since the
    certificate gate refuses a checked claim of an ill-founded ordering.
    """
    for i in prec.usable:
        claim = prec.store.claims[i]
        chain = search_descending(claim.ordering, chain_budget)
        if chain is not None:
            return CulpritReport(i, claim.ordering, claim.evidence, tuple(chain))
    return None


def chain_check(
    stores: list[TheoryStore] | tuple[TheoryStore, ...],
    base: OrderingSpec,
    depth_budget: int = 64,
    width_budget: int = 8,
) -> ChainReport:
    """Order types along a store sequence must strictly descend.

    Each store is validated as `build_precT` does, at the depth and width
    budgets.

    Each store must also witness its successor's type by a checked claim of
    at least that order type (the store-level reading of proving the next
    theory's induced ordering well-founded).
    """
    types = []
    for store in stores:
        prec = build_precT(store, base, depth_budget, width_budget)
        types.append(retype(prec))
    entries = []
    for n, store in enumerate(stores):
        witnessed = None
        if n + 1 < len(stores):
            witnessed = any(
                claim.evidence is Evidence.CHECKED
                and compare(otyp(claim.ordering), types[n + 1]) is not Cmp.LT
                for claim in store.claims
            )
        entries.append(ChainEntry(store.name, types[n], witnessed))
    first_violation = None
    for n in range(len(types) - 1):
        if compare(types[n], types[n + 1]) is not Cmp.GT:
            first_violation = n
            break
    return ChainReport(tuple(entries), first_violation is None, first_violation)


# --- store file format ------------------------------------------------------------


def parse_store(text: str, cert_loader: Callable[[str], str]) -> TheoryStore:
    """Parse `(theory "name" (claim SPEC (cert "file") | asserted) ...)`."""
    x = sexpr.parse(text)
    if type(x) is not list or len(x) < 2 or x[0] != "theory" or type(x[1]) is not Str:
        raise LabError('a store file starts with (theory "name" ...)')
    claims = []
    for item in x[2:]:
        if not (type(item) is list and len(item) == 3 and item[0] == "claim"):
            raise LabError(f"bad claim: {sexpr.describe(item)}")
        spec = sexpr.read(SPECS, item[1])
        ev = item[2]
        if ev == "asserted":
            claims.append(Claim(spec, Evidence.ASSERTED))
        elif type(ev) is list and len(ev) == 2 and ev[0] == "cert" and type(ev[1]) is Str:
            code = parse_code(cert_loader(ev[1].value))
            claims.append(Claim(spec, Evidence.CHECKED, code))
        else:
            raise LabError(f"bad evidence: {sexpr.describe(ev)}")
    return TheoryStore(x[1].value, tuple(claims))

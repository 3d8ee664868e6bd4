"""Certified-sup witness generation.

A desk-scale enumeration pairs orderings with checkable TI certificates.
Validating every certificate bounds each member's order type by two raised
to its root tag; the supremum alpha of those tags then yields a concrete
ordering of type 2^alpha + 1 that strictly dominates every member and whose
index is fresh, together with its own freshly built certificate when the
tag discipline allows one.
"""

from __future__ import annotations

from typing import Callable

from . import sexpr
from .derivations import Code, derive_ti, parse_code, root_label, ti_certificate_fault
from .orderings import (
    SPECS,
    BelowOrd,
    OrderingSpec,
    element_of_rank,
    field_elements,
    less,
    ord_code,
    otyp,
    rank,
)
from .ordinals import EPSILON, ONE, ZERO, Cmp, Ordinal, add, compare, lt, max_ord, pow2
from .sexpr import Str, term


class SpectorError(ValueError):
    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"entry {index}: {message}")
        self.index = index


@term
class CertifiedEntry:
    index: int
    ordering: OrderingSpec
    certificate: Code


@term
class WitnessReport:
    index: int
    ordering: BelowOrd
    order_type: Ordinal
    alpha: Ordinal
    certificate: Code | None


@term
class DominationRow:
    index: int
    entry_otyp: Ordinal
    dominated: bool


@term
class SpotCheck:
    index: int
    element: int
    rank: Ordinal
    image: int | None
    below_top: bool


@term
class DominationReport:
    witness_otyp: Ordinal
    rows: tuple[DominationRow, ...]
    spot_checks: tuple[SpotCheck, ...]
    ok: bool


def validate_entries(
    entries: list[CertifiedEntry] | tuple[CertifiedEntry, ...],
    depth_budget: int = 64,
    width_budget: int = 8,
) -> None:
    seen = set()
    for e in entries:
        if e.index in seen:
            raise SpectorError("duplicate index", e.index)
        seen.add(e.index)
        fault = ti_certificate_fault(e.certificate, e.ordering, depth_budget, width_budget)
        if fault is not None:
            raise SpectorError(fault, e.index)


def sup_tag(entries, depth_budget: int = 64, width_budget: int = 8) -> Ordinal:
    """Maximum certificate root tag (zero for the empty enumeration)."""
    validate_entries(entries, depth_budget, width_budget)
    alpha = ZERO
    for e in entries:
        alpha = max_ord(alpha, root_label(e.certificate).tag)
    return alpha


def witness(entries, depth_budget: int = 64, width_budget: int = 8) -> WitnessReport:
    """An ordering of type 2^alpha + 1 that strictly dominates every entry."""
    alpha = sup_tag(entries, depth_budget, width_budget)
    order_type = add(pow2(alpha), ONE)
    spec = BelowOrd(order_type)
    fresh = max((e.index for e in entries), default=-1) + 1
    for e in entries:
        if compare(otyp(e.ordering), order_type) is not Cmp.LT:
            raise SpectorError("witness fails to dominate", e.index)
    certificate = None
    if compare(order_type, EPSILON) is Cmp.LT:
        certificate = derive_ti(spec)
    return WitnessReport(fresh, spec, order_type, alpha, certificate)


def verify_domination(entries, report: WitnessReport, sample: int = 50) -> DominationReport:
    """Per-entry comparison log plus rank embeddings of leading elements."""
    rows = []
    spots = []
    top = ord_code(pow2(report.alpha))
    for e in entries:
        value = otyp(e.ordering)
        rows.append(DominationRow(e.index, value, compare(value, report.order_type) is Cmp.LT))
        for n in field_elements(e.ordering, sample):
            rho = rank(e.ordering, n)
            image = element_of_rank(report.ordering, rho)
            below = image is not None and (image == top or less(report.ordering, image, top))
            spots.append(SpotCheck(e.index, n, rho, image, below and lt(rho, report.order_type)))
    ok = all(r.dominated for r in rows) and all(s.below_top for s in spots)
    return DominationReport(report.order_type, tuple(rows), tuple(spots), ok)


# --- enumeration file format -------------------------------------------------------


def parse_enumeration(text: str, cert_loader: Callable[[str], str]) -> list[CertifiedEntry]:
    """Parse `(entries (idx spec "cert-file") ...)`, loading each certificate."""
    x = sexpr.parse(text)
    if type(x) is not list or not x or x[0] != "entries":
        raise SpectorError("an enumeration file starts with (entries ...)")
    out = []
    for item in x[1:]:
        if not (type(item) is list and len(item) == 3 and type(item[0]) is int and type(item[2]) is Str):
            raise SpectorError(f"bad entry: {sexpr.describe(item)}")
        code = parse_code(cert_loader(item[2].value))
        out.append(CertifiedEntry(item[0], sexpr.read(SPECS, item[1]), code))
    return out

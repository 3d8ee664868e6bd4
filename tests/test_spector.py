import pytest

from proofbench.derivations import check_local, derive_ti, root_label
from proofbench.orderings import BelowOrd, FinOrd, otyp
from proofbench.ordinals import Cmp, compare, parse
from proofbench.sexpr import replace
from proofbench.spector import (
    CertifiedEntry,
    SpectorError,
    sup_tag,
    validate_entries,
    verify_domination,
    witness,
)

P = parse


def entry(i, spec):
    return CertifiedEntry(i, spec, derive_ti(spec))


def test_sup_tag_examples():
    assert sup_tag([]) == P("0")
    fins = [entry(i, FinOrd(k)) for i, k in enumerate(range(1, 6))]
    assert sup_tag(fins) == P("w*5+1")
    mixed = [entry(0, FinOrd(3)), entry(1, BelowOrd(P("w")))]
    assert sup_tag(mixed) == P("w^2+1")


def test_witness_empty():
    w = witness([])
    assert w.order_type == P("2")  # 2^0 + 1
    assert w.index == 0
    assert w.certificate is not None


def test_witness_single_fin3():
    w = witness([entry(0, FinOrd(3))])
    assert w.alpha == P("w*3+1")
    assert w.order_type == P("w^3*2+1")
    assert w.index == 1
    assert compare(otyp(FinOrd(3)), w.order_type) is Cmp.LT


def test_witness_below_family():
    entries = [entry(3, BelowOrd(P("w"))), entry(7, BelowOrd(P("w^2")))]
    w = witness(entries)
    assert w.alpha == P("w^3+1")
    assert w.order_type == P("w^(w^2)*2+1")
    assert w.index == 8
    report = verify_domination(entries, w, sample=20)
    assert report.ok
    assert all(r.dominated for r in report.rows)
    assert len(report.spot_checks) == 40
    cert_report = check_local(w.certificate, depth_budget=24, width_budget=6,
                              require_cut_free=True)
    assert cert_report.passed


def test_witness_certificate_has_matching_tag():
    from proofbench.ordinals import OMEGA, ONE, add, mul

    w = witness([entry(0, FinOrd(2))])
    assert root_label(w.certificate).tag == add(mul(OMEGA, w.order_type), ONE)


def test_tampered_certificate_rejected():
    good = entry(0, FinOrd(2))
    bad = replace(good, ordering=FinOrd(3))  # cert proves the wrong sequent
    with pytest.raises(SpectorError) as exc:
        sup_tag([good, bad])
    assert exc.value.index == 0 or "entry" in str(exc.value)


def test_duplicate_indices_rejected():
    with pytest.raises(SpectorError):
        validate_entries([entry(1, FinOrd(1)), entry(1, FinOrd(2))])


def test_witness_bound_chain():
    # each certified order type is bounded by 2^tag, tags are bounded by the
    # sup, and the witness sits strictly above 2^sup: the whole chain is
    # machine-checked, entry by entry
    from proofbench.boundedness import otyp_bound
    from proofbench.ordinals import le, lt, pow2

    entries = [entry(0, FinOrd(4)), entry(1, BelowOrd(P("w"))), entry(2, BelowOrd(P("w*2")))]
    alpha = sup_tag(entries)
    w = witness(entries)
    for e in entries:
        cert = otyp_bound(e.ordering, e.certificate, eval_budget=30)
        assert cert.valid
        assert le(cert.alpha, alpha)
        assert le(cert.otyp_value, cert.bound)
        assert le(cert.bound, pow2(alpha))
        assert lt(pow2(alpha), w.order_type)
        assert lt(cert.otyp_value, w.order_type)

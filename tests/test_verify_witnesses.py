"""Failing runs of check_bialgebra and verify_commutation on A2 and I2, each
printed report pinned byte for byte in tests/golden/bialgebra-witnesses.json,
and failing runs of verify_vacuum and verify_faithful, pinned in
tests/golden/fock-witnesses.json.

Each case corrupts one cached structure constant (or the twist) of a fresh
instance so that exactly one identity breaks first.  The coassociativity and
coproduct multiplicativity witnesses print the term dicts of both sides, so
they also pin the order in which the sweeps sum their terms.  On every
corrupted presentation, check_bialgebra's generator-reduced sweeps are also
compared with the full sweeps of tests/oracles.py; on every corrupted
instance, so is each report of verify's suite, and on every corrupted Fock
space the vacuum check with the rank over every minus label.
"""

import json
from pathlib import Path

import pytest

from heisdouble import double
from heisdouble.double import verify_commutation, verify_faithful, verify_vacuum
from heisdouble.hopf import Element, HopfPresentation, check_bialgebra
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a, mp_label
from heisdouble.scalars import ONE, Q
from heisdouble.twisting import TwistingDatum
import oracles
from oracles import assert_agrees_with_full_sweeps

GOLDEN = Path(__file__).parent / "golden" / "bialgebra-witnesses.json"
FOCK_GOLDEN = Path(__file__).parent / "golden" / "fock-witnesses.json"
ZETA = 1
TWO = ONE + ONE
UNIT = mp_label(((), ()))
P11 = mp_label(((1,), ()))  # p[1,1]
P12 = mp_label(((), (1,)))  # p[1,2]


def a2():
    return build_qheis(cartan_a(2))


def i2():
    return build_lattice(((1, 0), (0, 1)))


def scaled(el, c):
    return Element._raw({k: c * v for k, v in el.terms.items()})


def i2_unit_law():
    # p[1,1]*p[1,2] . 1 is off by q; the report prints the failing side a . 1
    inst = i2()
    H = inst.plus
    a = mp_label(((1,), (1,)))
    H._prod[(a, UNIT)] = scaled(H.product(a, UNIT), Q)
    return H, 3, inst


def a2_counit_law():
    # Delta(p[2,1]) carries 1 (x) p[2,1] twice over
    inst = a2()
    H = inst.plus
    a = mp_label(((2,), ()))
    terms = dict(H.coproduct(a).terms)
    terms[(UNIT, a)] = TWO
    H._coprod[a] = Element._raw(terms)
    return H, 3, inst


def a2_associativity():
    inst = a2()
    H = inst.plus
    H._prod[(P11, P12)] = scaled(H.product(P11, P12), Q)
    return H, 3, inst


def a2_coassociativity():
    # one reduced term of Delta(p[2,1]*p[1,1]) doubled: the counit law holds
    inst = a2()
    H = inst.plus
    a = mp_label(((2, 1), ()))
    terms = dict(H.coproduct(a).terms)
    terms[(P11, mp_label(((2,), ())))] = TWO
    H._coprod[a] = Element._raw(terms)
    return H, 4, inst


def a2_wrong_twist():
    # chi'' + zeta is biadditive, so the tensor square stays associative,
    # but Delta is no longer multiplicative
    H = a2().plus
    twisting = TwistingDatum(H.twisting.prime, H.twisting.doubleprime + ZETA)
    broken = HopfPresentation("qheis[2]+chi''", twisting, H.unit_label, H.basis,
                              H.product, H.coproduct, H.label_text)
    return broken, 3, None


def i2_scaled_reduced_coproduct():
    # the reduced part of Delta(p[1,1]*p[1,2]) doubled: coassociative and
    # counital still at N = 2, but Delta(p[1,1] p[1,2]) is no longer
    # Delta(p[1,1]) Delta(p[1,2])
    inst = i2()
    H = inst.plus
    a = mp_label(((1,), (1,)))
    H._coprod[a] = Element._raw({
        k: c if UNIT in k else c + c for k, c in H.coproduct(a).terms.items()})
    return H, 2, inst


def a2_antipode_law():
    inst = a2()
    H = inst.plus
    a = mp_label(((1, 1), ()))
    H._antipode[a] = Element.from_label(a, Q)
    return H, 3, inst


def i2_commutation_coproduct_above_n():
    # Delta(p[2,1]*p[1,1]) has degree 3 > N: only the action x(ab) on the
    # product ab reads it
    inst = i2()
    D = inst.double
    a = mp_label(((2, 1), ()))
    H = D.plus
    terms = dict(H.coproduct(a).terms)
    terms[(P11, mp_label(((2,), ())))] = TWO
    H._coprod[a] = Element._raw(terms)
    return D, 2, inst


def a2_commutation_product_above_n():
    # p[2,1] p[1,2] has degree 3 > N and is off by q
    inst = a2()
    D = inst.double
    a = mp_label(((2,), ()))
    D.plus._prod[(a, P12)] = scaled(D.plus.product(a, P12), Q)
    return D, 2, inst


BIALGEBRA_CASES = {
    "i2-unit-law": i2_unit_law,
    "a2-counit-law": a2_counit_law,
    "a2-associativity": a2_associativity,
    "a2-coassociativity": a2_coassociativity,
    "a2-wrong-twist": a2_wrong_twist,
    "i2-scaled-reduced-coproduct": i2_scaled_reduced_coproduct,
    "a2-antipode-law": a2_antipode_law,
}
COMMUTATION_CASES = {
    "i2-commutation-coproduct-above-n": i2_commutation_coproduct_above_n,
    "a2-commutation-product-above-n": a2_commutation_product_above_n,
}


@pytest.mark.parametrize("case", sorted({**BIALGEBRA_CASES, **COMMUTATION_CASES}))
def test_failure_reports_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    if case in BIALGEBRA_CASES:
        H, N, _ = BIALGEBRA_CASES[case]()
        rep = check_bialgebra(H, N)
    else:
        D, N, _ = COMMUTATION_CASES[case]()
        rep = verify_commutation(D, N)
    assert not rep.passed
    assert str(rep) == golden[case]


@pytest.mark.parametrize("case", sorted({**BIALGEBRA_CASES, **COMMUTATION_CASES}))
def test_reduced_sweeps_agree_with_full_sweeps(case):
    # a commutation case corrupts a plus entry of degree N + 1, where
    # check_bialgebra reaches it
    if case in BIALGEBRA_CASES:
        H, N, _ = BIALGEBRA_CASES[case]()
    else:
        D, N, _ = COMMUTATION_CASES[case]()
        H, N = D.plus, N + 1
    assert not assert_agrees_with_full_sweeps(H, N).passed


# the wrong twist is a presentation on its own, with no instance around it
INSTANCE_CASES = sorted({**BIALGEBRA_CASES, **COMMUTATION_CASES}.keys() - {"a2-wrong-twist"})


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_verify_agrees_with_full_sweeps(case):
    # every report of verify on the corrupted instance at the case's degree
    _, N, inst = {**BIALGEBRA_CASES, **COMMUTATION_CASES}[case]()
    reports = oracles.assert_verify_agrees_with_full_sweeps(inst, N)
    assert not all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# Rank-deficient Fock strata: the verdict and its report come from the exact
# rank


def copy_actions(D, degree, source, targets):
    """Make every positive minus label act on the plus labels at the indices
    targets of the basis of degree as it acts on the one at source."""
    basis = D.plus.basis(degree)
    n = degree
    for x in D.minus.labels_up_to(n):
        if x.degree:
            act = D.action_label(x, basis[source])
            for t in targets:
                D.actions(basis[t])[x] = act


def a2_vacuum_copied_actions():
    # p[1,2]*p[1,2] and p[2,1] are read as p[1,1]*p[1,1]: the joint kernel
    # of the degree-2 stratum gains two dimensions
    D = a2().double
    assert verify_vacuum(D, 3).passed
    copy_actions(D, 2, 0, (2, 3))
    return verify_vacuum, (D, 3)


def i2_vacuum_zero_column():
    # nothing acts on p[1,1]*p[1,2] any more
    D = i2().double
    assert verify_vacuum(D, 3).passed
    b = D.plus.basis(2)[1]
    for x in D.minus.labels_up_to(2):
        if x.degree:
            D.actions(b)[x] = Element.zero()
    return verify_vacuum, (D, 3)


def weyl_faithful_dead_d():
    # d acts as zero on every input, so the row of x#d on the stratum 0 dies
    D = build_weyl().double
    assert verify_faithful(D, 0, 2).passed
    d = D.minus.basis(1)[0]
    for b in D.plus.labels_up_to(2):
        D.actions(b)[d] = Element.zero()
    return verify_faithful, (D, 0, 2)


FOCK_CASES = {
    "a2-vacuum-copied-actions": a2_vacuum_copied_actions,
    "i2-vacuum-zero-column": i2_vacuum_zero_column,
    "weyl-faithful-dead-d": weyl_faithful_dead_d,
}


@pytest.mark.parametrize("case", sorted(FOCK_CASES))
def test_fock_failure_reports_match_golden(case, monkeypatch):
    exact = double.sparse_rank
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return exact(rows)

    check, args = FOCK_CASES[case]()
    monkeypatch.setattr(double, "sparse_rank", counting)
    rep = check(*args)
    assert not rep.passed
    assert str(rep) == json.loads(FOCK_GOLDEN.read_text())[case]
    assert calls  # the failing verdict is the exact rank's


@pytest.mark.parametrize("case", sorted(FOCK_CASES))
def test_vacuum_agrees_with_the_full_rank(case):
    _, args = FOCK_CASES[case]()
    D, N = args[0], args[-1]
    rep = verify_vacuum(D, N)
    assert rep == oracles.verify_vacuum(D, N)
    # d acts as zero on the Weyl Fock space, so its vacuum fails too
    assert not rep.passed

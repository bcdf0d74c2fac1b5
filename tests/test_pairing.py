"""Twisted pairings: axioms, Gram blocks, perfectness, adjointness, duality."""

import json
from pathlib import Path

import pytest

from heisdouble.hopf import BasisLabel, Element
from heisdouble.instances import (
    _weyl_presentation,
    build_lattice,
    build_qheis,
    build_weyl,
    cartan_a,
    mp_label,
    zero_form,
)
from heisdouble.linalg import components, det_bareiss, det_image, specialize
from heisdouble.pairing import (
    TwistedPairing,
    check_pairing_axioms,
    dual_presentation_check,
    perfectness_check,
)
from heisdouble.partitions import partitions_of
from heisdouble.scalars import ONE, Q, ZERO, q_factorial, q_int, q_int_sym
from heisdouble.twisting import TwistingDatum
from oracles import (HypothesisError, antipode_adjointness_check, cartan_affine_d4,
                     qheis_gram_det, tensor)

ZETA = 1
ZERO1 = 0
GOLDEN = Path(__file__).parent / "golden"


def xlab(n):
    return BasisLabel(n, n)


def xel(n, coeff=ONE):
    return Element.from_label(xlab(n), coeff)


@pytest.fixture(scope="module")
def weyl():
    return build_weyl()


@pytest.fixture(scope="module")
def a2():
    return build_qheis(cartan_a(2))


# ---------------------------------------------------------------------------
# pair


def test_pair_weyl_factorials(weyl):
    P = weyl.pairing
    assert P.pair(xel(2), xel(2)) == q_int(2)
    assert P.pair(xel(3), xel(3)) == q_factorial(3)
    assert P.pair(weyl.minus.unit_element(), weyl.plus.unit_element()) == ONE


def test_pair_degree_orthogonal(weyl):
    P = weyl.pairing
    assert P.pair(xel(2), xel(3)) == ZERO
    assert P.pair(xel(1), weyl.plus.unit_element()) == ZERO


def test_pair_unit_is_counit(weyl, a2):
    # <1, a> = eps(a) and <x, 1> = eps(x) across instances.
    for inst in (weyl, a2):
        P = inst.pairing
        one_minus = inst.minus.unit_element()
        one_plus = inst.plus.unit_element()
        for a in inst.plus.labels_up_to(3):
            expected = ONE if a == inst.plus.unit_label else ZERO
            assert P.pair(one_minus, Element.from_label(a)) == expected
        for x in inst.minus.labels_up_to(3):
            expected = ONE if x == inst.minus.unit_label else ZERO
            assert P.pair(Element.from_label(x), one_plus) == expected


def test_pair_single_power_sums(a2):
    P = a2.pairing
    A = a2.meta["cartan"]
    for i in (1, 2):
        for j in (1, 2):
            x = Element.from_label(mp_label((((1,), ()) if i == 1 else ((), (1,)))))
            a = Element.from_label(mp_label((((1,), ()) if j == 1 else ((), (1,)))))
            assert P.pair(x, a) == q_int_sym(A[i - 1][j - 1])


def test_pair_bilinear(weyl):
    P = weyl.pairing
    x = xel(2, q_int(3)) + xel(1)
    a = xel(2) + xel(1, q_int(2))
    expected = q_int(3) * q_int(2) + q_int(2)
    assert P.pair(x, a) == expected


def test_pair_tensor(weyl):
    P = weyl.pairing
    s = tensor(xel(1), xel(1))
    t = tensor(xel(1), xel(1))
    assert P.pair_tensor(s, t) == ONE
    mixed = tensor(xel(1), xel(2))
    assert P.pair_tensor(s, mixed) == ZERO


# ---------------------------------------------------------------------------
# check_pairing_axioms


def test_axioms_weyl_pass(weyl):
    rep = check_pairing_axioms(weyl.pairing, 6)
    assert rep.passed, str(rep)


def test_axioms_degree_zero(weyl):
    assert check_pairing_axioms(weyl.pairing, 0).passed


def test_axioms_wrong_gamma_fails(weyl):
    bad = TwistedPairing(
        weyl.minus,
        weyl.plus,
        TwistingDatum(0, 0),
        lambda x, a: q_factorial(a.key),
        name="weyl-gamma0",
    )
    rep = check_pairing_axioms(bad, 2)
    assert not rep.passed
    w = rep.witness
    assert "d^2" in str(w) and "x" in str(w)


def test_axioms_corrupted_degree_two_gram_entry_fails(weyl):
    # The axiom loops visit only degree-matched triples; a wrong Gram value
    # in one stratum must still be caught there, with its witness.
    gram = weyl.pairing._gram_fn

    def corrupted(x, a):
        v = gram(x, a)
        return v + ONE if a.degree == 2 else v

    bad = TwistedPairing(weyl.minus, weyl.plus, weyl.pairing.gamma, corrupted,
                         name="weyl-corrupt")
    assert check_pairing_axioms(bad, 1).passed
    rep = check_pairing_axioms(bad, 3)
    assert not rep.passed
    assert rep.witness["identity"] == "product-coproduct (minus side)"
    assert rep.witness["labels"] == "d, d | x^2"


def test_axioms_qheis_pass(a2):
    rep = check_pairing_axioms(a2.pairing, 4)
    assert rep.passed, str(rep)


def test_row_refuses_a_support_label_of_another_degree(weyl):
    # check_pairing_axioms reduces its unit laws to <1, 1> = 1 because a row
    # holds only labels of its own degree; a support that breaks this is
    # refused when the row is made, not read as a nonzero <x, a>
    P = weyl.pairing
    bad = TwistedPairing(P.minus, P.plus, P.gamma, lambda x, a: ONE,
                         name="weyl-bad-support",
                         support=lambda x: P.plus.labels_up_to(x.degree))
    assert bad.row(xlab(0)) == {xlab(0): ONE}
    with pytest.raises(ValueError, match="another degree"):
        bad.row(xlab(1))
    with pytest.raises(ValueError, match="another degree"):
        check_pairing_axioms(bad, 2)


# Failing runs of check_pairing_axioms, each printed report pinned byte for
# byte in tests/golden/pairing-witnesses.json: one wrong twist, and one
# corrupted Gram entry caught by each side.


def weyl_wrong_gamma():
    weyl = build_weyl()
    return TwistedPairing(weyl.minus, weyl.plus, TwistingDatum(0, 0),
                          lambda x, a: q_factorial(a.key), name="weyl-gamma0"), 2


def weyl_corrupt_degree_two():
    P = build_weyl().pairing
    gram = P._gram_fn

    def corrupted(x, a):
        v = gram(x, a)
        return v + ONE if a.degree == 2 else v

    return TwistedPairing(P.minus, P.plus, P.gamma, corrupted,
                          name="weyl-corrupt"), 3


def a2_corrupt_degree_three():
    # <p'[2,1]*p'[1,1], p[1,1]*p[1,1]*p[1,1]> = 1 where it is 0: a zero of
    # the Gram block becomes an entry of its row
    P = build_qheis(cartan_a(2)).pairing
    gram = P._gram_fn
    target = ("p'[2,1]*p'[1,1]", "p[1,1]*p[1,1]*p[1,1]")

    def corrupted(x, a):
        if (P.minus.label_text(x), P.plus.label_text(a)) == target:
            return ONE
        return gram(x, a)

    return TwistedPairing(P.minus, P.plus, P.gamma, corrupted,
                          name="a2-corrupt"), 3


def i2_wrong_gamma_doubleprime():
    # gamma' is right, so only <x, ab> = c^gamma''(|a|,|b|) <Delta x, a (x) b>
    # can fail
    P = build_lattice(((1, 0), (0, 1))).pairing
    gamma = TwistingDatum(P.gamma.prime, P.gamma.doubleprime + ZETA)
    return TwistedPairing(P.minus, P.plus, gamma, P._gram_fn,
                          name="i2-gamma''"), 3


def a2_wrong_gamma_prime():
    # every nonzero <x y, a> of the first failing pair (x, y) is off by q:
    # the witness is the first such a in basis order
    P = build_qheis(cartan_a(2)).pairing
    gamma = TwistingDatum(P.gamma.prime + ZETA, P.gamma.doubleprime)
    return TwistedPairing(P.minus, P.plus, gamma, P._gram_fn,
                          name="a2-gamma'"), 2


WITNESS_CASES = {
    "weyl-wrong-gamma": weyl_wrong_gamma,
    "a2-wrong-gamma-prime": a2_wrong_gamma_prime,
    "weyl-corrupt-degree-2": weyl_corrupt_degree_two,
    "a2-corrupt-degree-3": a2_corrupt_degree_three,
    "i2-wrong-gamma-doubleprime": i2_wrong_gamma_doubleprime,
}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_axiom_failure_reports_match_golden(case):
    golden = json.loads((GOLDEN / "pairing-witnesses.json").read_text())
    rep = check_pairing_axioms(*WITNESS_CASES[case]())
    assert not rep.passed
    assert str(rep) == golden[case]


# ---------------------------------------------------------------------------
# Gram blocks and perfectness


def test_gram_block_weyl(weyl):
    rows, cols, mat = weyl.pairing.gram_block(4)
    assert [r.key for r in rows] == [4]
    assert [c.key for c in cols] == [4]
    assert mat == ((q_factorial(4),),)


def test_gram_symmetric_for_sym_instances(a2):
    # The colored bilinear form is symmetric, so Gram blocks are too.
    P = a2.pairing
    for n in range(5):
        _, _, mat = P.gram_block(n)
        size = len(mat)
        for i in range(size):
            for j in range(size):
                assert mat[i][j] == mat[j][i]


def test_gram_to_json(weyl):
    payload = weyl.pairing.gram_to_json(2)
    assert set(payload) == {"0", "1", "2"}
    assert payload["2"]["entries"] == [["1 + q"]]
    assert payload["2"]["minus_labels"] == ["d^2"]
    assert payload["2"]["plus_labels"] == ["x^2"]
    json.dumps(payload)  # serializable


def test_perfectness_weyl(weyl):
    rep = perfectness_check(weyl.pairing, 8)
    assert rep.passed, str(rep)


def test_perfectness_qheis(a2):
    rep = perfectness_check(a2.pairing, 4)
    assert rep.passed, str(rep)


def test_perfectness_zero_form_fails_degree_one():
    inst = build_lattice(zero_form(2))
    rep = perfectness_check(inst.pairing, 3)
    assert not rep.passed
    assert "1" in str(rep.witness.get("degree"))


def test_gram_determinants_match_bareiss(weyl):
    for n in range(1, 6):
        _, _, mat = weyl.pairing.gram_block(n)
        assert det_bareiss(mat) == q_factorial(n)


def test_perfectness_affine_d4_degree_three():
    # the lambda = (1,1,1) component is 35 x 35
    rep = perfectness_check(build_qheis(cartan_affine_d4()).pairing, 3)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("A, N", [(cartan_a(2), 4), (cartan_affine_d4(), 2)],
                         ids=["a2", "affine-d4"])
def test_gram_components_match_the_closed_form(A, N):
    # a component gathers the labels whose parts, colors forgotten, form lam;
    # a plus and a minus label with one key are one object, so rows and
    # columns come in the same order
    seen = []
    for lam, mat in lambda_components(build_qheis(A).pairing, N):
        assert det_bareiss(mat) == qheis_gram_det(A, lam), lam
        seen.append(lam)
    assert sorted(seen) == sorted(lam for n in range(1, N + 1)
                                  for lam in partitions_of(n))


def lambda_components(P, N):
    """(lam, matrix) for every lambda-component of the qheis pairing P in
    degrees 1..N: the Gram matrix on the labels whose parts, colors
    forgotten, form lam, with rows and columns in the same order."""
    for n in range(1, N + 1):
        comps = {}
        for x in P.minus.basis(n):
            lam = tuple(sorted((k for part in x.key for k in part), reverse=True))
            comps.setdefault(lam, []).append(x)
        for lam, labels in sorted(comps.items()):
            yield lam, [[P.pair_labels(x, a) for a in labels] for x in labels]


@pytest.mark.parametrize("A, N", [(cartan_a(2), 5), (cartan_affine_d4(), 3)],
                         ids=["a2", "affine-d4"])
def test_gram_component_images_match_the_closed_form(A, N):
    # the certificate's determinant in F_p is the image of the closed form,
    # on every lambda-component; this is exact, and cheap where det_bareiss
    # is not (the 35 x 35 component of affine D4 at lam = (1,1,1))
    count = 0
    for lam, mat in lambda_components(build_qheis(A).pairing, N):
        d = det_image(mat)
        assert d and d == specialize(qheis_gram_det(A, lam), {}), lam
        count += 1
    assert count == sum(len(partitions_of(n)) for n in range(1, N + 1))


# ---------------------------------------------------------------------------
# Gram blocks split along the components of their nonzero pattern
# (the split of every Gram block is checked in test_linalg.py)


def test_a2_degree_four_components_are_the_partitions_of_four(a2):
    _, _, mat = a2.pairing.gram_block(4)
    assert sorted(len(r) for r, _ in components(mat)) == [2, 3, 4, 5, 6]
    assert all(len(r) == len(c) for r, c in components(mat))


def corrupted_a2(a2, corrupt):
    """A2 whose Gram value on labels with texts x, a is corrupt(x, a, gram),
    or the true value where that is None; gram(x, a) is the true value on
    two degree-4 labels given by their texts."""
    P = a2.pairing
    minus = {P.minus.label_text(l): l for l in P.minus.basis(4)}
    plus = {P.plus.label_text(l): l for l in P.plus.basis(4)}

    def gram(x, a):
        return P.pair_labels(minus[x], plus[a])

    def gram_fn(x, a):
        v = corrupt(P.minus.label_text(x), P.plus.label_text(a), gram)
        return P.pair_labels(x, a) if v is None else v

    return TwistedPairing(P.minus, P.plus, P.gamma, gram_fn, name="a2-corrupt")


def test_perfectness_singular_lambda_block(a2):
    # the row of p'[4,2] copies the row of p'[4,1]: the lambda = (4) block
    # becomes rank-deficient and the rest of degree 4 is untouched
    bad = corrupted_a2(a2, lambda x, a, gram:
                       gram("p'[4,1]", a) if x == "p'[4,2]" else None)
    assert perfectness_check(bad, 3).passed
    rep = perfectness_check(bad, 4)
    assert not rep.passed
    assert rep.witness == {"degree": "4", "reason": "singular Gram block"}
    assert det_bareiss(bad.gram_block(4)[2]).is_zero


@pytest.mark.parametrize("row, copy_of, shapes, singular", [
    # p'[4,1] gains a nonzero value in a column of the lambda = (3,1) block:
    # the two components merge and the determinant is unchanged
    ("p'[4,1]", None, [(3, 3), (5, 5), (6, 6), (6, 6)], False),
    # the row of p'[3,1]*p'[1,1] copies that of p'[4,1]: it joins the
    # lambda = (4) component, which then has three rows for two columns
    ("p'[3,1]*p'[1,1]", "p'[4,1]", [(3, 2), (3, 3), (3, 4), (5, 5), (6, 6)], True),
])
def test_perfectness_linked_components_match_full_determinant(a2, row, copy_of,
                                                              shapes, singular):
    def corrupt(x, a, gram):
        if x != row:
            return None
        if copy_of is None:
            return ONE if a == "p[3,1]*p[1,1]" else None
        return gram(copy_of, a)

    bad = corrupted_a2(a2, corrupt)
    mat = bad.gram_block(4)[2]
    assert sorted((len(r), len(c)) for r, c in components(mat)) == shapes
    assert det_bareiss(mat).is_zero == singular
    rep = perfectness_check(bad, 4)
    assert rep.passed == (not singular)
    if singular:
        assert rep.witness == {"degree": "4", "reason": "singular Gram block"}


# ---------------------------------------------------------------------------
# Antipode adjointness


def test_adjointness_qheis(a2):
    rep = antipode_adjointness_check(a2.pairing, 5)
    assert rep.passed, str(rep)


def test_adjointness_degree_zero(a2):
    assert antipode_adjointness_check(a2.pairing, 0).passed


def test_adjointness_corrupted_gram_entry_fails():
    # Only same-degree pairs are visited; a wrong Gram value between labels
    # of different lengths, <p'[2,1], p[1,1]*p[1,1]> = 1 where it is 0,
    # must still be caught there, with its witness.
    inst = build_lattice(((1,),))
    gram = inst.pairing._gram_fn
    target = (mp_label(((2,),)), mp_label(((1, 1),)))

    def corrupted(x, a):
        return ONE if (x, a) == target else gram(x, a)

    bad = TwistedPairing(inst.minus, inst.plus, inst.pairing.gamma, corrupted,
                         name="lattice-corrupt")
    assert antipode_adjointness_check(bad, 1).passed
    rep = antipode_adjointness_check(bad, 3)
    assert not rep.passed
    assert rep.witness["labels"] == "p'[2,1] | p[1,1]*p[1,1]"
    assert rep.witness["lhs"] == "1" and rep.witness["rhs"] == "-1"


def test_adjointness_weyl_refused(weyl):
    with pytest.raises(HypothesisError):
        antipode_adjointness_check(weyl.pairing, 3)


# ---------------------------------------------------------------------------
# Dual presentation


def test_dual_presentation_weyl(weyl):
    rep = dual_presentation_check(weyl.pairing, 6)
    assert rep.passed, str(rep)


def test_dual_presentation_qheis(a2):
    rep = dual_presentation_check(a2.pairing, 4)
    assert rep.passed, str(rep)


def test_dual_presentation_wrong_xi_reported(weyl):
    wrong_minus = _weyl_presentation(
        "weyl-wrong-xi",
        "d",
        TwistingDatum(0, 0),
        lambda n, k: weyl.minus.coproduct(xlab(n)).terms[(xlab(k), xlab(n - k))],
    )
    bad = TwistedPairing(
        wrong_minus,
        weyl.plus,
        weyl.pairing.gamma,
        lambda x, a: q_factorial(a.key),
        name="weyl-wrong-xi",
    )
    rep = dual_presentation_check(bad, 3)
    assert not rep.passed
    assert "declared" in rep.witness and "expected" in rep.witness


# Failing runs of the pairing checks whose reports no test above pins byte
# for byte, each pinned as text and as JSON in
# tests/golden/report-witnesses.json.


def weyl_unit_two():
    # <1, 1> = 2: the unit row against the plus side fails first
    P = build_weyl().pairing
    gram = P._gram_fn

    def doubled_unit(x, a):
        v = gram(x, a)
        return v + v if a.degree == 0 else v

    return check_pairing_axioms, TwistedPairing(P.minus, P.plus, P.gamma, doubled_unit,
                                                name="weyl-unit-two"), 2


def weyl_against_a2():
    # one minus label against two plus labels in degree 1
    return perfectness_check, TwistedPairing(
        build_weyl().minus, build_qheis(cartan_a(2)).plus, TwistingDatum(0, 0),
        lambda x, a: ONE, name="weyl|a2"), 1


def zero_form_singular():
    return perfectness_check, build_lattice(zero_form(2)).pairing, 3


def weyl_wrong_xi():
    weyl = build_weyl()
    wrong_minus = _weyl_presentation(
        "weyl-wrong-xi", "d", TwistingDatum(0, 0),
        lambda n, k: weyl.minus.coproduct(xlab(n)).terms[(xlab(k), xlab(n - k))])
    return dual_presentation_check, TwistedPairing(
        wrong_minus, weyl.plus, weyl.pairing.gamma, lambda x, a: q_factorial(a.key),
        name="weyl-wrong-xi"), 3


def weyl_corrupt_minus_product():
    # d * d is off by q on the minus side, whose twisting is the right one
    P = build_weyl().pairing
    d = xlab(1)
    P.minus._prod[(d, d)] = Element._raw(
        {k: Q * v for k, v in P.minus.product(d, d).terms.items()})
    return dual_presentation_check, P, 3


REPORT_CASES = {
    "axioms-unit-against-plus": weyl_unit_two,
    "perfectness-basis-sizes-differ": weyl_against_a2,
    "perfectness-singular-block": zero_form_singular,
    "dual-wrong-xi": weyl_wrong_xi,
    "dual-corrupt-minus-product": weyl_corrupt_minus_product,
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_failure_reports_match_golden(case):
    golden = json.loads((GOLDEN / "report-witnesses.json").read_text())[case]
    check, P, N = REPORT_CASES[case]()
    rep = check(P, N)
    assert not rep.passed
    assert str(rep) == golden["text"]
    # dumped, so that the order of the witness keys is compared too
    assert json.dumps(rep.to_json()) == json.dumps(golden["json"])

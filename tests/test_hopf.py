"""Generic twisted bialgebra engine, exercised mostly on the Weyl presentations."""

import copy
import gc
import pickle
from itertools import product

import pytest

from heisdouble import cli, hopf
from heisdouble.hopf import (
    BasisLabel,
    Element,
    HopfPresentation,
    PresentationError,
    antipode,
    bounded_tuples,
    check_bialgebra,
    comultiply,
    element_str,
    multiply,
    shifted_presentation,
    twisted_tensor_multiply,
)
from heisdouble.instances import (_weyl_presentation, build_lattice, build_qheis,
                                  build_weyl, cartan_a)
from heisdouble.scalars import ONE, Q, ZERO, q_binomial, q_factorial, q_int
from heisdouble.twisting import TwistingDatum
from oracles import tensor, twisted_tensor_multiply_brute

ZETA = 1
ZERO1 = 0


def xlab(n):
    return BasisLabel(n, n)


def xel(n, coeff=ONE):
    return Element.from_label(xlab(n), coeff)


@pytest.fixture(scope="module")
def weyl_plus():
    return build_weyl().plus


@pytest.fixture(scope="module")
def weyl_minus():
    return build_weyl().minus


# ---------------------------------------------------------------------------
# Elements


def test_graded_element_arithmetic():
    u = xel(1) + xel(2)
    assert u.terms.get(xlab(1)) == ONE
    assert (u - u).is_zero
    assert u.scale(ZERO).is_zero
    assert (-u) + u == Element.zero()


def test_element_hash_agrees_with_eq():
    u = xel(1) + xel(2, Q)
    v = xel(2, Q) + xel(1)
    w = Element({xlab(1): ONE, xlab(2): Q, xlab(3): ZERO})
    assert u == v == w
    assert hash(u) == hash(v) == hash(w)
    assert len({u, v, w, xel(1)}) == 2
    s = tensor(xel(1), xel(2, Q))
    t = Element({(xlab(1), xlab(2)): Q})
    assert s == t and hash(s) == hash(t)
    assert len({s, t, s.scale(2)}) == 2


def test_tensor_element_arithmetic():
    s = tensor(xel(1), xel(2, Q))
    assert s.terms == {(xlab(1), xlab(2)): Q}
    assert (s - s).is_zero
    assert s + s == s.scale(2)


def test_degrees_up_to(weyl_plus):
    # degrees are the integers 0..N, and a sweep refuses a negative N
    assert [l.degree for l in weyl_plus.labels_up_to(2)] == [0, 1, 2]
    a2 = build_qheis(cartan_a(2)).plus
    assert [l.degree for l in a2.labels_up_to(2)] == [0, 1, 1, 2, 2, 2, 2, 2]
    with pytest.raises(ValueError, match="nonnegative"):
        check_bialgebra(weyl_plus, -1)


def test_bounded_tuples_matches_filtered_product(weyl_plus, weyl_minus):
    def total(t):
        return sum(l.degree for x in t
                   for l in (x if isinstance(x, tuple) else (x,)))

    labels = build_qheis(cartan_a(2)).plus.labels_up_to(3)
    for k in (1, 2, 3):
        for N in (0, 2, 3):
            got = list(bounded_tuples([labels] * k, N))
            assert got == [t for t in product(*[labels] * k) if total(t) <= N]
    pools = [weyl_plus.labels_up_to(4), weyl_minus.labels_up_to(4)]
    pairs = list(bounded_tuples(pools, 4))
    assert pairs == [t for t in product(*pools) if total(t) <= 4]
    assert list(bounded_tuples([pairs, pairs], 4)) == [
        t for t in product(pairs, pairs) if total(t) <= 4]


# ---------------------------------------------------------------------------
# Presentation guards


def test_connectedness_enforced():
    unit = BasisLabel(0, 0)

    def bad_basis(degree):
        if degree == 0:
            return (unit, BasisLabel("extra", 0))
        return ()

    with pytest.raises(PresentationError):
        HopfPresentation(
            "bad",
            TwistingDatum(0, 0),
            unit,
            bad_basis,
            lambda a, b: Element.from_label(unit),
            lambda a: tensor(
                Element.from_label(unit), Element.from_label(unit)
            ),
            lambda a: "1",
        ).basis(0)


def test_foreign_label_rejected(weyl_plus):
    foreign = Element.from_label(BasisLabel("nope", 1))
    with pytest.raises(PresentationError):
        multiply(weyl_plus, foreign, weyl_plus.unit_element())


# ---------------------------------------------------------------------------
# Interned labels


def test_labels_are_interned():
    assert BasisLabel("k", 2) is BasisLabel("k", 2)
    assert BasisLabel("k", 2) is not BasisLabel("k", 3)
    assert BasisLabel.__hash__ is object.__hash__
    assert BasisLabel.__eq__ is object.__eq__
    label = BasisLabel(((1,), ()), 1)
    assert copy.copy(label) is copy.deepcopy(label) is label
    assert pickle.loads(pickle.dumps(label)) is label


def test_intern_table_drops_the_labels_of_a_dropped_instance():
    # the table is weak-valued: once an instance is dropped, no label made
    # for it alone stays interned
    gc.collect()
    before = set(hopf._INTERNED.keys())
    made = set()
    for _ in range(3):
        inst = build_lattice(((1, 0), (0, 1)))
        reports, _ = cli.verify_suite(inst, 4)
        assert all(r.passed for r in reports)
        made |= set(hopf._INTERNED.keys()) - before
        del inst, reports
        gc.collect()
        assert set(hopf._INTERNED.keys()) <= before
    assert made  # the cycles did intern labels of their own
    # a label lives, and stays the one interned object, while it is held
    held = BasisLabel("held", 7)
    gc.collect()
    assert hopf._INTERNED[("held", 7)] is held is BasisLabel("held", 7)


def test_plus_and_minus_labels_with_one_key_are_one_object():
    inst = build_qheis(cartan_a(2))
    plus, minus = inst.plus.labels_up_to(3), inst.minus.labels_up_to(3)
    assert len(plus) == len(minus) > 1
    assert all(a is x for a, x in zip(plus, minus))
    assert inst.plus.unit_label is inst.minus.unit_label


def test_labels_outside_the_basis_are_still_refused(weyl_plus):
    unit = weyl_plus.unit_label
    for foreign in (BasisLabel("nope", 1), BasisLabel("extra", 0)):
        with pytest.raises(PresentationError):
            weyl_plus.product(foreign, unit)
        with pytest.raises(PresentationError):
            weyl_plus.product(unit, foreign)
        with pytest.raises(PresentationError):
            weyl_plus.coproduct(foreign)
        with pytest.raises(PresentationError):
            weyl_plus.reduced_coproduct(foreign)
    extra = BasisLabel("extra", 0)

    def product_fn(a, b):
        return Element.from_label(extra)

    def coproduct_fn(a):
        return tensor(Element.from_label(extra), Element.from_label(a))

    H = HopfPresentation("leaky", TwistingDatum(0, 0), unit,
                         weyl_plus.basis, product_fn, coproduct_fn)
    with pytest.raises(PresentationError, match="not in the leaky basis"):
        H.product(unit, unit)
    with pytest.raises(PresentationError, match="not in the leaky basis"):
        H.coproduct(unit)


three_instances = pytest.mark.parametrize("build", [
    build_weyl,
    lambda: build_qheis(cartan_a(2)),
    lambda: build_lattice(((1, 0), (0, 1))),
], ids=["weyl", "qheis-a2", "lattice-i2"])


@three_instances
def test_structure_constant_images_hold_basis_labels(build):
    # every label of a cached product or coproduct image is the basis's own
    # object, so lookups keyed on image labels match on identity
    inst = build()
    N = 4
    for H in (inst.plus, inst.minus):
        def own(label):
            return any(label is l for l in H.basis(label.degree))

        labels = H.labels_up_to(N)
        assert own(H.unit_label)
        for a, b in bounded_tuples([labels] * 2, N):
            assert all(own(l) for l in H.product(a, b).terms)
        for a in labels:
            assert all(own(l1) and own(l2) for l1, l2 in H.coproduct(a).terms)


# ---------------------------------------------------------------------------
# Multiply / comultiply / counit on the Weyl side


def test_multiply_weyl_powers(weyl_plus):
    assert multiply(weyl_plus, xel(2), xel(3)) == xel(5)
    u = xel(1) + xel(2, Q)
    assert multiply(weyl_plus, weyl_plus.unit_element(), u) == u
    assert multiply(weyl_plus, u, weyl_plus.unit_element()) == u


def test_comultiply_x_squared(weyl_plus):
    got = comultiply(weyl_plus, xel(2))
    expected = Element(
        {
            (xlab(2), xlab(0)): ONE,
            (xlab(1), xlab(1)): q_int(2),
            (xlab(0), xlab(2)): ONE,
        }
    )
    assert got == expected


def test_comultiply_unit(weyl_plus):
    assert comultiply(weyl_plus, weyl_plus.unit_element()) == Element(
        {(xlab(0), xlab(0)): ONE}
    )


def test_counit(weyl_plus):
    assert weyl_plus.counit_label(weyl_plus.unit_label) == ONE
    assert weyl_plus.counit_label(xlab(3)) == ZERO


def test_reduced_coproduct(weyl_plus):
    red = weyl_plus.reduced_coproduct(xlab(2))
    assert red.terms == {(xlab(1), xlab(1)): q_int(2)}
    assert weyl_plus.reduced_coproduct(xlab(1)).is_zero


@three_instances
def test_unit_rule_agrees_with_equality(build):
    # counit, reduced coproduct and antipode tell the unit by identity or by
    # degree zero; on every basis label that agrees with == unit_label
    inst = build()
    for H in (inst.plus, inst.minus):
        unit = H.unit_label
        for label in H.labels_up_to(4):
            is_unit = label == unit
            assert H.counit_label(label) == (ONE if is_unit else ZERO)
            assert (antipode(H, Element.from_label(label)) == H.unit_element()) == is_unit
            red = H.reduced_coproduct(label)
            assert all(l1 != unit and l2 != unit for l1, l2 in red.terms)
            # a label built again from its key and degree is the basis object
            assert BasisLabel(label.key, label.degree) is label


# ---------------------------------------------------------------------------
# Twisted tensor multiplication


def test_twisted_tensor_weyl_exponents(weyl_plus):
    x_one = tensor(xel(1), xel(0))
    one_x = tensor(xel(0), xel(1))
    x_x = tensor(xel(1), xel(1))
    # chi'' contributes on (x (x) 1) * (1 (x) x), chi' on the reverse order.
    assert twisted_tensor_multiply(weyl_plus, x_one, one_x) == x_x.scale(Q)
    assert twisted_tensor_multiply(weyl_plus, one_x, x_one) == x_x
    unit_t = tensor(xel(0), xel(0))
    s = tensor(xel(2, Q), xel(1))
    assert twisted_tensor_multiply(weyl_plus, unit_t, s) == s
    assert twisted_tensor_multiply(weyl_plus, s, unit_t) == s


@pytest.mark.parametrize("build, N", [
    (lambda: build_weyl().plus, 5),
    (lambda: build_weyl().minus, 5),
    (lambda: build_qheis(cartan_a(2)).plus, 3),
    (lambda: build_lattice(((1, 0), (0, 1))).minus, 3),
    (lambda: shifted_presentation(build_qheis(cartan_a(2)).plus, ZETA, ZETA + ZETA), 3),
], ids=["weyl+", "weyl-", "qheis-a2+", "lattice-i2-", "qheis-a2+shifted"])
def test_twisted_tensor_multiply_matches_brute_force(build, N):
    # every pair of basis coproducts up to degree N, against the product
    # summed one tensor at a time
    H = build()
    labels = H.labels_up_to(N)
    for a, b in product(labels, labels):
        s, t = H.coproduct(a), H.coproduct(b)
        assert twisted_tensor_multiply(H, s, t) == twisted_tensor_multiply_brute(H, s, t)


# ---------------------------------------------------------------------------
# Antipode


def test_antipode_examples(weyl_plus):
    assert antipode(weyl_plus, weyl_plus.unit_element()) == weyl_plus.unit_element()
    assert antipode(weyl_plus, xel(1)) == xel(1, -ONE)
    assert antipode(weyl_plus, xel(2)) == xel(2, Q)


def test_antipode_degree_preserved(weyl_plus, weyl_minus):
    for H in (weyl_plus, weyl_minus):
        for a in H.labels_up_to(6):
            s = antipode(H, Element.from_label(a))
            assert {l.degree for l in s.terms} <= {a.degree}


def test_antipode_linear(weyl_plus):
    u = xel(1) + xel(2, Q)
    assert antipode(weyl_plus, u) == antipode(weyl_plus, xel(1)) + antipode(
        weyl_plus, xel(2)
    ).scale(Q)


# ---------------------------------------------------------------------------
# Shifted presentations


def test_shift_zero_is_identity(weyl_plus):
    H = shifted_presentation(weyl_plus, ZERO1, ZERO1)
    for a in weyl_plus.labels_up_to(4):
        for b in weyl_plus.labels_up_to(4):
            assert H.product(a, b) == weyl_plus.product(a, b)
        assert H.coproduct(a) == weyl_plus.coproduct(a)
    assert H.twisting == weyl_plus.twisting


def test_shifted_coproduct_x_squared(weyl_plus):
    H = shifted_presentation(weyl_plus, ZETA, ZERO1)
    got = H.coproduct(xlab(2))
    expected = Element(
        {
            (xlab(2), xlab(0)): ONE,
            (xlab(1), xlab(1)): Q * q_int(2),
            (xlab(0), xlab(2)): ONE,
        }
    )
    assert got == expected
    # One tensor factor of degree zero: x is untouched.
    assert H.coproduct(xlab(1)) == weyl_plus.coproduct(xlab(1))


def test_shifted_twisting_updated(weyl_plus):
    H = shifted_presentation(weyl_plus, ZETA, ZERO1)
    assert H.twisting == TwistingDatum(ZETA, ZETA + ZETA)


def test_shifted_presentation_is_bialgebra(weyl_plus):
    # Covers associativity of the beta-scaled product as well.
    H = shifted_presentation(weyl_plus, ZETA, 2)
    rep = check_bialgebra(H, 5)
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# Axiom verification


def test_check_bialgebra_weyl_passes(weyl_plus, weyl_minus):
    for H in (weyl_plus, weyl_minus):
        rep = check_bialgebra(H, 6)
        assert rep.passed, str(rep)
        assert rep.witness is None
        assert "pass" in str(rep)


def test_check_bialgebra_degree_zero():
    H = build_qheis(cartan_a(2)).plus
    assert check_bialgebra(H, 0).passed


def test_check_bialgebra_broken_twisting_fails():
    broken = _weyl_presentation(
        "weyl-broken", "x", TwistingDatum(ZERO1, ZERO1), q_binomial
    )
    rep = check_bialgebra(broken, 2)
    assert not rep.passed
    assert rep.witness["identity"] == "coproduct multiplicativity"
    assert rep.witness["labels"] == "x, x"
    payload = rep.to_json()
    assert payload["status"] == "fail"
    assert payload["witness"]["identity"] == "coproduct multiplicativity"


def test_check_bialgebra_associativity_failure_witness(weyl_plus):
    H = weyl_plus

    def product_fn(l1, l2):
        val = H.product(l1, l2)
        return val.scale(Q) if (l1.key, l2.key) == (1, 2) else val

    broken = HopfPresentation("weyl-nonassoc", H.twisting, H.unit_label,
                              H.basis, product_fn, H.coproduct, H.label_text)
    rep = check_bialgebra(broken, 3)
    assert not rep.passed
    assert rep.witness == {"identity": "associativity", "labels": "x, x, x",
                           "lhs": "x^3", "rhs": "q*x^3"}


def _weyl_with_coproduct(H, coproduct_fn):
    return HopfPresentation("weyl-broken", H.twisting, H.unit_label,
                            H.basis, H.product, coproduct_fn, H.label_text)


def test_check_bialgebra_non_biadditive_twist_fails(weyl_plus, monkeypatch):
    # a twist that does not vanish on degree zero breaks Delta(x 1) =
    # Delta(x) Delta(1), the first pair of the multiplicativity sweep
    form = hopf.form
    monkeypatch.setattr(hopf, "form", lambda c, lam, mu: form(c, lam, mu) + lam * lam)
    rep = check_bialgebra(weyl_plus, 3)
    assert not rep.passed
    assert rep.witness == {
        "identity": "coproduct multiplicativity",
        "labels": "x, 1",
        "lhs": "1 (x) x + x (x) 1", "rhs": "q*1 (x) x + q*x (x) 1"}


def test_check_bialgebra_coassociativity_failure_witness(weyl_plus):
    H = weyl_plus

    def coproduct_fn(label):
        val = H.coproduct(label)
        if label.key != 3:
            return val
        terms = dict(val.terms)
        terms[(xlab(1), xlab(2))] = terms[(xlab(1), xlab(2))] * 2
        return Element(terms)

    rep = check_bialgebra(_weyl_with_coproduct(H, coproduct_fn), 3)
    assert not rep.passed
    assert rep.witness["identity"] == "coassociativity"
    assert rep.witness["labels"] == "x^3"


def test_check_bialgebra_counit_failure_witness(weyl_plus):
    H = weyl_plus

    def coproduct_fn(label):
        terms = dict(H.coproduct(label).terms)
        if label != H.unit_label:
            del terms[(H.unit_label, label)]
        return Element(terms)

    rep = check_bialgebra(_weyl_with_coproduct(H, coproduct_fn), 2)
    assert not rep.passed
    assert rep.witness == {"identity": "counit law", "labels": "x",
                           "lhs": "0", "rhs": "x"}


def test_unit_and_counit_witnesses_print_the_right_law_when_it_fails(weyl_plus):
    H = weyl_plus
    x, unit = xlab(1), H.unit_label

    def product_fn(l1, l2):
        val = H.product(l1, l2)
        return val.scale(Q) if (l1, l2) == (x, unit) else val

    def coproduct_fn(label):
        terms = dict(H.coproduct(label).terms)
        if label is x:
            terms[(x, unit)] = terms[(x, unit)] * Q
        return Element(terms)

    broken = HopfPresentation("weyl-right-unit", H.twisting, unit, H.basis,
                              product_fn, H.coproduct, H.label_text)
    assert check_bialgebra(broken, 2).witness == {
        "identity": "unit law", "labels": "x", "lhs": "q*x", "rhs": "x"}
    assert check_bialgebra(_weyl_with_coproduct(H, coproduct_fn), 2).witness == {
        "identity": "counit law", "labels": "x", "lhs": "q*x", "rhs": "x"}


def test_check_bialgebra_coproduct_multiplicativity_failure_witness():
    # chi'' = 2 zeta is biadditive, so the tensor square stays associative,
    # but the twisted square of Delta(x) no longer matches Delta(x^2).
    broken = _weyl_presentation(
        "weyl+", "x", TwistingDatum(ZERO1, ZETA + ZETA), q_binomial
    )
    rep = check_bialgebra(broken, 3)
    assert rep.witness == {
        "identity": "coproduct multiplicativity", "labels": "x, x",
        "lhs": "1 (x) x^2 + (1 + q)*x (x) x + x^2 (x) 1",
        "rhs": "1 (x) x^2 + (1 + q^2)*x (x) x + x^2 (x) 1"}


def test_check_bialgebra_antipode_failure_witness():
    H = build_weyl().plus
    assert check_bialgebra(H, 3).passed
    H._antipode[xlab(1)] = xel(1)  # S(x) is -x
    rep = check_bialgebra(H, 3)
    assert rep.witness == {"identity": "antipode law", "labels": "x",
                           "lhs": "2*x", "rhs": "2*x"}


def test_commutative_retwist_weyl():
    # A commutative (q, chi', chi'')-bialgebra is also a
    # (q, (chi'')^T, (chi')^T)-bialgebra; k[x] is commutative, so the
    # swapped Weyl twisting (zeta, 0) must verify as well.
    retwisted = _weyl_presentation(
        "weyl-retwist", "x", TwistingDatum(ZETA, ZERO1), q_binomial
    )
    rep = check_bialgebra(retwisted, 5)
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# Printing


def test_element_str(weyl_plus):
    assert element_str(weyl_plus, Element.zero()) == "0"
    assert element_str(weyl_plus, weyl_plus.unit_element()) == "1"
    assert element_str(weyl_plus, xel(1)) == "x"
    assert element_str(weyl_plus, xel(2, Q)) == "q*x^2"
    assert element_str(weyl_plus, xel(1) - xel(2)) == "x - x^2"
    assert element_str(weyl_plus, xel(1, q_int(2))) == "(1 + q)*x"
    assert (
        element_str(weyl_plus, weyl_plus.unit_element() + xel(1, -ONE)) == "1 - x"
    )
    assert element_str(weyl_plus, xel(1, ONE / q_int(2))) == "(1)/(1 + q)*x"


def test_element_str_unit_scalar(weyl_plus):
    assert element_str(weyl_plus, weyl_plus.unit_element().scale(q_factorial(3))) == (
        "1 + 2*q + 2*q^2 + q^3"
    )

"""The Gram store of a twisted pairing and the loops that walk it.

A pairing keeps its nonzero Gram values as rows, one per minus label, and
their transpose as columns; pair, pair_tensor and the action of the double
visit only those values.  Each is compared here with a route from the
definition in tests/oracles.py that reads the Gram callable directly and
visits every pair of terms.  A shifted double has the same Gram values, so
it shares the rows and nothing else.
"""

import random

import pytest

from heisdouble.expr import evaluate_text
from heisdouble.hopf import Element
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  rank_one_form)
from heisdouble.scalars import ONE, RatFunc, q_int, q_power
from oracles import (gram_value, left_regular_action, pair_brute, pair_tensor_brute,
                     tensor)

INSTANCES = {
    "weyl": (build_weyl, 6),
    "qheis-a2": (lambda: build_qheis(cartan_a(2)), 4),
    "lattice-i2": (lambda: build_lattice(((1, 0), (0, 1))), 5),
    "lattice-rank-one": (lambda: build_lattice(rank_one_form(2)), 5),
}
COEFFS = (ONE, -ONE, RatFunc.from_int(3), q_int(2), q_power(-1))


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    build, N = INSTANCES[request.param]
    return build(), N


def random_element(rng, labels, size):
    """A combination of up to size labels, of mixed degrees, with
    coefficients from COEFFS."""
    return Element({rng.choice(labels): rng.choice(COEFFS) for _ in range(size)})


def test_rows_and_cols_are_the_nonzero_gram_entries(instance):
    inst, N = instance
    P = inst.pairing
    for degree in range(N + 1):
        rows, cols, matrix = P.gram_block(degree)
        for x, values in zip(rows, matrix):
            expected = {a: v for a, v in zip(cols, values) if not v.is_zero}
            assert P.row(x) == expected
            assert list(P.row(x)) == [a for a in cols if a in expected]
            assert all(v == gram_value(P, x, a) for a, v in zip(cols, values))
        for j, a in enumerate(cols):
            expected = {x: values[j] for x, values in zip(rows, matrix)
                        if not values[j].is_zero}
            assert P.col(a) == expected
            assert list(P.col(a)) == [x for x in rows if x in expected]


def test_pair_matches_brute_force(instance):
    inst, N = instance
    P = inst.pairing
    rng = random.Random(1405)
    minus, plus = P.minus.labels_up_to(N), P.plus.labels_up_to(N)
    for _ in range(60):
        x = random_element(rng, minus, rng.randint(1, 4))
        a = random_element(rng, plus, rng.randint(1, 4))
        assert P.pair(x, a) == pair_brute(P, x, a)
    for x in minus:
        for a in P.plus.basis(x.degree):
            ex, ea = Element.from_label(x), Element.from_label(a)
            assert P.pair(ex, ea) == pair_brute(P, ex, ea) == P.pair_labels(x, a)


def test_pair_tensor_matches_brute_force(instance):
    inst, N = instance
    P = inst.pairing
    rng = random.Random(7889)
    minus, plus = P.minus.labels_up_to(N), P.plus.labels_up_to(N)

    def random_tensor(H, labels):
        if rng.random() < 0.5:
            return H.coproduct(rng.choice(labels))
        return tensor(random_element(rng, labels, 2), random_element(rng, labels, 2))

    for _ in range(60):
        s = random_tensor(P.minus, minus)
        t = random_tensor(P.plus, plus)
        assert P.pair_tensor(s, t) == pair_tensor_brute(P, s, t)


def test_action_label_matches_definition(instance):
    inst, N = instance
    D, P = inst.double, inst.pairing
    for a in P.plus.labels_up_to(N):
        ea = Element.from_label(a)
        for x in P.minus.labels_up_to(N):
            expected = left_regular_action(P, Element.from_label(x), ea)
            assert D.action_label(x, a) == expected


# ---------------------------------------------------------------------------
# A shifted double shares the Gram store and nothing else


def test_shifted_double_reads_the_same_gram_values():
    D = build_lattice(((1, 0), (0, 1))).double
    P = D.pairing
    evaluate_text(D, "p'[1,1] p[1,1]")
    one = D.plus.unit_label
    for x in P.minus.labels_up_to(3):
        for a in P.plus.labels_up_to(3):
            D.action_label(x, a)
            D.smash_labels((one, x), (a, D.minus.unit_label))
    S = D.shifted(1)
    assert S.pairing.gamma != P.gamma
    assert S._action == {}
    assert D._normal_forms and S._normal_forms == {}
    for x in P.minus.labels_up_to(4):
        for a, v in P.row(x).items():
            assert S.pairing.row(x)[a] is v
            assert S.pairing.col(a)[x] is v
    # a row first made by the shifted pairing is the one the double reads
    x = P.minus.basis(5)[0]
    assert S.pairing.row(x) is P.row(x)

"""verify_shift_invariance against the full sweep of tests/oracles.py.

The check compares the cores (1#x)(b#1) of the double and of its shifted
copy; the oracle compares every smash product (a#x)(b#y).  Here the two are
compared, report for report, on the shipped instances, on corrupted caches
whose printed reports are pinned byte for byte in
tests/golden/shift-witnesses.json, and on every cached action and minus
coproduct coefficient, corrupted one at a time.
"""

import json
from pathlib import Path

import pytest

from heisdouble.double import verify_shift_invariance
from heisdouble.hopf import Element
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  load_instance, mp_label)
from heisdouble.scalars import Q
from oracles import shift_invariance_witness

GOLDEN = Path(__file__).parent / "golden"
ZETA = 1
ZERO1 = 0
P11 = mp_label(((1,), ()))  # p[1,1], and p'[1,1] on the minus side
P12 = mp_label(((), (1,)))  # p[1,2]
MIXED = mp_label(((1,), (1,)))  # p[1,1]*p[1,2]


def i2():
    return build_lattice(((1, 0), (0, 1)))


def a2():
    return build_qheis(cartan_a(2))


def scaled_term(el, term):
    """el with the coefficient of one term multiplied by q."""
    terms = dict(el.terms)
    terms[term] = terms[term] * Q
    return Element._raw(terms)


# -- the shipped instances ----------------------------------------------

INSTANCES = {
    "weyl": (build_weyl, (ZETA, ZERO1), 6),
    "lattice-i2": (i2, (ZETA,), 5),
    "qheis-a2": (a2, (ZETA, -2), 4),
    "lattice-i2-shift": (lambda: load_instance(str(GOLDEN / "lattice-i2-shift.json")),
                         (ZETA,), 4),
    "lattice-rank-one": (lambda: load_instance(str(GOLDEN / "lattice-rank-one.json")),
                         (ZETA,), 4),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_core_sweep_agrees_with_full_sweep(name):
    build, alphas, top = INSTANCES[name]
    D = build().double
    for alpha in alphas:
        for N in range(top + 1):
            rep = verify_shift_invariance(D, alpha, N)
            assert rep == shift_invariance_witness(D, alpha, N)
            assert rep.passed, str(rep)


# -- corrupted caches, reports pinned -----------------------------------


def weyl_action():
    # d(x^3) is [3] x^2 = (1 + q + q^2) x^2, off by q
    D = build_weyl().double
    d, x3 = D.minus.basis(1)[0], D.plus.basis(3)[0]
    D.actions(x3)[d] = D.action_label(d, x3).scale(Q)
    return D, ZETA, 4


def i2_action():
    D = i2().double
    D.actions(MIXED)[P11] = D.action_label(P11, MIXED).scale(Q)
    return D, ZETA, 3


def a2_action():
    # p'[1,1](p[1,1]*p[1,2]) has two terms; the one on p[1,1] is off by q
    D = a2().double
    D.actions(MIXED)[P11] = scaled_term(D.action_label(P11, MIXED), P11)
    return D, ZETA, 3


def i2_minus_coproduct():
    # both doubles read the corrupted Delta(p'[1,1]*p'[1,2]), and each of its
    # terms is shift invariant on its own: the sweep passes
    D = i2().double
    D.minus._coprod[MIXED] = scaled_term(D.minus.coproduct(MIXED), (P11, P12))
    return D, ZETA, 3


def a2_minus_coproduct():
    D = a2().double
    D.minus._coprod[MIXED] = scaled_term(D.minus.coproduct(MIXED), (P12, P11))
    return D, ZETA, 3


def i2_plus_coproduct_after_actions():
    # the double keeps the actions it cached before Delta(p[1,1]*p[1,2]) was
    # corrupted; the shifted copy computes its actions afresh from it
    D = i2().double
    assert verify_shift_invariance(D, ZETA, 3).passed
    D.plus._coprod[MIXED] = scaled_term(D.plus.coproduct(MIXED), (P11, P12))
    return D, ZETA, 3


CASES = {
    "weyl-action": weyl_action,
    "i2-action": i2_action,
    "a2-action": a2_action,
    "i2-minus-coproduct": i2_minus_coproduct,
    "a2-minus-coproduct": a2_minus_coproduct,
    "i2-plus-coproduct-after-actions": i2_plus_coproduct_after_actions,
}
UNSEEN = {"i2-minus-coproduct", "a2-minus-coproduct"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case):
    golden = json.loads((GOLDEN / "shift-witnesses.json").read_text())
    rep = verify_shift_invariance(*CASES[case]())
    assert rep.passed == (case in UNSEEN)
    assert str(rep) == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_core_sweep_agrees_with_full_sweep(case):
    D, alpha, N = CASES[case]()
    assert verify_shift_invariance(D, alpha, N) == shift_invariance_witness(D, alpha, N)


# -- mutation safety net --------------------------------------------------

MUTATION_CASES = {
    "weyl-4": (build_weyl, 4),
    "lattice-i2-3": (i2, 3),
    "qheis-a2-2": (a2, 2),
}

# Kinds of cached entry that the shift sweep cannot catch when one
# coefficient is multiplied by q, each with its reason.
UNCAUGHT = {
    "minus coproduct": "both doubles read the same Delta(x), and the q-exponent "
                       "of each of its terms is shift invariant on its own",
}


def _entries(D, N):
    """(kind, cache, key) for every cached action x(b) with |x| + |b| <= N,
    keyed by x in actions(b), and every cached minus coproduct of total
    degree <= N."""
    total = lambda l: l.degree
    return ([("action", acts, x) for b, acts in D._action.items() for x in acts
             if total(x) + total(b) <= N]
            + [("minus coproduct", D.minus._coprod, k) for k in D.minus._coprod
               if total(k) <= N])


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_action_is_caught(case):
    build, N = MUTATION_CASES[case]
    D = build().double
    # the full sweep caches every action and minus coproduct it reads
    assert shift_invariance_witness(D, ZETA, N).passed
    caught = {"action": 0, "minus coproduct": 0}
    uncaught = dict(caught)
    for kind, cache, key in _entries(D, N):
        entry = cache[key]
        for term in entry.terms:
            cache[key] = scaled_term(entry, term)
            rep = verify_shift_invariance(D, ZETA, N)
            assert rep == shift_invariance_witness(D, ZETA, N)
            (uncaught if rep.passed else caught)[kind] += 1
        cache[key] = entry
    assert caught["action"] > 0 and uncaught["minus coproduct"] > 0
    assert {k for k, n in uncaught.items() if n} == set(UNCAUGHT)
    assert {k for k, n in caught.items() if n} == {"action"}

"""The action cache of a double: actions(b) = {x: x(b)}, made once per plus
label by the one action kernel, against the per-label loop of
tests/oracles.py, and the mutation net over it.

The net fills the cache with every check of a full verify, then multiplies
one term of one cached x(b) by q at a time and reruns the three checks that
read the cache: commutation, vacuum and shift invariance.  Each corruption
must make one of them fail, unless its kind is listed in UNCAUGHT.
"""

from pathlib import Path

import pytest

from heisdouble.double import (_gen_labels, verify_commutation, verify_shift_invariance,
                               verify_vacuum)
from heisdouble.hopf import Element, check_bialgebra
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  load_instance)
from heisdouble.pairing import check_pairing_axioms, dual_presentation_check, perfectness_check
from heisdouble.scalars import Q
from oracles import commutation_witness, label_action

GOLDEN = Path(__file__).parent / "golden"


def i2():
    return build_lattice(((1, 0), (0, 1)))


def a2():
    return build_qheis(cartan_a(2))


def total(label):
    return label.degree


# -- the cache against the per-label oracle ------------------------------

INSTANCES = {
    "weyl": (lambda: build_weyl().double, 6),
    "qheis-a2": (lambda: a2().double, 4),
    "lattice-i2": (lambda: i2().double, 5),
    "lattice-i2-shift": (lambda: load_instance(str(GOLDEN / "lattice-i2-shift.json")).double,
                         4),
    "lattice-i2-shifted-copy": (lambda: i2().double.shifted(1), 4),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cached_actions_match_the_per_label_oracle(name):
    build, N = INSTANCES[name]
    D = build()
    minus = D.minus.labels_up_to(N)
    for b in D.plus.labels_up_to(N):
        acts = D.actions(b)
        # only an x of degree at most |b| can pair with a factor of Delta(b)
        assert all(x.degree <= b.degree for x in acts)
        for x in minus:
            expected = label_action(D.pairing, x, b)
            assert D.action_label(x, b) == expected
            # an x the cache does not list acts as zero
            assert acts.get(x, Element.zero()) == expected
        assert D.actions(b) is acts


# -- mutation safety net --------------------------------------------------

MUTATION_CASES = {
    "weyl-4": (build_weyl, 4),
    "lattice-i2-3": (i2, 3),
    "qheis-a2-2": (a2, 2),
}

# The check that must fail when one term of a cached x(b) of each kind is
# multiplied by q: the shift sweep compares the core (1#x)(b#1), whose term
# x(b) # 1 is this action, for |x| + |b| <= N.  The commutation sweep
# catches a generator x above N through its right side, which applies
# (1#x)(a#1) to every input b: its term a # x reads the cached x(b).  Its
# left side x(ab) is computed afresh and reads no cached action.
CATCHER = {
    "within N": "verify_shift_invariance",
    "generator above N": "verify_commutation",
}
# Kinds that no check catches, each with its reason.
UNCAUGHT = {
    "other above N": "read only by the vacuum rank over every minus label, "
                     "which runs only when the generators' rank falls short",
}


def _kind(gens, x, b, N):
    if total(x) + total(b) <= N:
        return "within N"
    return "generator above N" if x in gens else "other above N"


def _full_verify(inst, N):
    D = inst.double
    for rep in (check_bialgebra(inst.plus, N), check_bialgebra(inst.minus, N),
                check_pairing_axioms(inst.pairing, N),
                dual_presentation_check(inst.pairing, N),
                perfectness_check(inst.pairing, N), verify_commutation(D, N),
                verify_vacuum(D, N), verify_shift_invariance(D, 1, N)):
        assert rep.passed, str(rep)


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_action_is_caught(case):
    build, N = MUTATION_CASES[case]
    inst = build()
    D = inst.double
    _full_verify(inst, N)
    assert max(total(b) for b in D._action) <= N
    gens = set(_gen_labels(D.minus, D.gen_fn, N))
    entries = [(acts, x, _kind(gens, x, b, N))
               for b, acts in D._action.items() for x in acts]
    seen = dict.fromkeys([*CATCHER, *UNCAUGHT], 0)
    for acts, x, kind in entries:
        entry = acts[x]
        for term in entry.terms:
            terms = dict(entry.terms)
            terms[term] = terms[term] * Q
            acts[x] = Element._raw(terms)
            rep = verify_commutation(D, N)
            assert rep == commutation_witness(D, N)
            failed = {r.check for r in (rep, verify_vacuum(D, N),
                                       verify_shift_invariance(D, 1, N))
                      if not r.passed}
            if kind in UNCAUGHT:
                assert not failed, (kind, failed)
            else:
                assert CATCHER[kind] in failed, (kind, failed)
            seen[kind] += 1
        acts[x] = entry
    assert seen["within N"] and seen["generator above N"]
    # Weyl takes every label as a generator; I2 and A2 have other labels
    assert bool(seen["other above N"]) == (D.gen_fn is not None)

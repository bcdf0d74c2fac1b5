"""verify_commutation against the one-action-at-a-time sweep of tests/oracles.py.

Above N the check computes the actions of every minus generator on a
product ab together, in one scan of its coproducts; the oracle computes
each x(ab) on its own.  Here the two are compared, report for report, on
the shipped instances, and on every plus coproduct coefficient and every
plus product above N, corrupted one at a time.
"""

from pathlib import Path

import pytest

from heisdouble.double import verify_commutation
from heisdouble.hopf import Element
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  load_instance)
from heisdouble.scalars import Q
from oracles import commutation_witness

GOLDEN = Path(__file__).parent / "golden"


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
    "weyl": (build_weyl, 6),
    "lattice-i2": (i2, 5),
    "qheis-a2": (a2, 4),
    "lattice-i2-shift": (lambda: load_instance(str(GOLDEN / "lattice-i2-shift.json")), 4),
    "lattice-rank-one": (lambda: load_instance(str(GOLDEN / "lattice-rank-one.json")), 4),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_shared_sweep_agrees_with_oracle(name):
    build, top = INSTANCES[name]
    D = build().double
    for N in range(1, top + 1):
        rep = verify_commutation(D, N)
        assert rep == commutation_witness(D, N)
        assert rep.passed, str(rep)


# -- mutation safety net --------------------------------------------------

MUTATION_CASES = {
    "lattice-i2-3": (i2, 3),
    "qheis-a2-2": (a2, 2),
}

# Kinds of cached entry above N that the commutation sweep cannot catch when
# one coefficient is multiplied by q, each with its reason.
UNCAUGHT = {
    "unpaired coproduct term": "a term a1 (x) a2 enters x(l) only through <x, a2>, "
                               "and no minus generator x pairs with this a2",
}
KINDS = ("paired coproduct term", "unpaired coproduct term", "product")


def _entries(D, N):
    """(cache, key) for every cached plus coproduct of a label above N and
    every cached plus product ab with |a| + |b| > N."""
    total = lambda l: l.degree
    H = D.plus
    return ([(H._coprod, k) for k in H._coprod if total(k) > N]
            + [(H._prod, k) for k in H._prod if total(k[0]) + total(k[1]) > N])


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_entry_above_n_gets_equal_reports(case):
    build, N = MUTATION_CASES[case]
    D = build().double
    # the oracle caches every product and coproduct above N that it reads
    assert commutation_witness(D, N).passed
    # a coproduct term a1 (x) a2 is paired when some minus generator pairs with a2
    paired = {a2 for x in D.gen_fn(N) for a2 in D.pairing.row(x)}
    caught = dict.fromkeys(KINDS, 0)
    uncaught = dict(caught)
    for cache, key in _entries(D, N):
        entry = cache[key]
        for term in entry.terms:
            kind = ("product" if cache is D.plus._prod else
                    KINDS[term[1] not in paired])
            cache[key] = scaled_term(entry, term)
            rep = verify_commutation(D, N)
            assert rep == commutation_witness(D, N)
            (uncaught if rep.passed else caught)[kind] += 1
        cache[key] = entry
    assert {k for k, n in caught.items() if n} == set(KINDS) - set(UNCAUGHT)
    assert {k for k, n in uncaught.items() if n} == set(UNCAUGHT)

"""check_bialgebra's generator-reduced sweeps against the full sweeps.

Associativity and coproduct multiplicativity run with their first factor in
the generating set that ``hopf.generating_set`` reads off the cached
products.  Here the reduced check is compared, verdict and witness, with
the full sweeps of tests/oracles.py on the shipped instances; the
generating sets are pinned; a presentation whose basis is not closed under
single-term products shows the set growing; and every cached product and
coproduct entry, corrupted one coefficient at a time, makes the check fail.
"""

from pathlib import Path

import pytest

from heisdouble.hopf import (BasisLabel, Element, HopfPresentation, check_bialgebra,
                             comultiply, generating_set, linear, multiply)
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  load_instance, mp_label)
from heisdouble.scalars import ONE, Q
from oracles import (assert_agrees_with_full_sweeps, associativity_witness,
                     multiplicativity_witness, tensor)

GOLDEN = Path(__file__).parent / "golden"


def i2():
    return build_lattice(((1, 0), (0, 1)))


def a2():
    return build_qheis(cartan_a(2))


INSTANCES = {
    "weyl": (build_weyl, 6),
    "lattice-i2": (i2, 5),
    "qheis-a2": (a2, 4),
    "lattice-i2-shift": (lambda: load_instance(str(GOLDEN / "lattice-i2-shift.json")), 4),
    "lattice-rank-one": (lambda: load_instance(str(GOLDEN / "lattice-rank-one.json")), 4),
}


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reduced_sweeps_agree_with_full_sweeps(name, side):
    build, top = INSTANCES[name]
    H = getattr(build(), side)
    for N in range(top + 1):
        rep = assert_agrees_with_full_sweeps(H, N)
        assert rep.passed, str(rep)


@pytest.mark.parametrize("side, letter", [("plus", "x"), ("minus", "d")])
def test_weyl_is_generated_by_its_letter(side, letter):
    H = getattr(build_weyl(), side)
    for N in range(1, 9):
        gens = generating_set(H, N)
        assert [H.label_text(g) for g in gens] == [letter]
    assert generating_set(H, 0) == ()


@pytest.mark.parametrize("name", ["lattice-i2", "qheis-a2", "lattice-rank-one"])
def test_symmetric_algebras_are_generated_by_power_sums(name):
    build, top = INSTANCES[name]
    inst = build()
    for H in (inst.plus, inst.minus):
        for N in range(top + 1):
            # gen_fn lists the power sums p[n,i], n <= N, in basis order
            assert list(generating_set(H, N)) == inst.double.gen_fn(N)


# A presentation whose basis is not closed under single-term products: the
# lattice I2 plus algebra with p[1,1]*p[1,2] replaced in the basis by
# f = p[1,1]*p[1,2] + p[1,1]*p[1,1].  It is the same bialgebra, but
# p[1,1] p[1,2] = f - p[1,1]*p[1,1] has two terms, so no product of a
# generator with a basis label gives f alone.

MIXED = mp_label(((1,), (1,)))
SQUARE = mp_label(((1, 1), ()))
F = BasisLabel("f", 2)


def rebased(H):
    def to_old(label):  # the new basis label as an element of H
        if label is F:
            return Element._raw({MIXED: ONE, SQUARE: ONE})
        return Element.from_label(label)

    def to_new(label):  # an old basis label in the new basis
        if label is MIXED:
            return Element._raw({F: ONE, SQUARE: -ONE})
        return Element.from_label(label)

    def product_fn(l1, l2):
        return linear(to_new, multiply(H, to_old(l1), to_old(l2)))

    def coproduct_fn(label):
        return linear(lambda t: tensor(to_new(t[0]), to_new(t[1])),
                      comultiply(H, to_old(label)))

    return HopfPresentation(
        "lattice[2]+rebased", H.twisting, H.unit_label,
        lambda d: tuple(F if l is MIXED else l for l in H.basis(d)),
        product_fn, coproduct_fn,
        lambda l: "f" if l is F else H.label_text(l))


def test_generating_set_grows_to_cover_a_label_no_product_gives_alone():
    H = rebased(i2().plus)
    assert H.product(mp_label(((1,), ())), mp_label(((), (1,)))).terms == {
        F: ONE, SQUARE: -ONE}
    gens = generating_set(H, 4)
    assert [H.label_text(g) for g in gens] == [
        "p[1,1]", "p[1,2]", "f", "p[2,1]", "p[2,2]",
        "p[3,1]", "p[3,2]", "p[4,1]", "p[4,2]"]
    for N in range(5):
        rep = assert_agrees_with_full_sweeps(H, N)
        assert rep.passed, str(rep)


def test_corrupted_product_on_the_extra_generator_is_caught():
    # f p[1,1] is also read through p[1,1] p[1,2] = f - p[1,1]*p[1,1], so the
    # first failing triple has the generator p[1,1] first
    H = rebased(i2().plus)
    assert check_bialgebra(H, 3).passed
    p11 = mp_label(((1,), ()))
    H._prod[(F, p11)] = Element._raw(
        {k: c * Q for k, c in H.product(F, p11).terms.items()})
    rep = assert_agrees_with_full_sweeps(H, 3)
    assert rep.witness["identity"] == "associativity"
    assert rep.witness["labels"] == "p[1,1], p[1,2], p[1,1]"


# -- mutation safety net --------------------------------------------------

MUTATION_CASES = {
    "weyl-4": (build_weyl, 4),
    "lattice-i2-3": (i2, 3),
    "qheis-a2-2": (a2, 2),
}

# Cached entries of total degree <= N that check_bialgebra cannot catch when
# one coefficient is multiplied by q, each with its reason.  There are none
# on these cases: every product and coproduct entry is caught.
UNCAUGHT = []


def _entries(H, N):
    """(cache, key) for every cached product and coproduct of total degree
    <= N."""
    total = lambda l: l.degree
    return ([(H._prod, k) for k in H._prod if total(k[0]) + total(k[1]) <= N]
            + [(H._coprod, k) for k in H._coprod if total(k) <= N])


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_structure_constant_is_caught(case, side):
    build, N = MUTATION_CASES[case]
    H = getattr(build(), side)
    # the full sweeps cache every product and coproduct up to N, and the
    # first check every antipode, computed from the uncorrupted constants
    assert associativity_witness(H, N) is None
    assert multiplicativity_witness(H, N) is None
    assert check_bialgebra(H, N).passed
    uncaught, count = [], 0
    for cache, key in _entries(H, N):
        entry = cache[key]
        for term in entry.terms:
            terms = dict(entry.terms)
            terms[term] = terms[term] * Q
            cache[key] = Element._raw(terms)
            count += 1
            if assert_agrees_with_full_sweeps(H, N).passed:
                uncaught.append((key, term))
        cache[key] = entry
    assert count > 0
    assert uncaught == UNCAUGHT

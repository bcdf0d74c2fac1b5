"""Degree tuples, biadditive maps, and the twisting calculus."""

import random

import pytest

from heisdouble.twisting import (
    BiadditiveMap,
    TwistingDatum,
    compatibility_check,
    deg_add,
    deg_sub,
    deg_total,
    deg_zero,
    dual_twisting,
)
from oracles import shift_twisting


def bm(*rows):
    return BiadditiveMap(rows)


def td(prime, doubleprime):
    return TwistingDatum(prime, doubleprime)


ZETA = bm((1,))  # zeta(m, n) = m n in rank one


def random_map(rng, rank):
    return BiadditiveMap(
        tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank))
    )


# ---------------------------------------------------------------------------
# Degrees


def test_degree_helpers():
    assert deg_zero(3) == (0, 0, 0)
    assert deg_add((1, 2), (3, 4)) == (4, 6)
    assert deg_sub((1, 2), (3, 4)) == (-2, -2)
    assert deg_total((1, 2, 3)) == 6
    with pytest.raises(ValueError):
        deg_add((1,), (1, 2))
    with pytest.raises(ValueError):
        deg_sub((1, 2, 3), (1, 2))


# ---------------------------------------------------------------------------
# BiadditiveMap


def test_evaluate_examples():
    assert ZETA.evaluate((2,), (3,)) == 6
    zero = BiadditiveMap.zero(2)
    assert zero.evaluate((5, 7), (1, 9)) == 0
    m = bm((1, 0), (0, -1))
    assert m.evaluate((1, 2), (3, 1)) == 1


def test_evaluate_rank_mismatch():
    with pytest.raises(ValueError):
        ZETA.evaluate((1, 2), (1,))
    with pytest.raises(ValueError):
        bm((1, 0), (0, 1)).evaluate((1, 2), (1, 2, 3))


def test_biadditivity_random():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 3)
        m = random_map(rng, r)
        a = tuple(rng.randint(0, 4) for _ in range(r))
        b = tuple(rng.randint(0, 4) for _ in range(r))
        c = tuple(rng.randint(0, 4) for _ in range(r))
        assert m.evaluate(deg_add(a, b), c) == m.evaluate(a, c) + m.evaluate(b, c)
        assert m.evaluate(a, deg_add(b, c)) == m.evaluate(a, b) + m.evaluate(a, c)
        assert m.evaluate(deg_zero(r), a) == 0
        assert m.evaluate(a, deg_zero(r)) == 0


def test_transpose():
    sym = bm((2, -1), (-1, 2))
    assert sym.transpose() == sym
    assert bm((0, 1), (0, 0)).transpose() == bm((0, 0), (1, 0))
    rng = random.Random(11)
    for _ in range(20):
        m = random_map(rng, rng.randint(1, 3))
        assert m.transpose().transpose() == m
        a = tuple(rng.randint(0, 3) for _ in range(m.rank))
        b = tuple(rng.randint(0, 3) for _ in range(m.rank))
        assert m.transpose().evaluate(a, b) == m.evaluate(b, a)


def test_matrix_arithmetic():
    a = bm((1, 2), (3, 4))
    b = bm((0, 1), (1, 0))
    assert a + b == bm((1, 3), (4, 4))
    assert a - b == bm((1, 1), (2, 4))
    assert -a == bm((-1, -2), (-3, -4))
    with pytest.raises(ValueError):
        a + ZETA
    with pytest.raises(ValueError):
        BiadditiveMap(((1, 2),))


def test_map_str_and_constructors():
    assert str(bm((1, 0), (0, -1))) == "[1 0; 0 -1]"
    assert BiadditiveMap.ones(2) == bm((1, 1), (1, 1))


# ---------------------------------------------------------------------------
# TwistingDatum


def test_datum_rank_guard():
    with pytest.raises(ValueError):
        TwistingDatum(ZETA, BiadditiveMap.zero(2))
    assert TwistingDatum.zero(2).rank == 2


# ---------------------------------------------------------------------------
# dual_twisting


def test_dual_twisting_weyl():
    zero1 = BiadditiveMap.zero(1)
    xi = dual_twisting(td(zero1, ZETA), td(zero1, ZETA))
    assert xi == td(-ZETA, zero1)


def test_dual_twisting_zero():
    z = TwistingDatum.zero(2)
    assert dual_twisting(z, z) == z


def test_dual_twisting_rank_one_substitution():
    chi = td(bm((1,)), bm((2,)))
    gamma = td(bm((3,)), bm((4,)))
    assert dual_twisting(chi, gamma) == td(bm((0,)), bm((1,)))


def test_dual_twisting_additive_in_gamma():
    rng = random.Random(13)
    for _ in range(30):
        r = rng.randint(1, 3)
        chi = td(random_map(rng, r), random_map(rng, r))
        g1 = td(random_map(rng, r), random_map(rng, r))
        g2 = td(random_map(rng, r), random_map(rng, r))
        gsum = td(g1.prime + g2.prime, g1.doubleprime + g2.doubleprime)
        lhs = dual_twisting(chi, gsum)
        a = dual_twisting(chi, g1)
        b = dual_twisting(chi, g2)
        zero = TwistingDatum.zero(r)
        base = dual_twisting(chi, zero)
        assert lhs.prime == a.prime + b.prime - base.prime
        assert lhs.doubleprime == a.doubleprime + b.doubleprime - base.doubleprime


def test_compatibility_forces_dual_relation():
    # chi' = -(gamma')^T makes gamma'' = -(xi')^T for the dual twisting.
    rng = random.Random(17)
    for _ in range(40):
        r = rng.randint(1, 3)
        gp = random_map(rng, r)
        chi = td(-gp.transpose(), random_map(rng, r))
        gamma = td(gp, random_map(rng, r))
        assert compatibility_check(chi, gamma)
        xi = dual_twisting(chi, gamma)
        assert gamma.doubleprime == -xi.prime.transpose()


# ---------------------------------------------------------------------------
# shift_twisting


def test_shift_identity():
    zero1 = BiadditiveMap.zero(1)
    chi = td(zero1, ZETA)
    xi = td(-ZETA, zero1)
    gamma = td(zero1, ZETA)
    out = shift_twisting(chi, xi, gamma, zero1, zero1, zero1, zero1)
    assert out == (chi, xi, gamma)


def test_shift_equal_alpha_moves_xi_doubleprime():
    zero1 = BiadditiveMap.zero(1)
    chi = td(zero1, ZETA)
    xi = td(-ZETA, zero1)
    gamma = td(zero1, ZETA)
    alpha = ZETA
    chi_t, xi_t, gamma_t = shift_twisting(chi, xi, gamma, alpha, alpha, zero1, zero1)
    assert xi_t.doubleprime == xi.doubleprime + alpha
    assert chi_t == td(ZETA, ZETA + ZETA)
    assert gamma_t == td(-ZETA, zero1)


def test_shift_equal_alpha_preserves_compatibility():
    rng = random.Random(19)
    for _ in range(30):
        r = rng.randint(1, 3)
        gp = random_map(rng, r)
        chi = td(-gp.transpose(), random_map(rng, r))
        gamma = td(gp, random_map(rng, r))
        xi = dual_twisting(chi, gamma)
        alpha = random_map(rng, r)
        zero = BiadditiveMap.zero(r)
        chi_t, xi_t, gamma_t = shift_twisting(chi, xi, gamma, alpha, alpha, zero, zero)
        assert compatibility_check(chi_t, gamma_t)
        assert xi_t.doubleprime - alpha == xi.doubleprime


def test_shift_antisymmetric_beta_preserves_compatibility():
    # beta+ = -(beta-)^T keeps chi~' = -(gamma~')^T.
    rng = random.Random(23)
    for _ in range(30):
        r = rng.randint(1, 3)
        gp = random_map(rng, r)
        chi = td(-gp.transpose(), random_map(rng, r))
        gamma = td(gp, random_map(rng, r))
        xi = dual_twisting(chi, gamma)
        a_plus = random_map(rng, r)
        a_minus = random_map(rng, r)
        b_minus = random_map(rng, r)
        b_plus = -b_minus.transpose()
        chi_t, _, gamma_t = shift_twisting(
            chi, xi, gamma, a_plus, a_minus, b_plus, b_minus
        )
        assert compatibility_check(chi_t, gamma_t)


# ---------------------------------------------------------------------------
# compatibility_check


def test_compatibility_examples():
    zero1 = BiadditiveMap.zero(1)
    assert compatibility_check(td(zero1, ZETA), td(zero1, ZETA))
    assert compatibility_check(TwistingDatum.zero(3), TwistingDatum.zero(3))
    assert not compatibility_check(td(ZETA, zero1), td(ZETA, zero1))

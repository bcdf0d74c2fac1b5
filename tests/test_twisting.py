"""Integer twisting forms and the twisting calculus."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from heisdouble.double import HeisenbergDouble, IncompatiblePairError
from heisdouble.hopf import shifted_presentation
from heisdouble.instances import _weyl_presentation
from heisdouble.pairing import TwistedPairing
from heisdouble.scalars import q_binomial, q_factorial
from heisdouble.twisting import TwistingDatum, compatibility_check, dual_twisting, form
from oracles import compatible, shift_twisting


def td(prime, doubleprime):
    return TwistingDatum(prime, doubleprime)


def matrices(datum):
    """A twisting datum as the oracle's pair of 1x1 matrices."""
    return [[datum.prime]], [[datum.doubleprime]]


def random_datum(rng):
    return td(rng.randint(-3, 3), rng.randint(-3, 3))


# ---------------------------------------------------------------------------
# Forms


def test_evaluate_examples():
    assert form(1, 2, 3) == 6  # zeta(m, n) = m n
    assert form(0, 5, 7) == 0
    assert form(-2, 3, -1) == 6


def test_biadditivity_random():
    # signed degrees: inside the double, _core evaluates
    # form(xi'', |b| - |x1|, |x2|), whose first argument can be negative
    rng = random.Random(7)
    for _ in range(50):
        c = rng.randint(-3, 3)
        a, b, d = (rng.randint(-6, 6) for _ in range(3))
        assert form(c, a + b, d) == form(c, a, d) + form(c, b, d)
        assert form(c, a, b + d) == form(c, a, b) + form(c, a, d)
        assert form(c, 0, a) == form(c, a, 0) == 0


def test_map_str_and_constructors():
    # a form prints as its 1x1 matrix, the shape a config gives it in
    assert str(td(1, -1)) == "([1], [-1])"
    assert str(td(0, 0)) == "([0], [0])"
    assert td(2, 3) == td(2, 3) and hash(td(2, 3)) == hash(td(2, 3))


# ---------------------------------------------------------------------------
# TwistingDatum


def test_datum_type_guard():
    for bad in (1.0, True, "1", None, [[1]]):
        with pytest.raises(TypeError, match="integer form constant"):
            TwistingDatum(bad, 0)
        with pytest.raises(TypeError, match="integer form constant"):
            TwistingDatum(0, bad)


def test_datum_is_an_immutable_value():
    t = td(1, -2)
    assert repr(t) == "TwistingDatum(prime=1, doubleprime=-2)"
    assert hash(t) == hash((1, -2)) and t != (1, -2)
    with pytest.raises(AttributeError):
        t.prime = 3
    with pytest.raises(AttributeError):
        del t.doubleprime
    with pytest.raises(AttributeError):
        t.other = 0
    assert (t.prime, t.doubleprime) == (1, -2)


# ---------------------------------------------------------------------------
# dual_twisting


def test_dual_twisting_weyl():
    xi = dual_twisting(td(0, 1), td(0, 1))
    assert xi == td(-1, 0)


def test_dual_twisting_zero():
    z = td(0, 0)
    assert dual_twisting(z, z) == z


def test_dual_twisting_rank_one_substitution():
    chi = td(1, 2)
    gamma = td(3, 4)
    assert dual_twisting(chi, gamma) == td(0, 1)


def test_dual_twisting_additive_in_gamma():
    rng = random.Random(13)
    for _ in range(30):
        chi = random_datum(rng)
        g1 = random_datum(rng)
        g2 = random_datum(rng)
        gsum = td(g1.prime + g2.prime, g1.doubleprime + g2.doubleprime)
        lhs = dual_twisting(chi, gsum)
        a = dual_twisting(chi, g1)
        b = dual_twisting(chi, g2)
        base = dual_twisting(chi, td(0, 0))
        assert lhs.prime == a.prime + b.prime - base.prime
        assert lhs.doubleprime == a.doubleprime + b.doubleprime - base.doubleprime


def test_compatibility_forces_dual_relation():
    # chi' = -gamma' makes gamma'' = -xi' for the dual twisting.
    rng = random.Random(17)
    for _ in range(40):
        gp = rng.randint(-3, 3)
        chi = td(-gp, rng.randint(-3, 3))
        gamma = td(gp, rng.randint(-3, 3))
        assert compatibility_check(chi, gamma)
        xi = dual_twisting(chi, gamma)
        assert gamma.doubleprime == -xi.prime


# ---------------------------------------------------------------------------
# shift_twisting, the matrix oracle


def test_shift_identity():
    chi, xi, gamma = matrices(td(0, 1)), matrices(td(-1, 0)), matrices(td(0, 1))
    out = shift_twisting(chi, xi, gamma, [[0]], [[0]], [[0]], [[0]])
    assert out == (chi, xi, gamma)


def test_shift_equal_alpha_moves_xi_doubleprime():
    chi, xi, gamma = matrices(td(0, 1)), matrices(td(-1, 0)), matrices(td(0, 1))
    alpha = [[1]]
    chi_t, xi_t, gamma_t = shift_twisting(chi, xi, gamma, alpha, alpha, [[0]], [[0]])
    assert xi_t[1] == [[xi[1][0][0] + 1]]
    assert chi_t == matrices(td(1, 2))
    assert gamma_t == matrices(td(-1, 0))


def test_shift_equal_alpha_preserves_compatibility():
    rng = random.Random(19)
    for _ in range(30):
        gp = rng.randint(-3, 3)
        chi = td(-gp, rng.randint(-3, 3))
        gamma = td(gp, rng.randint(-3, 3))
        xi = dual_twisting(chi, gamma)
        alpha = [[rng.randint(-3, 3)]]
        chi_t, xi_t, gamma_t = shift_twisting(
            matrices(chi), matrices(xi), matrices(gamma), alpha, alpha, [[0]], [[0]])
        assert compatible(chi_t, gamma_t)
        assert xi_t[1][0][0] - alpha[0][0] == xi.doubleprime


def test_shift_antisymmetric_beta_preserves_compatibility():
    # beta+ = -(beta-)^T keeps chi~' = -(gamma~')^T.
    rng = random.Random(23)
    for _ in range(30):
        gp = rng.randint(-3, 3)
        chi = td(-gp, rng.randint(-3, 3))
        gamma = td(gp, rng.randint(-3, 3))
        xi = dual_twisting(chi, gamma)
        b_minus = [[rng.randint(-3, 3)]]
        chi_t, _, gamma_t = shift_twisting(
            matrices(chi), matrices(xi), matrices(gamma),
            [[rng.randint(-3, 3)]], [[rng.randint(-3, 3)]],
            [[-b_minus[0][0]]], b_minus)
        assert compatible(chi_t, gamma_t)


CONSTANTS = st.integers(-4, 4)


@settings(max_examples=60, deadline=None)
@given(chi_p=CONSTANTS, chi_pp=CONSTANTS, alpha=CONSTANTS, beta=CONSTANTS)
def test_shifted_presentation_twisting_matches_the_oracle(chi_p, chi_pp, alpha, beta):
    chi = td(chi_p, chi_pp)
    H = _weyl_presentation("w+", "x", chi, q_binomial)
    zero = matrices(td(0, 0))
    chi_t, _, _ = shift_twisting(matrices(chi), zero, zero, [[alpha]], [[0]], [[beta]], [[0]])
    assert matrices(shifted_presentation(H, alpha, beta).twisting) == chi_t


@settings(max_examples=60, deadline=None)
@given(chi_pp=CONSTANTS, gamma_p=CONSTANTS, gamma_pp=CONSTANTS,
       alpha=CONSTANTS, beta=CONSTANTS)
def test_shifted_double_twistings_match_the_oracle(chi_pp, gamma_p, gamma_pp, alpha, beta):
    # chi' = -gamma', so the double closes; its shift by (alpha, beta)
    # closes exactly when the oracle's shifted data are compatible, beta = 0
    chi, gamma = td(-gamma_p, chi_pp), td(gamma_p, gamma_pp)
    xi = dual_twisting(chi, gamma)
    plus = _weyl_presentation("w+", "x", chi, q_binomial)
    minus = _weyl_presentation("w-", "d", xi, q_binomial)
    D = HeisenbergDouble(TwistedPairing(minus, plus, gamma,
                                        lambda x, a: q_factorial(a.key)))
    chi_t, xi_t, gamma_t = shift_twisting(
        matrices(chi), matrices(xi), matrices(gamma),
        [[alpha]], [[alpha]], [[beta]], [[beta]])
    if not compatible(chi_t, gamma_t):
        assert beta != 0
        with pytest.raises(IncompatiblePairError):
            D.shifted(alpha, beta)
        return
    S = D.shifted(alpha, beta)
    assert (matrices(S.plus.twisting), matrices(S.minus.twisting),
            matrices(S.gamma)) == (chi_t, xi_t, gamma_t)


# ---------------------------------------------------------------------------
# compatibility_check


def test_compatibility_examples():
    assert compatibility_check(td(0, 1), td(0, 1))
    assert compatibility_check(td(0, 0), td(0, 0))
    assert not compatibility_check(td(1, 0), td(1, 0))

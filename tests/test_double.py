"""The twisted Heisenberg double: action, smash product, Fock verification."""

import random

import pytest

from heisdouble.double import (
    HeisenbergDouble,
    IncompatiblePairError,
    fock_matrix,
    max_term_degree,
    smash_multiply,
    verify_commutation,
    verify_faithful,
    verify_shift_invariance,
    verify_vacuum,
)
from heisdouble.expr import ExprEvalError, evaluate_text
from heisdouble.hopf import BasisLabel, Element, check_bialgebra
from heisdouble.instances import (
    build_lattice,
    build_qheis,
    build_weyl,
    cartan_a,
    mp_label,
    shifted_instance,
    zero_form,
)
from heisdouble.pairing import (TwistedPairing, check_pairing_axioms, dual_presentation_check,
                                perfectness_check)
from heisdouble.scalars import ONE, Q, RatFunc, q_int, q_int_sym, q_power
from heisdouble.twisting import TwistingDatum
from oracles import left_regular_action, shift_twisting

ZETA = 1
ZERO1 = 0


def xlab(n):
    return BasisLabel(n, n)


def xel(n, coeff=ONE):
    return Element.from_label(xlab(n), coeff)


@pytest.fixture(scope="module")
def weyl():
    return build_weyl()


@pytest.fixture(scope="module")
def wd(weyl):
    return weyl.double


@pytest.fixture(scope="module")
def a2():
    return build_qheis(cartan_a(2))


# ---------------------------------------------------------------------------
# Double element basics


def test_double_element_arithmetic(wd):
    u = wd.unit()
    v = wd.embed_plus(xel(1))
    s = u + v
    assert s.terms.get((xlab(0), xlab(0))) == ONE
    assert (s - s).is_zero
    assert s.scale(2) == s + s
    assert (-v) + v == Element.zero()


def test_max_term_degree(wd):
    assert max_term_degree(wd.unit()) == 0
    assert max_term_degree(wd.embed_plus(xel(3))) == 3
    assert max_term_degree(wd.embed_minus(xel(2))) == -2


def test_incompatible_pair_refused(weyl):
    # gamma' = zeta makes chi' = 0 != -(gamma')^T.
    bad_gamma = TwistingDatum(ZETA, ZETA)
    bad = TwistedPairing(
        weyl.minus, weyl.plus, bad_gamma, lambda x, a: ONE, name="bad"
    )
    with pytest.raises(IncompatiblePairError):
        HeisenbergDouble(bad)


# ---------------------------------------------------------------------------
# Left regular action


def test_action_weyl_derivative(weyl):
    P = weyl.pairing
    for n in range(1, 7):
        assert left_regular_action(P, xel(1), xel(n)) == xel(n - 1, q_int(n))


def test_action_unit_is_identity(weyl, a2):
    for inst in (weyl, a2):
        P = inst.pairing
        one = inst.minus.unit_element()
        for a in inst.plus.labels_up_to(3):
            ea = Element.from_label(a)
            assert left_regular_action(P, one, ea) == ea


def test_action_qheis_power_sum(a2):
    P = a2.pairing
    A = a2.meta["cartan"]
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2, 3):
                for n in (1, 2, 3):
                    x = Element.from_label(
                        mp_label((((k,), ()) if i == 1 else ((), (k,))))
                    )
                    a = Element.from_label(
                        mp_label((((n,), ()) if j == 1 else ((), (n,))))
                    )
                    got = left_regular_action(P, x, a)
                    if k != n:
                        assert got.is_zero
                    else:
                        expected = a2.plus.unit_element().scale(
                            q_int_sym(k * A[i - 1][j - 1]) * q_int_sym(k) / k
                        )
                        assert got == expected


def test_action_linear(weyl):
    P = weyl.pairing
    x = xel(1) + xel(2, Q)
    a = xel(3)
    got = left_regular_action(P, x, a)
    expected = left_regular_action(P, xel(1), a) + left_regular_action(
        P, xel(2), a
    ).scale(Q)
    assert got == expected


# ---------------------------------------------------------------------------
# Smash product


def test_smash_weyl_relation(wd):
    d = wd.embed_minus(xel(1))
    x = wd.embed_plus(xel(1))
    got = smash_multiply(wd, d, x)
    expected = Element({(xlab(1), xlab(1)): Q, (xlab(0), xlab(0)): ONE})
    assert got == expected


def test_smash_plus_embedding_multiplicative(wd):
    a = wd.embed_plus(xel(2))
    b = wd.embed_plus(xel(3))
    assert smash_multiply(wd, a, b) == wd.embed_plus(xel(5))


def test_smash_minus_embedding_multiplicative(wd):
    # 1#d^m times 1#d^n uses the minus product (no action terms).
    x = wd.embed_minus(xel(1))
    y = wd.embed_minus(xel(2))
    assert smash_multiply(wd, x, y) == wd.embed_minus(xel(3))


def test_smash_qheis_p_relation(a2):
    D = a2.double
    A = a2.meta["cartan"]
    for i in (1, 2):
        for j in (1, 2):
            for m in (1, 2):
                for n in (1, 2):
                    pp = D.generator_element("p'", (m, i))
                    p = D.generator_element("p", (n, j))
                    got = smash_multiply(D, pp, p)
                    expected = smash_multiply(D, p, pp)
                    if m == n:
                        expected = expected + D.unit().scale(
                            q_int_sym(n * A[i - 1][j - 1]) * q_int_sym(n) / n
                        )
                    assert got == expected


def test_smash_unit_neutral(wd):
    u = smash_multiply(wd, wd.embed_minus(xel(2)), wd.embed_plus(xel(1)))
    assert smash_multiply(wd, wd.unit(), u) == u
    assert smash_multiply(wd, u, wd.unit()) == u


def _assert_smash_associative(D, na, nx):
    # Associativity on the normal-form pairs a#x with |a| <= na, |x| <= nx;
    # every label product is recomputed on each call, as sessions compute it
    pairs = [
        (a, x)
        for a in D.plus.labels_up_to(na)
        for x in D.minus.labels_up_to(nx)
    ]
    els = [Element({(a, x): ONE}) for (a, x) in pairs]
    for u in els:
        for v in els:
            uv = smash_multiply(D, u, v)
            for w in els:
                lhs = smash_multiply(D, uv, w)
                rhs = smash_multiply(D, u, smash_multiply(D, v, w))
                assert lhs == rhs
    return len(pairs)


def test_smash_associative_on_basis(wd):
    assert _assert_smash_associative(wd, 2, 2) == 9


@pytest.mark.parametrize("build", [
    lambda: build_qheis(cartan_a(2)),
    lambda: build_lattice(((1, 0), (0, 1))),
], ids=["qheis-a2", "lattice-i2"])
def test_smash_associative_on_basis_of_each_family(build):
    # 24 pairs, so 13,824 triples
    assert _assert_smash_associative(build().double, 2, 1) == 24


def test_smash_grading(wd):
    # Term degrees |a| - |x| add under multiplication.
    u = smash_multiply(wd, wd.embed_minus(xel(1)), wd.embed_plus(xel(2)))
    for (a, x) in u.terms:
        assert a.degree - x.degree == 1


# ---------------------------------------------------------------------------
# Normal ordering through the expression evaluator


def test_normal_order_weyl_ddx(wd):
    got = evaluate_text(wd, "d d x")
    expected = Element(
        {(xlab(1), xlab(2)): q_power(2), (xlab(0), xlab(1)): q_int(2)}
    )
    assert got == expected
    assert wd.element_str(got) == "q^2*x#d^2 + (1 + q)*d"


def test_normal_order_power_token(wd):
    assert evaluate_text(wd, "d^2 x") == evaluate_text(wd, "d d x")
    assert evaluate_text(wd, "d^0") == wd.unit()


def test_normal_order_already_normal(wd):
    got = evaluate_text(wd, "x d")
    assert got == Element({(xlab(1), xlab(1)): ONE})
    assert wd.element_str(got) == "x#d"


def test_normal_order_h_relation_same_color(a2):
    D = a2.double
    got = evaluate_text(D, "h'[1,1] h[1,1]")
    h = D.generator_element("h", (1, 1))
    hp = D.generator_element("h'", (1, 1))
    expected = smash_multiply(D, h, hp) + D.unit().scale(q_int_sym(2))
    assert got == expected


def test_normal_order_rejects_negative_power(wd):
    with pytest.raises(ValueError):
        evaluate_text(wd, "d^-1")


def test_normal_order_unknown_generator(wd):
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "zz")
    with pytest.raises(KeyError):
        wd.generator_element("zz")


# ---------------------------------------------------------------------------
# Fock representation


def fock_apply(D, u, b):
    """u acting on the plus element b, summed from the columns of
    fock_matrix: the sum of e u(l) over the terms e l of b."""
    rows, cols, matrix = fock_matrix(D, u, max((l.degree for l in b.terms), default=0))
    out = Element.zero()
    for j, l in enumerate(cols):
        if l in b.terms:
            out = out + Element({r: row[j] for r, row in zip(rows, matrix)}).scale(b.terms[l])
    return out


def test_fock_apply_weyl(wd):
    d = wd.embed_minus(xel(1))
    assert fock_apply(wd, d, xel(3)) == xel(2, q_int(3))
    assert fock_apply(wd, wd.unit(), xel(2)) == xel(2)
    xd = Element({(xlab(1), xlab(1)): ONE})
    assert fock_apply(wd, xd, xel(1)) == xel(1)


def test_fock_apply_is_algebra_action(wd, a2):
    for D, N in ((wd, 3), (a2.double, 2)):
        plus = [
            Element({(a, D.minus.unit_label): ONE})
            for a in D.plus.labels_up_to(N)
        ]
        minus = [
            Element({(D.plus.unit_label, x): ONE})
            for x in D.minus.labels_up_to(N)
        ]
        els = plus + minus
        inputs = D.plus.labels_up_to(N)
        for u in els:
            for v in els:
                uv = smash_multiply(D, u, v)
                for b in inputs:
                    eb = Element.from_label(b)
                    assert fock_apply(D, uv, eb) == fock_apply(
                        D, u, fock_apply(D, v, eb)
                    )


def test_fock_matrix_weyl_superdiagonal(wd):
    rows, cols, mat = fock_matrix(wd, wd.embed_minus(xel(1)), 3)
    assert [c.key for c in cols] == [0, 1, 2, 3]
    assert [r.key for r in rows] == [0, 1, 2]
    for j in range(1, 4):
        assert mat[j - 1][j] == q_int(j)
    assert mat[0][0].is_zero


def test_fock_matrix_identity(wd):
    rows, cols, mat = fock_matrix(wd, wd.unit(), 4)
    assert rows == cols
    for i in range(len(rows)):
        for j in range(len(cols)):
            assert mat[i][j] == (ONE if i == j else RatFunc.from_int(0))


def test_fock_matrix_qheis_degree_one_row(a2):
    D = a2.double
    A = a2.meta["cartan"]
    for i in (1, 2):
        u = D.generator_element("p'", (1, i))
        rows, cols, mat = fock_matrix(D, u, 1)
        assert [r.degree for r in rows] == [0]
        # Columns: unit, then the two degree-one power sums.
        assert mat[0][0].is_zero
        for j in (1, 2):
            assert mat[0][j] == q_int_sym(A[i - 1][j - 1])


# ---------------------------------------------------------------------------
# Verification suites


def test_verify_commutation_weyl(wd):
    assert verify_commutation(wd, 6).passed
    assert verify_commutation(wd, 0).passed


def test_verify_commutation_qheis(a2):
    assert verify_commutation(a2.double, 4).passed


def test_commutation_coefficient_independent_of_b(a2):
    # Compatibility makes the commutation coefficients depend only on |a|
    # and the coproduct degrees of x, never on the acted-on input b: one
    # shared coefficient list reproduces x(a b) for distinct same-degree b.
    D = a2.double
    from heisdouble.hopf import multiply

    x = mp_label(((2, 1), ()))
    a = mp_label(((1,), (1,)))
    gpp = D.gamma.doubleprime
    xipp = D.xi.doubleprime
    shared = [
        (
            x1,
            x2,
            c
            * q_power(
                gpp * a.degree * x2.degree
                + xipp * (a.degree - x1.degree) * x2.degree
            ),
        )
        for (x1, x2), c in D.minus.coproduct(x).terms.items()
    ]
    for b in (mp_label(((2,), ())), mp_label(((), (2,))), mp_label(((1, 1), ()))):
        ab = D.plus.product(a, b)
        lhs = Element.zero()
        for l, c in ab.terms.items():
            lhs = lhs + D.action_label(x, l).scale(c)
        rhs = Element.zero()
        for x1, x2, coeff in shared:
            part = multiply(D.plus, D.action_label(x1, a), D.action_label(x2, b))
            rhs = rhs + part.scale(coeff)
        assert lhs == rhs


@pytest.mark.parametrize("build, N", [
    (build_weyl, 6),
    (lambda: build_qheis(cartan_a(2)), 4),
    (lambda: build_lattice(((1, 0), (0, 1))), 5),
], ids=["weyl", "qheis-a2", "lattice-i2"])
def test_commutation_caches_no_action_above_n(build, N):
    # x(ab) on an input of degree above N is read about once: not cached
    D = build().double
    assert verify_commutation(D, N).passed
    assert D._action
    assert max(b.degree for b in D._action) <= N


NEGATIVE_BOUND_CHECKS = {
    "check_bialgebra": lambda inst, N: check_bialgebra(inst.plus, N),
    "check_pairing_axioms": lambda inst, N: check_pairing_axioms(inst.pairing, N),
    "perfectness_check": lambda inst, N: perfectness_check(inst.pairing, N),
    "dual_presentation_check": lambda inst, N: dual_presentation_check(inst.pairing, N),
    "verify_commutation": lambda inst, N: verify_commutation(inst.double, N),
    "verify_vacuum": lambda inst, N: verify_vacuum(inst.double, N),
    "verify_shift_invariance":
        lambda inst, N: verify_shift_invariance(inst.double, 1, N),
    "verify_faithful": lambda inst, N: verify_faithful(inst.double, 0, N),
}


@pytest.mark.parametrize("check", sorted(NEGATIVE_BOUND_CHECKS))
def test_negative_degree_bound_is_refused(check):
    # a sweep over no degrees would pass having checked nothing; N = 0
    # still checks the unit and passes
    inst = build_lattice(((1, 0), (0, 1)))
    run = NEGATIVE_BOUND_CHECKS[check]
    with pytest.raises(ValueError, match="nonnegative"):
        run(inst, -1)
    assert run(inst, 0).passed


def test_verify_vacuum(wd, a2):
    assert verify_vacuum(wd, 5).passed
    assert verify_vacuum(a2.double, 3).passed


def test_verify_faithful_weyl(wd):
    rep = verify_faithful(wd, 0, 1)
    assert rep.passed
    assert verify_faithful(wd, 0, 2).passed


def test_verify_faithful_empty_stratum(wd):
    assert verify_faithful(wd, 5, 2).passed


def test_verify_faithful_qheis(a2):
    assert verify_faithful(a2.double, 0, 2).passed


def test_fock_suites_refused_without_perfectness():
    inst = build_lattice(zero_form(2))
    assert not inst.double.perfect
    with pytest.raises(ValueError):
        verify_vacuum(inst.double, 2)
    with pytest.raises(ValueError):
        verify_faithful(inst.double, 0, 1)


def test_verify_shift_invariance_weyl(wd):
    assert verify_shift_invariance(wd, ZERO1, 3).passed
    assert verify_shift_invariance(wd, ZETA, 5).passed


def test_verify_shift_invariance_qheis(a2):
    assert verify_shift_invariance(a2.double, 1, 3).passed


@pytest.mark.parametrize("kw", ["alpha", "beta"])
def test_shifted_refuses_what_is_not_a_biadditive_map(wd, kw):
    for bad, kind in (([[1]], "list"), (True, "bool"), (1.0, "float")):
        maps = {"alpha": ZERO1, "beta": 0, kw: bad}
        with pytest.raises(TypeError,
                           match="%s must be an integer form constant, got %s" % (kw, kind)):
            wd.shifted(**maps)


def test_shifted_context_keeps_generators(wd):
    shifted = wd.shifted(ZETA)
    assert shifted.generator_names() == wd.generator_names()
    got = evaluate_text(shifted, "d x")
    assert got == evaluate_text(wd, "d x")


SHIFT_WORDS = {
    "weyl": ["d^2 x^2", "x d x^3 d"],
    "qheis[2]": ["p'[2,1] p[2,1]", "h'[2,1] h[2,2] p'[1,2]"],
}


@pytest.mark.parametrize("alpha", [((0,),), ((1,),), ((-2,),), ((3,),)])
def test_shifted_matches_general_shift_formula(weyl, a2, alpha):
    # alpha is the 1x1 matrix of the form, as the oracle takes it
    zero = [[0]]

    def matrices(*data):
        return tuple(([[t.prime]], [[t.doubleprime]]) for t in data)

    for inst in (weyl, a2):
        D = inst.double
        S = D.shifted(alpha[0][0])
        chi_t, xi_t, gamma_t = shift_twisting(
            *matrices(D.plus.twisting, D.minus.twisting, D.gamma), alpha, alpha, zero, zero)
        assert matrices(S.plus.twisting, S.minus.twisting, S.gamma) == \
            (chi_t, xi_t, gamma_t)
        # shifted_instance is the same construction, reached through an Instance
        T = shifted_instance(inst, alpha[0][0]).double
        assert matrices(T.plus.twisting, T.minus.twisting, T.gamma) == \
            (chi_t, xi_t, gamma_t)
        assert T.name == S.name
        for word in SHIFT_WORDS[D.name]:
            printed = S.element_str(evaluate_text(S, word))
            assert T.element_str(evaluate_text(T, word)) == printed
            assert D.element_str(evaluate_text(D, word)) == printed


# ---------------------------------------------------------------------------
# Mutations: one corrupted cached constant fails its check, with a witness


def test_verify_commutation_catches_corrupted_action():
    D = build_weyl().double
    assert verify_commutation(D, 3).passed
    D.actions(xlab(2))[xlab(1)] = xel(1, Q)  # d(x^2) is (1 + q) x
    rep = verify_commutation(D, 3)
    assert not rep.passed
    # the left side is computed afresh, so the first witness is the first
    # right side that reads the corrupted d(x^2)
    assert rep.witness == {"labels": "x=d, a=1, b=x^2", "lhs": "(1 + q)*x",
                           "rhs": "q*x"}


def test_verify_vacuum_catches_nonzero_vacuum_image():
    D = build_weyl().double
    assert verify_vacuum(D, 3).passed
    D.actions(xlab(0))[xlab(1)] = xel(0)  # d(1) is 0
    rep = verify_vacuum(D, 3)
    assert not rep.passed
    assert rep.witness == {"reason": "minus element does not annihilate the vacuum",
                           "label": "d", "image": "1"}


def test_verify_shift_invariance_catches_corrupted_smash():
    # the sweep computes both sides uncached, so corrupt what the left side
    # reads: the cached action d(x), which is 1
    D = build_weyl().double
    assert verify_shift_invariance(D, ZETA, 3).passed
    D.actions(xlab(1))[xlab(1)] = Element.zero()
    rep = verify_shift_invariance(D, ZETA, 3)
    assert not rep.passed
    assert rep.witness == {"labels": "(1 # d)(x # 1)", "lhs": "q*x#d",
                           "rhs": "q*x#d + 1"}


# ---------------------------------------------------------------------------
# General-exponent structure of the action identity


def test_action_coefficient_formula_random_degrees(weyl):
    # The action x(a) carries q^(gamma'(|a1|,|a2|)) <x, a2> a1; recompute it
    # from raw pairing data for random Weyl powers.
    rng = random.Random(31)
    P = weyl.pairing
    gp = P.gamma.prime
    for _ in range(20):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        got = left_regular_action(P, xel(m), xel(n))
        expected = Element.zero()
        for (a1, a2), c in weyl.plus.coproduct(xlab(n)).terms.items():
            val = P.pair_labels(xlab(m), a2)
            if val.is_zero:
                continue
            coeff = q_power(gp * a1.degree * a2.degree) * c * val
            expected = expected + Element.from_label(a1, coeff)
        assert got == expected

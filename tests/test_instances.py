"""Instance-level tests: builders, closed-form pairings, h elements."""

import json
from math import factorial

import pytest

from heisdouble.double import IncompatiblePairError, max_term_degree, smash_multiply
from heisdouble.hopf import Element, comultiply, multiply
from heisdouble.instances import (
    ConfigError,
    Instance,
    SingularFormError,
    build_lattice,
    build_qheis,
    build_weyl,
    cartan_a,
    h_element,
    identity_form,
    lattice_factor,
    load_instance,
    mp_label,
    nonsingularity_check,
    q_factor,
    rank_one_form,
    shifted_instance,
    sym_pair,
    z_quantum,
    zero_form,
)
from heisdouble.linalg import det_bareiss, sparse_rank
from heisdouble.pairing import check_pairing_axioms
from heisdouble.partitions import multipartitions_of, multiplicities, partitions_of
from heisdouble.scalars import ONE, ZERO, RatFunc, q_factorial, q_int_sym
from oracles import (cartan_affine_a, cartan_affine_d4, h_adjoint, left_regular_action,
                     phi_derivation, sym_pair_perm, tensor, z_classical)
from heisdouble.twisting import TwistingDatum, dual_twisting

A2 = cartan_a(2)


def smp(n, i, ncolors):
    """Multipartition with the single part n in color i."""
    mp = [()] * ncolors
    mp[i - 1] = (n,)
    return tuple(mp)


def cmp_(lam, i, ncolors):
    mp = [()] * ncolors
    mp[i - 1] = tuple(lam)
    return tuple(mp)


def p_elt(mp):
    return Element.from_label(mp_label(mp))


@pytest.fixture(scope="module")
def weyl():
    return build_weyl()


@pytest.fixture(scope="module")
def sc():
    # single color, <1,1> = 2: the one-row quantum Heisenberg algebra
    return build_qheis(((2,),))


@pytest.fixture(scope="module")
def a2():
    return build_qheis(A2)


@pytest.fixture(scope="module")
def lat():
    return build_lattice(identity_form(2))


# -- quantum Weyl declarations -------------------------------------------


def test_weyl_minus_twisting_is_the_dual_twisting(weyl):
    assert dual_twisting(weyl.plus.twisting, weyl.pairing.gamma) == weyl.minus.twisting


def test_weyl_pairing_values(weyl):
    d3 = Element.from_label(weyl.minus.basis(3)[0])
    x3 = Element.from_label(weyl.plus.basis(3)[0])
    x2 = Element.from_label(weyl.plus.basis(2)[0])
    assert weyl.pairing.pair(d3, x3) == q_factorial(3)
    assert weyl.pairing.pair(d3, x2) == ZERO


# -- the Z normalization factors -----------------------------------------


def test_z_quantum_examples():
    assert z_quantum(()) == ONE
    assert z_quantum((2, 1)) == q_int_sym(2)
    assert z_quantum((1, 1)) == RatFunc.from_int(2)
    assert z_quantum((3, 3)) == q_int_sym(3) ** 2 * 2


def test_z_classical_examples():
    assert z_classical(()) == 1
    assert z_classical((2, 1)) == 2
    assert z_classical((3, 3)) == 18
    assert z_classical((4, 4, 2)) == 64


# -- nonsingularity of the color matrices --------------------------------


def test_nonsingularity_small_cases():
    assert nonsingularity_check(((2,),), 4) is None
    assert nonsingularity_check(A2, 4) is None


def test_nonsingularity_affine_a1_fails_at_one():
    assert nonsingularity_check(cartan_affine_a(1), 3) == 1


def test_affine_a_row_sums_are_nonzero():
    # classically the rows of an affine Cartan matrix sum to zero; under
    # k |-> [k] each row of affine A_n (n >= 2) sums to [2k] + 2[-k] != 0
    for n in (2, 3, 4):
        A = cartan_affine_a(n)
        for k in range(1, 5):
            target = q_int_sym(2 * k) + q_int_sym(-k) * 2
            assert not target.is_zero
            for row in A:
                s = ZERO
                for aij in row:
                    s = s + q_int_sym(k * aij)
                assert s == target
        assert nonsingularity_check(A, 4) is None


def test_affine_matrices_singular_classically_but_not_in_q():
    for A in (cartan_affine_a(2), cartan_affine_d4()):
        classical = det_bareiss([[RatFunc.from_int(v) for v in row] for row in A])
        assert classical == ZERO
        assert nonsingularity_check(A, 4) is None


# -- closed-form pairing values ------------------------------------------


def test_qheis_pair_single_color_closed_form():
    A = ((2,),)

    def oracle(lam, mu):
        if lam != mu:
            return ZERO
        out = ONE
        for k, m in multiplicities(lam).items():
            out = out * (q_int_sym(2 * k) * q_int_sym(k) / k) ** m * factorial(m)
        return out

    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert sym_pair(q_factor(A), (lam,), (mu,)) == oracle(lam, mu)


def test_qheis_pair_mixed_color_value():
    # <p'_{1,1} p'_{1,2}, p_{1,1} p_{1,2}> = [2]^2 + [-1]^2 = q^-2 + 3 + q^2
    mp = ((1,), (1,))
    expected = q_int_sym(2) ** 2 + ONE
    assert sym_pair(q_factor(A2), mp, mp) == expected


def test_qheis_pair_degree_mismatch_is_zero():
    assert sym_pair(q_factor(A2), ((2,), ()), ((1,), (1, 1))) == ZERO
    assert sym_pair(q_factor(A2), ((1,), ()), ((), ())) == ZERO


def test_qheis_pair_part_value_mismatch_is_zero():
    # same degree but no bijection matching part values
    assert sym_pair(q_factor(A2), ((2,), ()), ((1, 1), ())) == ZERO


def test_qheis_pair_permutation_route_agrees():
    f = q_factor(A2)
    for n in range(4):
        mps = multipartitions_of(n, 2)
        for la in mps:
            for mu in mps:
                assert sym_pair_perm(f, la, mu) == sym_pair(f, la, mu)
    f1 = q_factor(((2,),))
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert sym_pair_perm(f1, (lam,), (mu,)) == sym_pair(
                    f1, (lam,), (mu,))


def test_lattice_pair_classical_normalization():
    # for the 1x1 form (1) the diagonal pairing is the classical z_lambda
    B = ((1,),)
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = RatFunc.from_int(z_classical(lam)) if lam == mu else ZERO
                assert sym_pair(lattice_factor(B), (lam,), (mu,)) == expected


def test_lattice_pair_orthogonal_colors_vanish():
    B = identity_form(2)
    f = lattice_factor(B)
    assert sym_pair(f, smp(1, 1, 2), smp(1, 2, 2)) == ZERO
    assert sym_pair(f, smp(2, 1, 2), smp(2, 1, 2)) == RatFunc.from_int(2)


# -- the phi operators ---------------------------------------------------


def test_phi_on_single_power():
    u = p_elt(smp(2, 1, 2))
    out = phi_derivation(A2, 2, 2, u)
    expected = p_elt(((), ())).scale(q_int_sym(-2) * q_int_sym(2) / 2)
    assert out == expected
    assert phi_derivation(A2, 1, 1, u).is_zero


def test_phi_counts_multiplicity():
    # phi_{2,1} p_{(2,2),1} = 2 [4] ([2]/2) p_{(2),1} = [4][2] p_{(2),1}
    u = p_elt(((2, 2),))
    out = phi_derivation(((2,),), 2, 1, u)
    assert out == p_elt(((2,),)).scale(q_int_sym(4) * q_int_sym(2))


def test_phi_kills_the_unit(sc):
    assert phi_derivation(((2,),), 1, 1, sc.plus.unit_element()).is_zero


def test_phi_is_a_derivation(a2):
    u = p_elt(cmp_((2,), 1, 2))
    v = p_elt(cmp_((2, 1), 2, 2))
    uv = multiply(a2.plus, u, v)
    for k in (1, 2):
        for i in (1, 2):
            lhs = phi_derivation(A2, k, i, uv)
            rhs = (multiply(a2.plus, phi_derivation(A2, k, i, u), v)
                   + multiply(a2.plus, u, phi_derivation(A2, k, i, v)))
            assert lhs == rhs


def test_phi_matches_left_regular_action(a2):
    for n in range(5):
        for mp in multipartitions_of(n, 2):
            a = p_elt(mp)
            for k in (1, 2, 3):
                for i in (1, 2):
                    x = p_elt(smp(k, i, 2))
                    assert left_regular_action(a2.pairing, x, a) == \
                        phi_derivation(A2, k, i, a)


def test_phi_is_adjoint_to_multiplication(a2):
    for n in range(1, 5):
        for k in range(1, n + 1):
            mps = multipartitions_of(n - k, 2)
            for lam in partitions_of(n):
                for j in (1, 2):
                    a = p_elt(cmp_(lam, j, 2))
                    for i in (1, 2):
                        x = p_elt(smp(k, i, 2))
                        for mu in mps:
                            y = p_elt(mu)
                            lhs = a2.pairing.pair(multiply(a2.minus, x, y), a)
                            rhs = a2.pairing.pair(y, phi_derivation(A2, k, i, a))
                            assert lhs == rhs


# -- complete homogeneous elements ---------------------------------------


def test_h_element_examples():
    assert h_element(1, 0, 1) == Element.from_label(mp_label(((),)))
    assert h_element(1, -1, 1).is_zero
    assert h_element(1, 1, 1) == p_elt(((1,),))
    h2 = h_element(1, 2, 1)
    assert h2.terms.get(mp_label(((2,),))) == ONE / q_int_sym(2)
    assert h2.terms.get(mp_label(((1, 1),))) == ONE / 2
    assert len(h2.terms) == 2
    # color placement
    assert h_element(2, 1, 2) == p_elt(smp(1, 2, 2))


def test_h_element_is_computed_once():
    assert h_element(2, 3, 1) is h_element(2, 3, 1)


def test_h_newton_identity(sc, a2):
    # n h_n = sum_{r=1}^{n} (r/[r]) h_{n-r} p_r
    for H, ncolors, i in ((sc.plus, 1, 1), (a2.plus, 2, 2)):
        top = 7 if ncolors == 1 else 5
        for n in range(1, top):
            rhs = Element.zero()
            for r in range(1, n + 1):
                term = multiply(H, h_element(ncolors, n - r, i),
                                p_elt(smp(r, i, ncolors)))
                rhs = rhs + term.scale(RatFunc.from_int(r) / q_int_sym(r))
            assert h_element(ncolors, n, i).scale(n) == rhs


def test_h_coproduct_is_grouplike_sum(sc, a2):
    # Delta h_n = sum_k h_k (x) h_{n-k}
    for H, ncolors, i, top in ((sc.plus, 1, 1, 5), (a2.plus, 2, 1, 4)):
        for n in range(top):
            expected = Element.zero()
            for k in range(n + 1):
                expected = expected + tensor(
                    h_element(ncolors, k, i), h_element(ncolors, n - k, i))
            assert comultiply(H, h_element(ncolors, n, i)) == expected


def test_p_action_on_h(a2):
    # p'_{k,i} acts on h_{n,j} as ([k<i,j>]/k) h_{n-k,j}
    for n in range(1, 5):
        for k in range(1, n + 1):
            for i in (1, 2):
                for j in (1, 2):
                    x = p_elt(smp(k, i, 2))
                    got = left_regular_action(a2.pairing, x, h_element(2, n, j))
                    expected = h_element(2, n - k, j).scale(
                        q_int_sym(k * A2[i - 1][j - 1]) / k)
                    assert got == expected


def test_h_adjoint_same_color(a2):
    for k in range(4):
        for n in range(4):
            closed = h_adjoint(A2, k, 1, n, 1)
            assert closed == h_element(2, n - k, 1).scale(q_int_sym(k + 1))
            got = left_regular_action(a2.pairing, h_element(2, k, 1),
                                      h_element(2, n, 1))
            assert got == closed


def test_h_adjoint_adjacent_color(a2):
    for k in range(4):
        for n in range(4):
            closed = h_adjoint(A2, k, 1, n, 2)
            if k == 0:
                assert closed == h_element(2, n, 2)
            elif k == 1:
                assert closed == h_element(2, n - 1, 2)
            else:
                assert closed.is_zero
            got = left_regular_action(a2.pairing, h_element(2, k, 1),
                                      h_element(2, n, 2))
            assert got == closed


def test_h_adjoint_orthogonal_color():
    A3 = cartan_a(3)
    inst = build_qheis(A3)
    for k in (1, 2):
        for n in (1, 2):
            assert h_adjoint(A3, k, 1, n, 3).is_zero
            got = left_regular_action(inst.pairing, h_element(3, k, 1),
                                      h_element(3, n, 3))
            assert got.is_zero


def test_h_adjoint_no_closed_form_falls_back():
    A = ((3, 0), (0, 3))
    with pytest.raises(ValueError):
        h_adjoint(A, 1, 1, 2, 1)
    inst = build_qheis(A)
    got = h_adjoint(A, 1, 1, 2, 1, double=inst.double)
    expected = left_regular_action(inst.pairing, h_element(2, 1, 1),
                                   h_element(2, 2, 1))
    assert got == expected
    assert not got.is_zero


def test_h_products_span_each_stratum(a2):
    # products of h elements over multipartitions of d are a basis of the
    # degree-d stratum: the transition matrix to the p basis is invertible
    for d in range(1, 5):
        basis = a2.plus.basis(d)
        index = {label: t for t, label in enumerate(basis)}
        rows = []
        for mp in multipartitions_of(d, 2):
            u = a2.plus.unit_element()
            for i, lam in enumerate(mp, start=1):
                for n in lam:
                    u = multiply(a2.plus, u, h_element(2, n, i))
            rows.append({index[l]: c for l, c in u.terms.items()})
        assert len(rows) == len(basis)
        assert sparse_rank(rows) == len(basis)


# -- builders ------------------------------------------------------------


def test_build_qheis_refuses_singular_form():
    with pytest.raises(SingularFormError) as e:
        build_qheis(cartan_affine_a(1))
    assert "k=1" in str(e.value)


def test_build_qheis_rejects_bad_matrices():
    with pytest.raises(ConfigError):
        build_qheis(((2, -1),))
    with pytest.raises(ConfigError):
        build_qheis(((2, -1), (0, 2)))
    with pytest.raises(ConfigError):
        build_qheis(())


def test_build_lattice_perfect_flags():
    assert build_lattice(identity_form(2)).double.perfect
    assert not build_lattice(zero_form(2)).double.perfect
    assert not build_lattice(rank_one_form(2)).double.perfect


def test_lattice_pairing_axioms(lat):
    assert check_pairing_axioms(lat.pairing, 3).passed


def test_lattice_commutators_identity_form(lat):
    D = lat.double
    for n in range(1, 4):
        for m in range(1, 4):
            for i in (1, 2):
                for j in (1, 2):
                    x = D.embed_minus(p_elt(smp(n, i, 2)))
                    a = D.embed_plus(p_elt(smp(m, j, 2)))
                    comm = smash_multiply(D, x, a) - smash_multiply(D, a, x)
                    c = n if (n == m and i == j) else 0
                    assert comm == D.unit().scale(c)


def test_lattice_commutators_classical_rank_one():
    D = build_lattice(((1,),)).double
    for n in range(1, 5):
        x = D.embed_minus(p_elt(((n,),)))
        a = D.embed_plus(p_elt(((n,),)))
        assert smash_multiply(D, x, a) - smash_multiply(D, a, x) == \
            D.unit().scale(n)


def test_lattice_cross_color_commutators_rank_one_form():
    D = build_lattice(rank_one_form(2)).double
    for n in (1, 2, 3):
        x = D.embed_minus(p_elt(smp(n, 1, 2)))
        a = D.embed_plus(p_elt(smp(n, 2, 2)))
        assert smash_multiply(D, x, a) - smash_multiply(D, a, x) == \
            D.unit().scale(n)


def test_zero_form_commutators_vanish():
    D = build_lattice(zero_form(2)).double
    x = D.embed_minus(p_elt(smp(2, 1, 2)))
    a = D.embed_plus(p_elt(smp(2, 2, 2)))
    assert smash_multiply(D, x, a) == smash_multiply(D, a, x)


def test_lattice_scalars_are_q_free(lat):
    for n in range(4):
        for la in multipartitions_of(n, 2):
            for mu in multipartitions_of(n, 2):
                v = lat.pairing.pair_labels(mp_label(la), mp_label(mu))
                assert v.num.is_constant and v.den.is_constant


# -- shifted instances ---------------------------------------------------


def test_shifted_instance_weyl(weyl):
    alpha = 1
    s = shifted_instance(weyl, alpha)
    assert s.name == "weyl~shifted"
    assert s.kind == "weyl"
    zeta = 1
    assert s.pairing.gamma == TwistingDatum(-alpha, zeta - alpha)
    # generator hooks survive the shift
    u = s.double.generator_element("x")
    assert not u.is_zero
    assert max_term_degree(u) == 1


def test_shifted_instance_qheis_keeps_axioms(a2):
    # all instances carry a rank-1 total grading, so shifts act through it
    s = shifted_instance(a2, 1)
    assert check_pairing_axioms(s.pairing, 2).passed


def test_shifted_instance_rejects_bad_beta(weyl):
    # a nonzero beta breaks compatibility through every entry point
    with pytest.raises(IncompatiblePairError):
        shifted_instance(weyl, 0, 2)
    with pytest.raises(ConfigError, match="cannot form the double"):
        load_instance({"type": "weyl", "shift": {"alpha": [[0]], "beta": [[2]]}})
    with pytest.raises(IncompatiblePairError):
        weyl.double.shifted(0, 2)


# -- configuration loading -----------------------------------------------


def test_load_instance_dicts():
    assert load_instance({"type": "weyl"}).kind == "weyl"
    inst = load_instance({"type": "qheis", "cartan": [[2]], "name": "mine"})
    assert inst.kind == "qheis"
    assert inst.name == "mine"
    assert inst.double.name == "mine"
    assert load_instance({"type": "lattice", "form": [[1, 0], [0, 1]]}).kind == \
        "lattice"


def test_load_instance_from_path(tmp_path):
    p = tmp_path / "weyl.json"
    p.write_text(json.dumps({"type": "weyl"}))
    assert load_instance(str(p)).kind == "weyl"


def test_load_instance_with_shift():
    inst = load_instance({"type": "weyl", "shift": {"alpha": [[1]]}})
    assert inst.name == "weyl~shifted"
    assert inst.plus.twisting.doubleprime == 2


def test_load_instance_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_instance(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_instance(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_instance(str(arr))
    with pytest.raises(ConfigError):
        load_instance({})
    with pytest.raises(ConfigError):
        load_instance({"type": "nope"})
    with pytest.raises(ConfigError):
        load_instance({"type": "qheis"})
    with pytest.raises(ConfigError):
        load_instance({"type": "lattice"})
    with pytest.raises(ConfigError):
        load_instance({"type": "qheis", "cartan": [[2, -1], [0, 2]]})
    with pytest.raises(ConfigError):
        load_instance({"type": "qheis", "cartan": [[2, -2], [-2, 2]]})
    with pytest.raises(ConfigError):
        load_instance({"type": "weyl", "shift": {}})
    with pytest.raises(ConfigError):
        load_instance({"type": "weyl", "shift": {"beta": [[2]]}})
    # every instance is graded by N, so a shift is a 1x1 matrix
    for alpha in ([[1, 0], [0, 1]], [[1], [2]], [], [[1, 2]], [[]]):
        with pytest.raises(ConfigError, match="shift matrices must be 1x1 for weyl"):
            load_instance({"type": "weyl", "shift": {"alpha": alpha}})
    with pytest.raises(ConfigError, match="cannot form the double"):
        load_instance({"type": "lattice", "form": [[1]], "shift": {"beta": [[-1]]}})


@pytest.mark.parametrize("config", [
    {"type": "lattice", "form": [[1.7]]},
    {"type": "lattice", "form": [[True]]},
    {"type": "weyl", "shift": {"alpha": [[0.9]]}},
])
def test_load_instance_refuses_non_integer_entries(config):
    # a truncating int() would read 1.7 and True as 1, and alpha 0.9 as the
    # zero shift
    with pytest.raises(ConfigError, match="integer rows"):
        load_instance(config)


# -- standard matrices ---------------------------------------------------


def test_standard_matrices():
    assert cartan_a(1) == ((2,),)
    assert cartan_a(3) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert cartan_affine_a(1) == ((2, -2), (-2, 2))
    assert cartan_affine_a(2) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    d4 = cartan_affine_d4()
    assert len(d4) == 5
    assert all(d4[i][i] == 2 for i in range(5))
    assert all(d4[i][4] == -1 and d4[4][i] == -1 for i in range(4))
    assert identity_form(2) == ((1, 0), (0, 1))
    assert zero_form(2) == ((0, 0), (0, 0))
    assert rank_one_form(3) == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        cartan_a(0)
    with pytest.raises(ValueError):
        cartan_affine_a(0)


def test_instance_repr_and_field_equality():
    w = build_weyl()
    assert repr(w) == ("Instance(name='weyl', kind='weyl', pairing=TwistedPairing(weyl), "
                       "double=HeisenbergDouble(weyl), meta={})")
    assert w == Instance(w.name, w.kind, w.pairing, w.double)
    assert w != Instance(w.name, w.kind, w.pairing, w.double, {"form": 1})

"""Acceptance gate: the eleven capability checks, one pass/fail line each.

Run with -s to see the lines as they pass:

    pytest tests/test_acceptance.py -s

Every check uses exact arithmetic (no tolerances) and enforces its own wall
clock budget.
"""

import random
import time

import pytest

from heisdouble.double import (
    smash_multiply,
    verify_faithful,
    verify_shift_invariance,
    verify_vacuum,
)
from heisdouble.expr import evaluate_text
from heisdouble.hopf import BasisLabel, check_bialgebra
from heisdouble.instances import (
    build_lattice,
    build_qheis,
    build_weyl,
    cartan_a,
    h_element,
    identity_form,
    mp_label,
    nonsingularity_check,
    q_factor,
    rank_one_form,
    sym_pair,
    z_quantum,
    zero_form,
)
from heisdouble.pairing import dual_presentation_check, perfectness_check
from heisdouble.partitions import multipartitions_of
from heisdouble.scalars import ONE, Q, ZERO, q_int_sym
from heisdouble.twisting import TwistingDatum, dual_twisting
from oracles import cartan_affine_d4, h_adjoint, left_regular_action, sym_pair_perm

A2 = cartan_a(2)


def report(num, name, ok, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d (%s): %s  [%.2fs, budget %ds]"
          % (num, name, status, elapsed, bound))
    assert ok, "acceptance criterion %d (%s) failed" % (num, name)
    assert elapsed < bound, "criterion %d exceeded its %ds budget" % (num, bound)


@pytest.fixture(scope="module")
def weyl():
    return build_weyl()


@pytest.fixture(scope="module")
def a2():
    return build_qheis(A2)


def test_acceptance_1_weyl_bialgebra(weyl):
    t0 = time.monotonic()
    ok = (check_bialgebra(weyl.plus, 8).passed
          and check_bialgebra(weyl.minus, 8).passed)
    report(1, "weyl bialgebra axioms", ok, time.monotonic() - t0, 5)


def weyl_rewrite_oracle(m, n):
    """Normal order d^m x^n using only the rewrite dx -> q xd + (drop)."""
    states = {("d",) * m + ("x",) * n: ONE}
    out = {}
    while states:
        nxt = {}
        for w, c in states.items():
            for t in range(len(w) - 1):
                if w[t] == "d" and w[t + 1] == "x":
                    break
            else:
                k = (w.count("x"), w.count("d"))
                out[k] = out.get(k, ZERO) + c
                continue
            swapped = w[:t] + ("x", "d") + w[t + 2:]
            dropped = w[:t] + w[t + 2:]
            nxt[swapped] = nxt.get(swapped, ZERO) + c * Q
            nxt[dropped] = nxt.get(dropped, ZERO) + c
        states = {w: c for w, c in nxt.items() if not c.is_zero}
    return {k: v for k, v in out.items() if not v.is_zero}


def test_acceptance_2_weyl_normal_order(weyl):
    t0 = time.monotonic()
    D = weyl.double
    u = evaluate_text(D, "d x")
    x1 = BasisLabel(1, 1)
    unit = (D.plus.unit_label, D.minus.unit_label)
    ok = (u.terms.get((x1, x1)) == Q and u.terms.get(unit) == ONE
          and len(u.terms) == 2
          and evaluate_text(D, "d*x") == u)
    for m in range(7):
        for n in range(7):
            got = evaluate_text(D, "d^%d x^%d" % (m, n))
            flat = {(a.key, x.key): c for (a, x), c in got.terms.items()}
            ok = ok and flat == weyl_rewrite_oracle(m, n)
    report(2, "weyl double relation vs rewriting oracle", ok,
           time.monotonic() - t0, 10)


def test_acceptance_3_dual_twisting(weyl):
    t0 = time.monotonic()
    zeta = 1
    zero = 0
    declared = dual_twisting(TwistingDatum(zero, zeta),
                             TwistingDatum(zero, zeta))
    ok = (declared == TwistingDatum(-zeta, zero)
          and declared == weyl.minus.twisting
          and dual_presentation_check(weyl.pairing, 6).passed)
    report(3, "dual twisting of the weyl pair", ok, time.monotonic() - t0, 5)


def test_acceptance_4_shift_invariance(weyl, a2):
    t0 = time.monotonic()
    ok = verify_shift_invariance(weyl.double, 1, 5).passed
    rng = random.Random(82301)
    for _ in range(3):
        alpha = rng.randint(-2, 2)
        ok = ok and verify_shift_invariance(a2.double, alpha, 5).passed
    report(4, "shift invariance of the double", ok, time.monotonic() - t0, 60)


def single_part_mp(r, i, nc):
    mp = [()] * nc
    if r:
        mp[i - 1] = (r,)
    return tuple(mp)


@pytest.fixture(scope="module")
def h_relation_runs():
    """Verify the five h-relations over A2 and affine D4; also extract, for
    the integrality criterion, the coefficients of each normal-ordered left
    side in the h # h' ladder basis."""
    t0 = time.monotonic()
    failures = []
    coeffs = []
    for inst in (build_qheis(A2), build_qheis(cartan_affine_d4())):
        A = inst.meta["cartan"]
        nc = len(A)
        D = inst.double

        def hp(n, i):
            return D.embed_plus(h_element(nc, n, i))

        def hm(n, i):
            return D.embed_minus(h_element(nc, n, i))

        for i in range(1, nc + 1):
            for j in range(1, nc + 1):
                for n in range(5):
                    for m in range(5):
                        if smash_multiply(D, hp(n, i), hp(m, j)) != \
                                smash_multiply(D, hp(m, j), hp(n, i)):
                            failures.append((inst.name, "h h", i, j, n, m))
                        if smash_multiply(D, hm(n, i), hm(m, j)) != \
                                smash_multiply(D, hm(m, j), hm(n, i)):
                            failures.append((inst.name, "h' h'", i, j, n, m))
                        lhs = smash_multiply(D, hm(n, i), hp(m, j))
                        if i == j:
                            rhs = D.unit().scale(ZERO)
                            for k in range(min(n, m) + 1):
                                rhs = rhs + smash_multiply(
                                    D, hp(m - k, i), hm(n - k, i)).scale(
                                        q_int_sym(k + 1))
                        elif A[i - 1][j - 1] == -1:
                            rhs = (smash_multiply(D, hp(m, j), hm(n, i))
                                   + smash_multiply(D, hp(m - 1, j), hm(n - 1, i)))
                        else:
                            rhs = smash_multiply(D, hp(m, j), hm(n, i))
                        if lhs != rhs:
                            failures.append((inst.name, "h' h", i, j, n, m))
                        # read off the h-basis coefficients: the bidegree
                        # (m-k, n-k) slice of h_a # h'_b hits the pair of
                        # single-part p labels with coefficient 1/([a][b])
                        recon = D.unit().scale(ZERO)
                        for k in range(min(n, m) + 1):
                            pl = mp_label(single_part_mp(m - k, j, nc))
                            ml = mp_label(single_part_mp(n - k, i, nc))
                            c = (lhs.terms.get((pl, ml), ZERO)
                                 * z_quantum((m - k,) if m - k else ())
                                 * z_quantum((n - k,) if n - k else ()))
                            coeffs.append(c)
                            recon = recon + smash_multiply(
                                D, hp(m - k, j), hm(n - k, i)).scale(c)
                        if recon != lhs:
                            failures.append((inst.name, "h ladder", i, j, n, m))
    return {"failures": failures, "coeffs": coeffs,
            "elapsed": time.monotonic() - t0}


def test_acceptance_5_qheis_relations(a2, h_relation_runs):
    t0 = time.monotonic()
    D = a2.double
    ok = not h_relation_runs["failures"]
    # p-relations: commuting sides plus the delta commutator
    for i in (1, 2):
        for j in (1, 2):
            for n in range(1, 5):
                for m in range(1, 5):
                    pj = D.generator_element("p", (n, j))
                    pi = D.generator_element("p", (m, i))
                    qi = D.generator_element("p'", (m, i))
                    qj = D.generator_element("p'", (n, j))
                    ok = ok and smash_multiply(D, pi, pj) == \
                        smash_multiply(D, pj, pi)
                    ok = ok and smash_multiply(D, qi, qj) == \
                        smash_multiply(D, qj, qi)
                    comm = (smash_multiply(D, qi, pj)
                            - smash_multiply(D, pj, qi))
                    expected = D.unit().scale(
                        q_int_sym(n * A2[i - 1][j - 1]) * q_int_sym(n) / n
                        if n == m else ZERO)
                    ok = ok and comm == expected
    elapsed = (time.monotonic() - t0) + h_relation_runs["elapsed"]
    report(5, "qheis p- and h-relations (A2, affine D4)", ok, elapsed, 120)


def test_acceptance_6_h_adjoint_case_table():
    t0 = time.monotonic()
    ok = True
    cases = ((build_qheis(A2), 1, 1),        # <i,j> = 2
             (build_qheis(A2), 1, 2),        # <i,j> = -1
             (build_qheis(cartan_a(3)), 1, 3))  # <i,j> = 0
    for inst, i, j in cases:
        A = inst.meta["cartan"]
        nc = len(A)
        for k in range(6):
            for n in range(6):
                closed = h_adjoint(A, k, i, n, j)
                direct = left_regular_action(
                    inst.pairing, h_element(nc, k, i), h_element(nc, n, j))
                ok = ok and closed == direct
    report(6, "h-adjoint closed forms match the action", ok,
           time.monotonic() - t0, 30)


def test_acceptance_7_pairing_oracle_equivalence():
    t0 = time.monotonic()
    mps = [mp for n in range(6) for mp in multipartitions_of(n, 2)]
    f = q_factor(A2)
    ok = True
    for la in mps:
        for mu in mps:
            ok = ok and sym_pair_perm(f, la, mu) == sym_pair(f, la, mu)
    report(7, "pairing permutation sum equals factored form", ok,
           time.monotonic() - t0, 60)


def test_acceptance_8_perfectness(weyl, a2):
    t0 = time.monotonic()
    lat = build_lattice(identity_form(2))
    ok = (perfectness_check(weyl.pairing, 8).passed
          and perfectness_check(a2.pairing, 4).passed
          and perfectness_check(lat.pairing, 4).passed
          and nonsingularity_check(A2, 4) is None)
    report(8, "gram determinants and color matrices nonzero", ok,
           time.monotonic() - t0, 60)


def test_acceptance_9_vacuum_and_faithfulness(weyl, a2):
    t0 = time.monotonic()
    ok = (verify_vacuum(weyl.double, 6).passed
          and verify_vacuum(a2.double, 3).passed
          and verify_faithful(weyl.double, 0, 1).passed
          and verify_faithful(weyl.double, 0, 2).passed
          and verify_faithful(a2.double, 0, 2).passed)
    report(9, "vacuum uniqueness and faithful strata", ok,
           time.monotonic() - t0, 60)


def test_acceptance_10_integral_coefficients(h_relation_runs):
    ok = bool(h_relation_runs["coeffs"]) and all(
        c.is_laurent for c in h_relation_runs["coeffs"])
    report(10, "h-relation coefficients are Laurent", ok, 0.0, 1)


def test_acceptance_11_lattice_relations():
    t0 = time.monotonic()
    ok = True
    for B in (identity_form(2), zero_form(2), rank_one_form(2)):
        D = build_lattice(B).double
        for i in (1, 2):
            for j in (1, 2):
                for n in range(1, 6):
                    for m in range(1, 6):
                        x = D.generator_element("p'", (n, i))
                        a = D.generator_element("p", (m, j))
                        comm = (smash_multiply(D, x, a)
                                - smash_multiply(D, a, x))
                        c = m * B[i - 1][j - 1] if n == m else 0
                        ok = ok and comm == D.unit().scale(c)
    report(11, "lattice p-commutators", ok, time.monotonic() - t0, 10)

"""RatFunc against sympy: value, canonical form and the field axioms, exact
division of Laurent polynomials, the integer polynomial gcd (heuristic and
PRS fallback), the memo of the canonical form, the cached text of a Laurent
polynomial, the monomial fast path of the product and the unit and zero
operands that skip arithmetic.

An independent check of the scalar kernel on random rational functions with
small integer coefficients and negative exponents, and on integer
polynomials with coefficients beyond 2^64.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from heisdouble import scalars  # noqa: E402
from heisdouble.scalars import (LP_ONE, ONE, ZERO, LaurentPoly,  # noqa: E402
                               RatFunc, laurent_exact_div)

q = sympy.Symbol("q")
SETTINGS = settings(max_examples=60, deadline=None)

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-6, 6),
                          max_size=4).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero)
ratfunc = st.builds(RatFunc, laurent, nonzero_laurent)
nonzero_ratfunc = ratfunc.filter(lambda r: not r.is_zero)


def expr(p):
    return sum((c * q**e for e, c in p.items()), sympy.Integer(0))


def poly(p):
    """p times the power of q that makes it an ordinary polynomial."""
    shift = -min(0, p.min_exp()) if not p.is_zero else 0
    return sympy.Poly(sympy.expand(expr(p) * q**shift), q)


@SETTINGS
@given(laurent, nonzero_laurent)
def test_value_is_num_over_den(num, den):
    r = RatFunc(num, den)
    assert sympy.expand(expr(r.num) * expr(den) - expr(num) * expr(r.den)) == 0


def assert_canonical(r):
    # a denominator 1 is the object LP_ONE, which is_laurent tests for
    assert (r.den is LP_ONE) == (r.den == LaurentPoly.const(1))
    if r.is_zero:
        assert r.den is LP_ONE
        return
    den = poly(r.den)
    assert r.den.min_exp() >= 0 and r.den.coeff(0) != 0      # den(0) != 0
    assert den.LC() > 0
    assert sympy.gcd(poly(r.num), den).degree() == 0          # coprime
    assert sympy.igcd(r.num.content(), r.den.content()) == 1  # no common content


@SETTINGS
@given(ratfunc)
def test_canonical_form(r):
    assert_canonical(r)


@SETTINGS
@given(ratfunc, ratfunc, ratfunc)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO
    assert a - b == a + (-b)


@SETTINGS
@given(ratfunc, nonzero_ratfunc)
def test_division_axioms(a, b):
    assert b * (ONE / b) == ONE
    assert (a / b) * b == a
    assert a / b == a * (ONE / b)


# -- exact division in Z[q, q^-1] -----------------------------------------


def lowest_at_zero(p):
    """p times the power of q that moves its lowest exponent to 0."""
    m = p.min_exp()
    return LaurentPoly({e - m: c for e, c in p.items()})


def laurent_quotient(num, den):
    """num/den as a Laurent polynomial with integer coefficients, by sympy,
    or None when it is not one.  Both are shifted to polynomials with a
    nonzero constant term, so divisibility in Z[q, q^-1] is divisibility of
    the shifted polynomials."""
    n, d = poly(lowest_at_zero(num)), poly(lowest_at_zero(den))
    quo, rem = sympy.div(n.set_domain(sympy.QQ), d.set_domain(sympy.QQ))
    if not rem.is_zero or not all(c.is_integer for c in quo.all_coeffs()):
        return None
    shift = num.min_exp() - den.min_exp()
    return LaurentPoly({e + shift: int(c) for (e,), c in quo.terms()})


def expect_quotient(num, den):
    expected = laurent_quotient(num, den)
    if expected is None:
        with pytest.raises(ArithmeticError):
            laurent_exact_div(num, den)
    else:
        assert laurent_exact_div(num, den) == expected


@SETTINGS
@given(laurent, nonzero_laurent)
def test_exact_div_recovers_factor(a, b):
    assert laurent_exact_div(a * b, b) == a
    if not a.is_zero:
        expect_quotient(a * b, b)


@SETTINGS
@given(nonzero_laurent, nonzero_laurent)
def test_exact_div_agrees_with_sympy(num, den):
    # almost always inexact over Q: each such division must refuse
    expect_quotient(num, den)


@SETTINGS
@given(nonzero_laurent, nonzero_laurent, st.integers(2, 5))
def test_exact_div_refuses_quotients_outside_z(a, b, k):
    # a*b / (k*b) = a/k is exact over Q; it lies in Z[q, q^-1] only when k
    # divides every coefficient of a
    expect_quotient(a * b, b * LaurentPoly.const(k))
    if a.content() % k:
        with pytest.raises(ArithmeticError):
            laurent_exact_div(a * b, b * LaurentPoly.const(k))


def test_exact_div_refuses_2q2_3q_1_over_2q_2():
    # (2q^2+3q+1)/(2q+2) = (2q+1)/2: exact over Q, not over Z
    with pytest.raises(ArithmeticError):
        laurent_exact_div(LaurentPoly({0: 1, 1: 3, 2: 2}), LaurentPoly({0: 2, 1: 2}))
    assert laurent_quotient(LaurentPoly({0: 1, 1: 3, 2: 2}),
                            LaurentPoly({0: 2, 1: 2})) is None


# -- integer polynomial gcd -------------------------------------------------
#
# Coefficient lists run from the constant term up.  The gcd takes primitive
# lists with nonzero constant and leading terms, as _canonical passes them.

coefficient = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))
int_poly = st.lists(coefficient, min_size=1, max_size=4).filter(
    lambda c: c[0] != 0 and c[-1] != 0)


def to_poly(c):
    return sympy.Poly(list(reversed(c)), q)


def to_list(p):
    return [int(v) for v in reversed(p.all_coeffs())]


def primitive(p):
    return p.primitive()[1]


def sympy_gcd(a, b):
    """The primitive gcd with positive leading coefficient, by sympy."""
    g = primitive(sympy.gcd(to_poly(a), to_poly(b)))
    return to_list(-g if g.LC() < 0 else g)


def gcd_inputs(f, a, b):
    """Primitive f*a and f*b: random polynomials with a common factor."""
    return (to_list(primitive(to_poly(f) * to_poly(a))),
            to_list(primitive(to_poly(f) * to_poly(b))))


def assert_cofactors(a, b, found):
    g, qa, qb = found
    assert g == sympy_gcd(a, b)
    assert to_poly(g) * to_poly(qa) == to_poly(a)
    assert to_poly(g) * to_poly(qb) == to_poly(b)


@SETTINGS
@given(int_poly, int_poly, int_poly)
def test_gcd_agrees_with_sympy(f, a, b):
    a, b = gcd_inputs(f, a, b)
    assert_cofactors(a, b, scalars._gcd_cofactors(a, b))


@SETTINGS
@given(int_poly, int_poly, int_poly)
def test_gcd_prs_fallback_agrees_with_sympy(f, a, b):
    a, b = gcd_inputs(f, a, b)
    assert scalars._gcd_prs(a, b) == sympy_gcd(a, b)


def test_gcd_heuristic_removes_candidate_content():
    # (q-1)(q+3) and (1-q)(1+q) at xi = 5: the integer gcd 8 reads 2q - 2 in
    # symmetric base 5, whose primitive part q - 1 is the gcd
    a, b = [-3, 2, 1], [1, 0, -1]
    assert scalars._gcd_heu(a, b, 5) == ([-1, 1], [3, 1], [-1, -1])


def test_gcd_retries_after_a_wrong_candidate():
    # (3-q)(1+q) and (3+q)(1+q) at the first point xi = 9: the integer gcd
    # 60 reads (q-3)(q+1), which divides the first only; the next point
    # gives the gcd q + 1
    a, b = [3, 2, -1], [3, 4, 1]
    heu = scalars._gcd_heu
    trials = []

    def recording(a, b, xi):
        trials.append(heu(a, b, xi))
        return trials[-1]

    with mock.patch.object(scalars, "_gcd_heu", recording):
        found = scalars._gcd_cofactors(a, b)
    assert trials[0] is None and len(trials) == 2
    assert found == ([1, 1], [3, -1], [3, 1])


def unmemoised():
    """RatFunc through the canonical-form kernel itself, not its memo: a
    memo hit would return a pair that an earlier call computed, and a
    patched gcd would never run."""
    return mock.patch.object(scalars, "_canonical", scalars._canonical.__wrapped__)


@SETTINGS
@given(laurent, nonzero_laurent)
def test_canonical_form_through_prs_fallback(num, den):
    calls = []

    def prs_only(a, b, xi):
        calls.append(1)

    with unmemoised(), mock.patch.object(scalars, "_gcd_heu", prs_only):
        r = RatFunc(num, den)
    expected = scalars._canonical.__wrapped__(num, den)
    assert (r.num, r.den) == expected
    assert_canonical(r)
    # a numerator and a denominator with two terms or more go through the
    # gcd, which here can only be the PRS
    shifted = [p for p in (num, den) if not p.is_zero and p.max_exp() > p.min_exp()]
    assert len(calls) == (scalars._HEU_TRIALS if len(shifted) == 2 else 0)


# -- the memo of the canonical form and the cached text ----------------------

big_laurent = st.dictionaries(st.integers(-3, 3), coefficient,
                              max_size=4).map(LaurentPoly)


def value(num, den):
    return expr(num) / expr(den)


@SETTINGS
@given(big_laurent.filter(bool), big_laurent, big_laurent.filter(bool))
def test_memo_hit_and_miss_agree_with_kernel_and_sympy(f, a, b):
    num, den = f * a, f * b
    # pairs that share a polynomial, or both, in another place
    pairs = [(num, den), (num, den * LaurentPoly.const(2))] + ([(den, num)] if num else [])
    pairs = list(dict.fromkeys(pairs))
    scalars._canonical.cache_clear()
    for n, d in pairs:
        expected = scalars._canonical.__wrapped__(n, d)
        miss = RatFunc(n, d)
        # equal copies: the memo keys on the value, not on the objects
        hit = RatFunc(LaurentPoly(dict(n.items())), LaurentPoly(dict(d.items())))
        assert hit.num is miss.num and hit.den is miss.den
        for r in (miss, hit):
            assert (r.num, r.den) == expected
            assert_canonical(r)
            assert sympy.cancel(value(r.num, r.den) - value(n, d)) == 0
    info = scalars._canonical.cache_info()
    assert (info.hits, info.misses) == (len(pairs), len(pairs))


def test_memo_stays_bounded_and_recomputes_evicted_pairs():
    # (1+q)(k q^-1 + q^2) / (1+q)(1 + (k + 2^70) q) has the canonical form
    # (k q^-1 + q^2) / (1 + (k + 2^70) q), for k = 1 .. maxsize + 100
    maxsize = scalars.CANONICAL_CACHE_SIZE
    f = LaurentPoly({0: 1, 1: 1})
    cases = [(LaurentPoly({-1: k, 2: 1}), LaurentPoly({0: 1, 1: k + 2**70}))
             for k in range(1, maxsize + 101)]
    pairs = [(f * n, f * d) for n, d in cases]
    scalars._canonical.cache_clear()
    for (num, den), expected in zip(pairs, cases):
        r = RatFunc(num, den)
        assert (r.num, r.den) == expected
    info = scalars._canonical.cache_info()
    assert info.maxsize == maxsize
    assert info.currsize == maxsize and info.misses == len(pairs)
    # the 100 oldest pairs were evicted: each is computed again, right
    for (num, den), expected in zip(pairs[:100], cases):
        r = RatFunc(num, den)
        assert (r.num, r.den) == expected
        assert (r.num, r.den) == scalars._canonical.__wrapped__(num, den)
    info = scalars._canonical.cache_info()
    assert info.misses == len(pairs) + 100 and info.hits == 0
    assert info.currsize <= maxsize
    # the newest pair is still kept
    RatFunc(*pairs[-1])
    assert scalars._canonical.cache_info().hits == 1


@SETTINGS
@given(big_laurent)
def test_laurent_text_is_cached_and_ignored_by_eq_and_hash(p):
    fresh = LaurentPoly(dict(p.items()))
    h = hash(p)
    text = str(p)
    assert p._str is text and str(p) is text and fresh._str is None
    assert p == fresh and hash(p) == hash(fresh) == h
    assert str(fresh) == text == p._render()
    # a rational function prints again from the text cached on its two
    # polynomials, with nothing rendered afresh
    r = RatFunc(p, LaurentPoly({0: 3, 2: 1}))
    expected = str(r)
    with mock.patch.object(LaurentPoly, "_render", None):
        assert str(r) == expected


# -- the monomial fast path -------------------------------------------------

monomial = st.builds(lambda c, e, d: RatFunc(LaurentPoly({e: c}), d),
                     st.integers(-12, 12).filter(bool), st.integers(-3, 3),
                     st.integers(1, 12))


@SETTINGS
@given(ratfunc, monomial)
def test_monomial_product_agrees_with_canonical_form(a, m):
    # m is c*q^e/d with c of either sign; its denominator is constant
    expected = RatFunc(a.num * m.num, a.den * m.den)
    for r in (a * m, m * a):
        assert (r.num, r.den) == (expected.num, expected.den)
        assert_canonical(r)
    r = a / m
    expected = RatFunc(a.num * m.den, a.den * m.num)
    assert (r.num, r.den) == (expected.num, expected.den)
    assert_canonical(r)


def test_monomial_product_needs_no_gcd():
    # (2+4q)/(6+3q^2) times and over -9q^-2/4, with no canonical-form pass
    a = RatFunc(LaurentPoly({0: 2, 1: 4}), LaurentPoly({0: 6, 2: 3}))
    m = RatFunc(LaurentPoly({-2: -9}), 4)
    with mock.patch.object(scalars, "_canonical", None):
        r = a * m
        s = a / m
    assert (r.num, r.den) == (LaurentPoly({-2: -3, -1: -6}), LaurentPoly({0: 4, 2: 2}))
    assert (s.num, s.den) == (LaurentPoly({2: -8, 3: -16}), LaurentPoly({0: 54, 2: 27}))


# -- unit and zero operands ---------------------------------------------------

scalar = st.one_of(laurent.map(RatFunc),
                   st.builds(RatFunc, laurent, st.integers(1, 12)),
                   ratfunc)
units = (ONE, RatFunc(LaurentPoly({0: 1})), 1)
zeros = (ZERO, RatFunc(LaurentPoly()), 0)


@SETTINGS
@given(scalar)
def test_unit_and_zero_operands_keep_canonical_form(x):
    # expected values are canonicalised from scratch, with no RatFunc
    # arithmetic (and so no fast path) in between
    product_one = RatFunc(x.num * LP_ONE, x.den * LP_ONE)
    product_zero = RatFunc(x.num * LaurentPoly(), x.den * LP_ONE)
    sum_zero = RatFunc(x.num * LP_ONE + LaurentPoly() * x.den, x.den * LP_ONE)
    cases = []
    for one in units:
        cases += [(x * one, product_one), (one * x, product_one)]
    for zero in zeros:
        cases += [(x * zero, product_zero), (zero * x, product_zero),
                  (x + zero, sum_zero), (zero + x, sum_zero)]
    for r, expected in cases:
        assert (r.num, r.den) == (expected.num, expected.den)
        assert r == expected and hash(r) == hash(expected)
        assert_canonical(r)

"""RatFunc against sympy: value, canonical form and the field axioms, and
exact division of Laurent polynomials.

An independent check of the scalar kernel on random rational functions with
small integer coefficients and negative exponents.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from heisdouble.scalars import (ONE, ZERO, LaurentPoly, RatFunc,  # noqa: E402
                               laurent_exact_div)

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


@SETTINGS
@given(ratfunc)
def test_canonical_form(r):
    if r.is_zero:
        assert r.den == LaurentPoly.const(1)
        return
    den = poly(r.den)
    assert r.den.min_exp() >= 0 and r.den.coeff(0) != 0      # den(0) != 0
    assert den.LC() > 0
    assert sympy.gcd(poly(r.num), den).degree() == 0          # coprime
    assert sympy.igcd(r.num.content(), r.den.content()) == 1  # no common content


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


def laurent_quotient(num, den):
    """num/den as a Laurent polynomial with integer coefficients, by sympy,
    or None when it is not one.  Both are shifted to polynomials with a
    nonzero constant term, so divisibility in Z[q, q^-1] is divisibility of
    the shifted polynomials."""
    n, d = poly(num.shift(-num.min_exp())), poly(den.shift(-den.min_exp()))
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
    expect_quotient(a * b, b.scale(k))
    if a.content() % k:
        with pytest.raises(ArithmeticError):
            laurent_exact_div(a * b, b.scale(k))


def test_exact_div_refuses_2q2_3q_1_over_2q_2():
    # (2q^2+3q+1)/(2q+2) = (2q+1)/2: exact over Q, not over Z
    with pytest.raises(ArithmeticError):
        laurent_exact_div(LaurentPoly({0: 1, 1: 3, 2: 2}), LaurentPoly({0: 2, 1: 2}))
    assert laurent_quotient(LaurentPoly({0: 1, 1: 3, 2: 2}),
                            LaurentPoly({0: 2, 1: 2})) is None

"""RatFunc against sympy: value, canonical form and the field axioms.

An independent check of the scalar kernel on random rational functions with
small integer coefficients and negative exponents.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from heisdouble.scalars import ONE, ZERO, LaurentPoly, RatFunc  # noqa: E402

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

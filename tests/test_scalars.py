"""Exact scalar arithmetic: Laurent polynomials and rational functions in q."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from heisdouble import scalars
from heisdouble.scalars import (
    LP_ONE,
    LP_ZERO,
    ONE,
    Q,
    QINV,
    TWO,
    ZERO,
    LaurentPoly,
    RatFunc,
    laurent_exact_div,
    q_binomial,
    q_factorial,
    q_int,
    q_int_sym,
    q_power,
)
from heisdouble import cli
from heisdouble.expr import as_scalar, evaluate_text
from heisdouble.instances import build_lattice, build_weyl


def lp(coeffs):
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# Laurent polynomial basics


def test_laurent_construct_drops_zeros():
    p = lp({0: 1, 2: 0, 5: 3})
    assert sorted(p.items()) == [(0, 1), (5, 3)]
    assert lp({}) == LP_ZERO
    assert lp({3: 0}).is_zero


def test_laurent_product_example():
    # (1 + q)(1 - q) = 1 - q^2
    a = lp({0: 1, 1: 1})
    b = lp({0: 1, 1: -1})
    assert a * b == lp({0: 1, 2: -1})


def test_laurent_inverse_power_example():
    # q^-1 * q = 1
    assert lp({-1: 1}) * lp({1: 1}) == LP_ONE


def test_laurent_add_sub_neg():
    a = lp({-2: 3, 1: 1})
    b = lp({1: -1, 4: 2})
    assert a + b == lp({-2: 3, 4: 2})
    assert a - a == LP_ZERO
    assert -(a - b) == b - a


def test_laurent_shift_and_bounds():
    a = lp({-1: 2, 3: 5})
    assert a.min_exp() == -1
    assert a.max_exp() == 3
    assert a.coeff(3) == 5
    assert a.coeff(0) == 0


def test_laurent_subs_q_inverse():
    a = lp({-1: 2, 0: 1, 3: 5})
    assert a.subs_q_inverse() == lp({1: 2, 0: 1, -3: 5})
    assert a.subs_q_inverse().subs_q_inverse() == a


def test_laurent_str_canonical():
    assert str(LP_ZERO) == "0"
    assert str(LP_ONE) == "1"
    assert str(lp({1: 1})) == "q"
    assert str(lp({-1: 1})) == "q^-1"
    assert str(lp({2: 2})) == "2*q^2"
    assert str(lp({0: 1, 1: -1})) == "1 - q"
    assert str(lp({1: -1, 0: 1})) == "1 - q"
    assert str(lp({3: -1})) == "-q^3"


def random_laurent(rng, nonzero=False):
    while True:
        lo = rng.randint(-3, 1)
        p = lp({e: rng.randint(-4, 4) for e in range(lo, lo + rng.randint(1, 4))})
        if not (nonzero and p.is_zero):
            return p


def test_laurent_exact_div_recovers_factor():
    rng = random.Random(7)
    for _ in range(200):
        a = random_laurent(rng)
        b = random_laurent(rng, nonzero=True)
        assert laurent_exact_div(a * b, b) == a


def test_laurent_exact_div_refuses_inexact():
    with pytest.raises(ArithmeticError):
        laurent_exact_div(lp({0: 1, 1: 1}), lp({0: 2}))          # (1+q)/2
    with pytest.raises(ArithmeticError):
        laurent_exact_div(lp({0: 1, 2: 1}), lp({0: 1, 1: 1}))    # (1+q^2)/(1+q)


# ---------------------------------------------------------------------------
# Rational function canonical form


def test_ratfunc_division_cancels():
    # (q^2 - 1)/(q - 1) = q + 1
    num = RatFunc(lp({2: 1, 0: -1}))
    den = RatFunc(lp({1: 1, 0: -1}))
    r = num / den
    assert r.is_laurent
    assert r.as_laurent() == lp({0: 1, 1: 1})


def test_ratfunc_denominator_normalized_ordinary():
    # Laurent denominators are shifted into the numerator exponent.
    r = RatFunc(LP_ONE, lp({-2: 1, 0: 1}))  # 1/(q^-2 + 1) = q^2/(1 + q^2)
    assert str(r) == "(q^2)/(1 + q^2)"
    assert r * RatFunc(lp({-2: 1, 0: 1})) == ONE


def test_ratfunc_zero_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(LP_ONE, LP_ZERO)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_ratfunc_sign_normalization():
    # Leading denominator coefficient is forced positive.
    r = RatFunc(LP_ONE, lp({0: -1, 1: -1}))
    assert str(r) == "(-1)/(1 + q)"
    assert r == ONE / RatFunc(lp({0: -1, 1: -1}))


def test_ratfunc_arith_mixed_ints_fractions():
    r = Q + 1
    assert r == RatFunc(lp({0: 1, 1: 1}))
    assert 1 - Q == RatFunc(lp({0: 1, 1: -1}))
    assert Q * (ONE / 2) + Q * (ONE / 2) == Q
    assert (ONE / 2) + (ONE / 2) == ONE


def test_ratfunc_plus_zero_skips_the_canonical_form(monkeypatch):
    r = (Q + 2) / (Q ** 2 + 3)
    calls = []
    canonical = scalars._canonical.__wrapped__
    monkeypatch.setattr(scalars, "_canonical",
                        lambda num, den: calls.append(1) or canonical(num, den))
    for s in (r + ZERO, ZERO + r, r + 0, 0 + r, r - ZERO):
        assert s == r
        assert hash(s) == hash(r)
    assert calls == []


def test_ratfunc_pow_negative():
    r = Q + 1
    assert r**-1 == ONE / r
    assert r**-2 * r**2 == ONE
    assert ZERO**0 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


def test_ratfunc_subs_q_inverse_involution():
    r = (Q + 1) / (QINV + 3)
    assert r.subs_q_inverse().subs_q_inverse() == r
    assert Q.subs_q_inverse() == QINV


def test_ratfunc_is_flags():
    assert (Q + 1).is_laurent
    assert not (ONE / (Q + 1)).is_laurent
    assert Q.is_monomial
    assert not (Q + 1).is_monomial
    assert not TWO_THIRDS.is_laurent


TWO_THIRDS = RatFunc.from_int(2) / 3


def test_ratfunc_from_fraction():
    # a rational number is a quotient of integer scalars
    assert TWO_THIRDS * 3 == RatFunc.from_int(2)
    assert TWO_THIRDS == RatFunc(LaurentPoly.const(4), LaurentPoly.const(6))
    assert str(TWO_THIRDS) == "(2)/(3)"


def test_fractions_fraction_is_refused_both_ways():
    # a scalar meets only RatFunc, LaurentPoly and int operands
    assert (ONE == Fraction(1)) is False
    assert (Fraction(1) == ONE) is False
    assert ONE != Fraction(1)
    with pytest.raises(TypeError):
        ONE + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * Q
    assert len({ONE, Fraction(1)}) == 2


# ---------------------------------------------------------------------------
# q-combinatorics


def test_q_int_examples():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3) == RatFunc(lp({0: 1, 1: 1, 2: 1}))
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_examples():
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE
    assert q_factorial(3) == q_int(2) * q_int(3)


def test_q_binomial_edges_and_example():
    for n in range(7):
        assert q_binomial(n, 0) == ONE
        assert q_binomial(n, n) == ONE
    assert q_binomial(3, 1) == q_int(3)
    assert q_binomial(4, 2) == RatFunc(lp({0: 1, 1: 1, 2: 2, 3: 1, 4: 1}))
    assert q_binomial(3, 5) == ZERO


def q_pascal(top):
    """Every [n choose k]_q with n <= top, by the q-Pascal rule."""
    table = {(0, 0): ONE}
    for n in range(1, top + 1):
        table[n, 0] = ONE
        for k in range(1, n + 1):
            table[n, k] = table.get((n - 1, k - 1), ZERO) + q_power(k) * table.get(
                (n - 1, k), ZERO
            )
    return table


def test_q_pascal_oracle():
    # Independent recursion pinning down every q_binomial up to n = 12.
    for (n, k), v in q_pascal(12).items():
        assert q_binomial(n, k) == v


def test_q_factorial_table():
    # the cached [n]_q! against the product formula
    # (1-q)(1-q^2)...(1-q^n) / (1-q)^n, on a miss and on a hit, and the
    # q-binomials read from the table against the q-Pascal rule
    scalars._q_factorial.cache_clear()
    for n in range(20):
        product = LP_ONE
        for i in range(1, n + 1):
            product = product * lp({0: 1, i: -1})
        power = LP_ONE
        for _ in range(n):
            power = power * lp({0: 1, 1: -1})
        expected = laurent_exact_div(product, power)
        miss = q_factorial(n)
        assert miss == expected and q_factorial(n) is miss
    info = scalars._q_factorial.cache_info()
    assert (info.hits, info.misses) == (20, 20)
    for (n, k), v in q_pascal(18).items():
        assert q_binomial(n, k) == v
    assert info.maxsize == scalars.Q_FACTORIAL_CACHE_SIZE == 256
    # a cached n does not admit an equal value of another type
    for bad in (1.0, 3.0, -1, "3"):
        with pytest.raises(ValueError):
            q_factorial(bad)


def test_inversion_identities():
    # The three q -> q^-1 relations, exactly.
    for n in range(13):
        assert q_int(n).subs_q_inverse() == q_power(-(n - 1)) * q_int(n)
        assert q_factorial(n).subs_q_inverse() == q_power(
            -(n * (n - 1) // 2)
        ) * q_factorial(n)
        for k in range(n + 1):
            assert q_binomial(n, k).subs_q_inverse() == q_power(
                -k * (n - k)
            ) * q_binomial(n, k)


def test_q_int_sym_examples():
    assert q_int_sym(0) == ZERO
    assert q_int_sym(1) == ONE
    assert q_int_sym(4) == RatFunc(lp({-3: 1, -1: 1, 1: 1, 3: 1}))
    assert q_int_sym(-3) == q_int_sym(3)
    assert q_int_sym(-4) == -q_int_sym(4)


def test_q_int_sym_defining_identity():
    # The quotient formula pins down nonnegative arguments; negative
    # arguments follow the sign rule [-n] = (-1)^(n+1) [n] instead.
    for n in range(13):
        assert q_int_sym(n) * (QINV - Q) == q_power(-n) - q_power(n)
    for n in range(1, 13):
        assert q_int_sym(-n) == q_int_sym(n) * ((-1) ** (n + 1))


def test_q_int_sym_palindromic():
    for n in range(1, 13):
        v = q_int_sym(n).as_laurent()
        assert v.subs_q_inverse() == v


# ---------------------------------------------------------------------------
# Printing round trip


def random_ratfunc(rng):
    def poly():
        return lp({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))})

    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return RatFunc(num, den)


def test_print_parse_round_trip():
    D = build_weyl().double
    rng = random.Random(20260823)
    seen = [ZERO, ONE, Q, QINV, q_int(5), q_factorial(4), ONE / (Q + 1), -Q**3]
    seen.extend(random_ratfunc(rng) for _ in range(200))
    for r in seen:
        assert as_scalar(D, evaluate_text(D, str(r))) == r


def test_str_is_canonical_across_routes():
    # Equal values built along different routes print identically.
    a = (Q**2 - 1) / (Q - 1)
    b = Q + 1
    assert a == b
    assert str(a) == str(b)
    c = q_int(6) / q_int(3)
    d = RatFunc(lp({0: 1, 3: 1}))
    assert str(c) == str(d)


def test_hash_consistency():
    assert hash(Q + 1) == hash((Q**2 - 1) / (Q - 1))
    s = {ONE, Q, Q + 1, (Q**2 - 1) / (Q - 1)}
    assert len(s) == 3


@pytest.mark.parametrize("r, other", [
    (ONE, 1),
    (ZERO, 0),
    (RatFunc.from_int(-3), -3),
    (RatFunc.from_int(4) / 2, 2),
    (RatFunc.from_int(-1) / 2, RatFunc(LaurentPoly.const(2), LaurentPoly.const(-4))),
    (ONE, RatFunc(LP_ONE, LP_ONE)),
    (ONE, LP_ONE),
    (ZERO, LP_ZERO),
    (RatFunc.from_int(5), LaurentPoly.const(5)),
    (Q + 1, lp({0: 1, 1: 1})),
    (QINV, lp({-1: 1})),
])
def test_hash_agrees_with_equal_operands(r, other):
    assert r == other
    assert hash(r) == hash(other)
    assert other in {r} and r in {other}
    assert {r: "r"}[other] == "r"
    assert {other: "o"}[r] == "o"
    assert len({r, other}) == 1


# ---------------------------------------------------------------------------
# Work done: no arithmetic on a factor 1 or 0


def test_verify_multiplies_no_laurent_polynomial_by_one_or_zero(monkeypatch, capsys):
    # 1 and 0 decide a product without arithmetic, so none reaches the
    # Laurent kernel; a count independent of timing
    calls = []
    mul = LaurentPoly.__mul__

    def recording(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recording)
    config = Path(__file__).parent / "golden" / "lattice-i2.json"
    assert cli.main(["verify", "--instance", str(config), "--max-degree", "3"]) == 0
    assert capsys.readouterr().out.endswith("overall: pass\n")
    assert calls
    trivial = [(a, b) for a, b in calls if {a, b} & {LP_ONE, LP_ZERO}]
    assert trivial == []


# ---------------------------------------------------------------------------
# Interned constants: one object per small integer and per power of q


@pytest.mark.parametrize("n", [-1024, -7, -1, 0, 1, 2, 3, 10, 1024])
def test_from_int_is_interned(n):
    assert RatFunc.from_int(n) is RatFunc.from_int(n)
    assert RatFunc.from_int(n) == n


@pytest.mark.parametrize("e", [-1024, -3, -1, 1, 2, 1024])
def test_q_power_is_interned(e):
    assert q_power(e) is q_power(e)
    assert q_power(e) is RatFunc.q_power(e)
    assert q_power(e) == lp({e: 1})


def test_named_constants_are_the_interned_objects():
    assert RatFunc.from_int(0) is ZERO
    assert RatFunc.from_int(1) is ONE
    assert RatFunc.from_int(2) is TWO
    assert q_power(0) is ONE
    assert q_power(1) is Q
    assert q_power(-1) is QINV


def test_large_constants_are_equal_but_not_kept():
    # values read from input can be arbitrarily large: they stay correct
    # but do not grow the tables
    D = build_weyl().double
    ints, powers = len(scalars._INTS), len(scalars._POWERS)
    for v in (1025, -1025, 10**30):
        assert RatFunc.from_int(v) == RatFunc.from_int(v) == v
        assert q_power(v) == q_power(v) == lp({v: 1})
    assert as_scalar(D, evaluate_text(D, "123456789")) == 123456789
    assert (len(scalars._INTS), len(scalars._POWERS)) == (ints, powers)


def test_i2_coproduct_coefficients_of_equal_value_are_one_object():
    H = build_lattice(((1, 0), (0, 1))).plus
    first = {}
    seen = 0
    for a in H.labels_up_to(5):
        for c in H.coproduct(a).terms.values():
            assert first.setdefault(c, c) is c
            seen += 1
    assert seen > len(first) > 1

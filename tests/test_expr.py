"""Parser and evaluator tests for the expression grammar."""

import pytest

from heisdouble.double import smash_multiply
from heisdouble.expr import (
    ExprEvalError,
    ExprSyntaxError,
    as_scalar,
    evaluate_text,
    parse_expression,
    pure_minus,
    pure_plus,
    tokenize,
)
from heisdouble.hopf import BasisLabel, Element
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a, identity_form, mp_label
from heisdouble.scalars import ONE, Q, RatFunc, q_power


@pytest.fixture(scope="module")
def wd():
    return build_weyl().double


@pytest.fixture(scope="module")
def qd():
    return build_qheis(cartan_a(2)).double


@pytest.fixture(scope="module")
def ld():
    return build_lattice(identity_form(2)).double


def xel(n):
    return Element.from_label(BasisLabel(n, n))


# -- tokenizer -----------------------------------------------------------


def test_tokenize_word():
    toks = tokenize("d^2 * x")
    assert [(k, v) for k, v, _ in toks] == [
        ("name", "d"), ("sym", "^"), ("int", 2), ("sym", "*"),
        ("name", "x"), ("end", None)]


def test_tokenize_primed_name():
    toks = tokenize("p'[1,1]")
    assert toks[0][:2] == ("name", "p'")
    assert [v for _, v, _ in toks[1:5]] == ["[", 1, ",", 1]


def test_tokenize_offsets():
    toks = tokenize("ab + 12")
    assert [(v, pos) for _, v, pos in toks] == [("ab", 0), ("+", 3), (12, 5),
                                               (None, 7)]


def test_tokenize_rejects_stray_character():
    with pytest.raises(ExprSyntaxError) as e:
        tokenize("x $ y")
    assert e.value.offset == 2


# -- scalar parsing ------------------------------------------------------


def scalar(D, text):
    """The value of a scalar text, evaluated as a multiple of 1 # 1 in D."""
    return as_scalar(D, evaluate_text(D, text))


def test_parse_scalar_values(wd):
    assert scalar(wd, "q^2") == Q ** 2
    assert scalar(wd, "1 + q") == ONE + Q
    assert scalar(wd, "q^-1") == q_power(-1)
    assert scalar(wd, "-q^3 + 2") == RatFunc.from_int(2) - Q ** 3
    assert scalar(wd, "(1)/(1 + q)") == ONE / (ONE + Q)
    assert scalar(wd, "(2)/(3)") == RatFunc.from_int(2) / 3


def test_parse_scalar_precedence(wd):
    # exponentiation binds tighter than juxtaposition, which acts as *
    assert scalar(wd, "q^2 q") == Q ** 3
    assert scalar(wd, "2 q") == Q * 2
    assert scalar(wd, "1 + q*q") == ONE + Q ** 2
    assert scalar(wd, "-q^2") == -(Q ** 2)
    assert scalar(wd, "(1 + q)^2") == (ONE + Q) ** 2
    assert scalar(wd, "6/2/3") == ONE


def test_parse_scalar_round_trips_printed_forms(wd):
    for v in (Q ** 2 + ONE, ONE / (ONE + Q), -Q, q_power(-3) * 5,
              (ONE + Q) / (ONE - Q)):
        assert scalar(wd, str(v)) == v


def test_scalar_eval_errors(wd):
    assert scalar(wd, "x") is None  # a generator, not a scalar
    with pytest.raises(ExprEvalError, match="^division by zero at offset 0$"):
        scalar(wd, "1/0")
    with pytest.raises(ExprEvalError,
                       match="^zero raised to a negative power at offset 1$"):
        scalar(wd, "0^-1")


# -- syntax error offsets ------------------------------------------------


def test_syntax_error_offsets():
    cases = (("x +", 3), ("(q", 2), ("q^x", 2), ("", 0), ("q + + q", 4),
             ("p[1 2]", 4))
    for text, offset in cases:
        with pytest.raises(ExprSyntaxError) as e:
            parse_expression(text)
        assert e.value.offset == offset, text


def test_unicode_decimal_digits_are_integers():
    # '\u0663' (Arabic-Indic three) is a decimal digit; a superscript such as
    # '\u00b2' is not, and tests/test_cli.py sees it refused
    assert parse_expression("x^\u0663") == parse_expression("x^3")


def test_parenthesis_nesting_up_to_the_bound_parses(wd):
    # one level deeper is refused, as tests/test_cli.py sees
    assert evaluate_text(wd, "(" * 100 + "x" + ")" * 100) == evaluate_text(wd, "x")
    # the bound is on the depth, not on the number of parentheses
    assert evaluate_text(wd, "(x)" * 150) == evaluate_text(wd, "x^150")


def test_trailing_garbage_is_an_error():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("q )")
    assert e.value.offset == 2


# -- evaluation in a double context --------------------------------------


def test_evaluate_weyl_word(wd):
    u = evaluate_text(wd, "d*x")
    x = BasisLabel(1, 1)
    assert u.terms.get((x, x)) == Q
    assert u.terms.get((wd.plus.unit_label, wd.minus.unit_label)) == ONE
    assert evaluate_text(wd, "d x") == u


def test_evaluate_power_and_scalar_mix(wd):
    assert evaluate_text(wd, "x^2") == wd.embed_plus(xel(2))
    assert evaluate_text(wd, "q^2 x") == wd.embed_plus(xel(1)).scale(Q ** 2)
    assert evaluate_text(wd, "d^2 * x^2") == smash_multiply(
        wd, wd.embed_minus(xel(2)), wd.embed_plus(xel(2)))
    assert evaluate_text(wd, "x - x") == wd.unit().scale(RatFunc.from_int(0))


def test_evaluate_hash_is_product(wd):
    assert evaluate_text(wd, "x#d") == evaluate_text(wd, "x*d")


def test_evaluate_scalar_only_division(wd):
    assert evaluate_text(wd, "(1+q)/2") == wd.unit().scale((ONE + Q) / 2)
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "x/q")
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "x^-1")
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "x/0")


def test_evaluate_unknown_generator(wd):
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "y")
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "q[1]")


def test_evaluate_generator_arity_errors(wd, qd):
    with pytest.raises(ExprEvalError):
        evaluate_text(wd, "x[1]")
    with pytest.raises(ExprEvalError):
        evaluate_text(qd, "p[2]")
    with pytest.raises(ExprEvalError):
        evaluate_text(qd, "p[2,5]")


def test_evaluate_qheis_generators(qd):
    p21 = qd.embed_plus(Element.from_label(mp_label(((2,), ()))))
    assert evaluate_text(qd, "p[2,1]") == p21
    lhs = evaluate_text(qd, "p'[1,1]*p[1,2]")
    x = qd.embed_minus(Element.from_label(mp_label(((1,), ()))))
    a = qd.embed_plus(Element.from_label(mp_label(((), (1,)))))
    assert lhs == smash_multiply(qd, x, a)


def test_evaluate_h_generators_only_where_registered(qd, ld):
    assert not evaluate_text(qd, "h[2,1]").is_zero
    with pytest.raises(ExprEvalError):
        evaluate_text(ld, "h[2,1]")


def test_as_scalar_and_projections(wd):
    assert as_scalar(wd, evaluate_text(wd, "(1+q)^2")) == (ONE + Q) ** 2
    assert as_scalar(wd, wd.unit() - wd.unit()) == RatFunc.from_int(0)
    assert as_scalar(wd, wd.embed_plus(xel(1))) is None
    u = evaluate_text(wd, "x^2")
    assert pure_plus(wd, u) == xel(2)
    assert pure_minus(wd, u) is None
    v = evaluate_text(wd, "d^3")
    assert pure_minus(wd, v) == xel(3)
    assert pure_plus(wd, v) is None
    mixed = evaluate_text(wd, "d*x")
    assert pure_plus(wd, mixed) is None
    assert pure_minus(wd, mixed) is None


def test_printed_normal_forms_round_trip(wd, qd):
    for D, words in ((wd, ("d*x", "d^2 x^2", "x^3", "d^2")),
                     (qd, ("p'[1,1] p[1,1]", "p[2,1] p'[2,2]"))):
        for word in words:
            u = evaluate_text(D, word)
            assert evaluate_text(D, D.element_str(u)) == u

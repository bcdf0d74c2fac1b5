"""The printer does no scalar arithmetic and prints what the reference
printer in tests/oracles.py prints, byte for byte.

The reference compares each coefficient with ONE and with a negated ONE;
hopf.terms_str reads 1 and -1 off the canonical numerator instead.  Both
are run through the three entry points, D.element_str, hopf.element_str
and hopf.tensor_str, on random elements (every kind of coefficient; the
unit key alone, among other terms, or absent; the zero element) and on
every normal-order and antipode answer of both benchmark session pools.

D.element_str keeps the text it printed on the element, under D's printer
token: a repeat returns it without printing, another double prints afresh,
the text takes no part in == or hash, and it does not keep D alive.
"""

import gc
import weakref

import pytest

from heisdouble import double
from heisdouble.double import HeisenbergDouble
from heisdouble.expr import evaluate_text, pure_minus, pure_plus
from heisdouble.hopf import Element, antipode, element_str, tensor_str, terms_str
from heisdouble.instances import build_qheis, build_weyl, cartan_a
from heisdouble.scalars import ONE, LaurentPoly, RatFunc, q_power

from oracles import reference_double_str, reference_element_str, reference_tensor_str
from test_front_end import bench_instance, bench_pool

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)
DEGREE = 3  # largest degree of a label on each side

sign = st.sampled_from([1, -1])
nonzero = st.integers(-9, 9).filter(bool)
laurent = st.dictionaries(st.integers(-3, 3), nonzero, min_size=1, max_size=4)
coefficient = st.one_of(
    st.sampled_from([ONE, -ONE]),
    st.builds(lambda s, e: q_power(e) * s, sign, st.integers(-4, 4).filter(bool)),
    st.builds(lambda s, n: RatFunc.from_int(s * n), sign, st.integers(2, 40)),
    st.builds(lambda c: RatFunc(LaurentPoly(c)),
              st.dictionaries(st.integers(-3, 3), nonzero, min_size=2, max_size=4)),
    st.builds(lambda n, d: RatFunc(LaurentPoly(n), LaurentPoly(d)), laurent,
              st.dictionaries(st.integers(0, 3), nonzero, min_size=2, max_size=3))
    .filter(lambda c: not c.is_laurent),
)


def elements(keys, unit):
    """Elements on keys, with a unit term or none when unit is None: the
    unit key alone, among other terms, absent, and the zero element."""
    others = st.dictionaries(st.sampled_from(keys), coefficient, max_size=5)
    unit_coeff = st.none() if unit is None else st.one_of(st.none(), coefficient)

    def build(terms, c):
        if c is not None:
            terms[unit] = c
        return Element(terms)

    return st.builds(build, others, unit_coeff)


@pytest.fixture(scope="module", params=["weyl", "qheis-a2"])
def inst(request):
    return {"weyl": build_weyl, "qheis-a2": lambda: build_qheis(cartan_a(2))}[request.param]()


def test_double_matches_reference(inst):
    D = inst.double
    unit = (D.plus.unit_label, D.minus.unit_label)
    keys = [(a, x) for a in D.plus.labels_up_to(DEGREE)
            for x in D.minus.labels_up_to(DEGREE) if (a, x) != unit]

    @SETTINGS
    @given(elements(keys, unit))
    def check(u):
        assert D.element_str(u) == reference_double_str(D, u)

    check()


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_presentation_matches_reference(inst, side):
    H = getattr(inst, side)
    keys = H.labels_up_to(DEGREE)[1:]

    @SETTINGS
    @given(elements(keys, H.unit_label))
    def check(u):
        assert element_str(H, u) == reference_element_str(H, u)

    check()


def test_tensor_matches_reference(inst):
    # a tensor has no unit key: (1, 1) prints as a label pair like any other
    H = inst.plus
    labels = H.labels_up_to(DEGREE)
    keys = [(a, b) for a in labels for b in labels]

    @SETTINGS
    @given(elements(keys, None))
    def check(u):
        assert tensor_str(H, u) == reference_tensor_str(H, u)

    check()


def test_fixed_cases_match_reference():
    D = build_weyl().double
    H = D.plus
    one, one_minus = H.unit_label, D.minus.unit_label
    unit = (one, one_minus)
    x, d = H.basis(1)[0], D.minus.basis(1)[0]
    quotient = RatFunc(LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 3: -1}))
    cases = {
        "0": {},
        "1": {unit: ONE},
        "-1": {unit: -ONE},
        "1 + q": {unit: RatFunc(LaurentPoly({0: 1, 1: 1}))},
        "x#d - 1": {(x, d): ONE, unit: -ONE},
        "-q*x#d + 3*x - d + (1 + q)": {(x, d): -q_power(1), (x, one_minus): RatFunc.from_int(3),
                                       (one, d): -ONE,
                                       unit: RatFunc(LaurentPoly({0: 1, 1: 1}))},
        "(1 + q)/(-1 + q^3)*x + (-1 - q)/(-1 + q^3)": {(x, one_minus): -quotient,
                                                      unit: quotient},
    }
    for printed, terms in cases.items():
        u = Element(terms)
        assert D.element_str(u) == printed == reference_double_str(D, u)


def pool_answers(config):
    """Every normal-order and antipode answer of a benchmark pool, as
    (printer, reference printer, context, element) tuples; each printer
    takes the context and the element."""
    _, groups = bench_pool(config)
    inst = bench_instance(config)
    D = inst.double
    out = [(HeisenbergDouble.element_str, reference_double_str, D,
            evaluate_text(D, q.exprs[0]))
           for q in groups["normal-order"]]
    for q in groups["antipode"]:
        el = evaluate_text(D, q.exprs[0])
        a = pure_plus(D, el)
        H, u = (inst.plus, a) if a is not None else (inst.minus, pure_minus(D, el))
        out.append((element_str, reference_element_str, H, antipode(H, u)))
    return out


@pytest.fixture(scope="module")
def a2_answers():
    return pool_answers("qheis-a2")


@pytest.mark.parametrize("config", ["qheis-a2", "lattice-i2"])
def test_pool_answers_match_reference(config, a2_answers):
    answers = a2_answers if config == "qheis-a2" else pool_answers(config)
    for printer, reference, ctx, u in answers:
        assert printer(ctx, u) == reference(ctx, u)


def test_printing_does_no_scalar_arithmetic(a2_answers, monkeypatch):
    # each pass prints unprinted copies: D.element_str would otherwise
    # return the text kept on the element and print nothing
    def print_all():
        return [printer(ctx, Element._raw(u.terms)) for printer, _, ctx, u in a2_answers]

    expected = print_all()

    def refuse(*args):
        raise AssertionError("the printer did scalar arithmetic")

    printed = []

    def counted(*args, **kwargs):
        printed.append(args)
        return terms_str(*args, **kwargs)

    for name in ("__neg__", "__eq__", "__add__", "__mul__"):
        monkeypatch.setattr(RatFunc, name, refuse)
    monkeypatch.setattr(double, "terms_str", counted)
    assert print_all() == expected
    assert len(printed) == sum(p is HeisenbergDouble.element_str for p, _, _, _ in a2_answers)


def normal_order_answers(config):
    """A fresh instance's double and the element of every normal-order
    query of the benchmark pool for config, none of them printed yet."""
    _, groups = bench_pool(config)
    D = bench_instance(config).double
    return D, [evaluate_text(D, q.exprs[0]) for q in groups["normal-order"]]


@pytest.mark.parametrize("config", ["qheis-a2", "lattice-i2"])
def test_first_and_repeated_prints_match_reference(config):
    D, answers = normal_order_answers(config)
    expected = [reference_double_str(D, u) for u in answers]
    assert [D.element_str(u) for u in answers] == expected
    assert [D.element_str(u) for u in answers] == expected


def test_a_repeat_does_not_print(monkeypatch):
    D, answers = normal_order_answers("qheis-a2")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return terms_str(*args, **kwargs)

    monkeypatch.setattr(double, "terms_str", counted)
    first = [D.element_str(u) for u in answers]
    assert len(calls) == len(answers)
    calls.clear()
    assert [D.element_str(u) for u in answers] == first
    assert calls == []


def test_another_double_prints_afresh(monkeypatch):
    D = build_qheis(cartan_a(2)).double
    S = D.shifted(0)
    monkeypatch.setattr(S.plus, "label_text", lambda l: "<%s>" % D.plus.label_text(l))
    u = evaluate_text(D, "p'[2,1]*p[2,2]*p'[1,1]")
    text = D.element_str(u)
    assert text == reference_double_str(D, u)
    shifted_text = S.element_str(u)
    assert shifted_text == reference_double_str(S, u) != text
    assert "<p[2,2]>" in shifted_text
    assert S.element_str(u) == shifted_text
    assert D.element_str(u) == text


def test_the_text_takes_no_part_in_equality_or_hash():
    D = build_weyl().double
    u = evaluate_text(D, "d^2*x^2 - 3*q*x")
    copy = Element(dict(u.terms))
    D.element_str(u)
    assert u._text[0] is D._printer
    assert not hasattr(copy, "_text")
    assert u == copy and copy == u
    assert hash(u) == hash(copy)
    assert len({u, copy}) == 1


def test_a_printed_element_does_not_keep_its_double_alive():
    for text in ("p'[2,1]*p[2,2]", "h'[2,1]*h[2,2]"):
        inst = build_qheis(cartan_a(2))
        D = inst.double
        u = evaluate_text(D, text)
        assert D.element_str(u) == reference_double_str(D, u)
        gone = weakref.ref(D)
        del inst, D
        gc.collect()
        assert gone() is None
        assert u._text[1]

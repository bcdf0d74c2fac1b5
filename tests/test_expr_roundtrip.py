"""Printed normal forms parse back to themselves: for random normal-form
elements of the qheis A2 and lattice I2 doubles, with random rational
coefficients, ``evaluate_text(D, D.element_str(u)) == u``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from heisdouble.expr import evaluate_text  # noqa: E402
from heisdouble.hopf import Element  # noqa: E402
from heisdouble.instances import (build_lattice, build_qheis,  # noqa: E402
                                  cartan_a, identity_form)
from heisdouble.scalars import LaurentPoly, RatFunc  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None)
DEGREE = 3  # largest total degree on each side of a term

BUILDERS = {
    "qheis-a2": lambda: build_qheis(cartan_a(2)),
    "lattice-i2": lambda: build_lattice(identity_form(2)),
}

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-6, 6),
                          max_size=3).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero)
coefficient = st.builds(RatFunc, laurent, nonzero_laurent)


def normal_forms(D):
    pairs = [(a, x) for a in D.plus.labels_up_to(DEGREE)
             for x in D.minus.labels_up_to(DEGREE)]
    return st.dictionaries(st.sampled_from(pairs), coefficient,
                           max_size=4).map(Element)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_printed_normal_form_parses_back(name):
    D = BUILDERS[name]().double

    @SETTINGS
    @given(normal_forms(D))
    def check(u):
        assert evaluate_text(D, D.element_str(u)) == u

    check()

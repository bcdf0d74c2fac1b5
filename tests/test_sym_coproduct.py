"""The coproduct kernel of the qheis and lattice presentations, read from
per-color split tables, against tests/oracles.sym_coproduct, which builds
each term from sub_multisets and difference: the same terms with the same
coefficients, in the same order.
"""

import pytest

from heisdouble.instances import _sym_presentation, mp_label
from heisdouble.partitions import multipartitions_of
from oracles import sym_coproduct


def assert_kernel_agrees(mp):
    label = mp_label(mp)
    kernel = _sym_presentation("t", len(mp), "p")._coproduct_fn(label)
    assert list(kernel.terms.items()) == list(sym_coproduct(label).terms.items())


@pytest.mark.parametrize("ncolors", [1, 2, 3])
def test_kernel_agrees_with_oracle_up_to_total_eight(ncolors):
    for n in range(9):
        for mp in multipartitions_of(n, ncolors):
            assert_kernel_agrees(mp)


def test_kernel_agrees_with_oracle_on_random_multipartitions():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    partition = st.lists(st.integers(1, 6), max_size=5).map(
        lambda parts: tuple(sorted(parts, reverse=True)))
    multipartition = st.integers(1, 3).flatmap(
        lambda ncolors: st.tuples(*[partition] * ncolors))

    @settings(max_examples=80, deadline=None)
    @given(multipartition)
    def check(mp):
        assert_kernel_agrees(mp)

    check()

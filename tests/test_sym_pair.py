"""The Gram values of the qheis and lattice instances.

instances.sym_pair takes each permanent over the rows with the remaining
count of each column color as state; tests/oracles.sym_pair_perm sums over
every permutation.  They are compared on random integer color matrices that
are not symmetric, so a route that read a plus color as a row would differ.
Each instance builds its Gram rows on a support, the plus labels with the
uncolored partition of the minus label; a pairing with the same Gram
callable and no support scans the whole degree, and must give the same rows.
"""

import pytest

from heisdouble.instances import (build_lattice, build_qheis, cartan_a, lattice_factor,
                                  q_factor, rank_one_form, sym_pair, zero_form)
from heisdouble.pairing import TwistedPairing
from heisdouble.scalars import RatFunc
from oracles import cartan_affine_d4, sym_pair_perm

VALUES = (1, 2, 3)


def matrix_factor(matrices):
    """factor(k, i, j) = matrices[k][i - 1][j - 1], an integer."""
    return lambda k, i, j: RatFunc.from_int(matrices[k][i - 1][j - 1])


def colored(parts, colors, ncolors):
    """The multipartition with parts[t] in color colors[t]."""
    mp = [[] for _ in range(ncolors)]
    for k, i in zip(parts, colors):
        mp[i - 1].append(k)
    return tuple(tuple(sorted(lam, reverse=True)) for lam in mp)


def test_recursion_agrees_with_permutation_sum():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    # up to 6 parts of each value, at most 8 in all, so the oracle stays
    # under 6! 2! leaves
    counts = st.tuples(*[st.integers(0, 6)] * len(VALUES)).filter(
        lambda c: sum(c) <= 8)

    @st.composite
    def case(draw):
        ncolors = draw(st.integers(1, 3))
        parts = [k for k, c in zip(VALUES, draw(counts)) for _ in range(c)]
        color = st.integers(1, ncolors)
        minus = colored(parts, draw(st.lists(color, min_size=len(parts),
                                             max_size=len(parts))), ncolors)
        plus_parts = list(parts)
        if plus_parts and draw(st.booleans()):
            # one part of another value (or the same): mismatched values
            t = draw(st.integers(0, len(plus_parts) - 1))
            plus_parts[t] = draw(st.integers(1, len(VALUES) + 1))
        plus = colored(plus_parts, draw(st.lists(color, min_size=len(parts),
                                                 max_size=len(parts))), ncolors)
        entry = st.integers(-2, 2)
        matrices = {k: draw(st.lists(st.lists(entry, min_size=ncolors,
                                              max_size=ncolors),
                                     min_size=ncolors, max_size=ncolors))
                    for k in range(1, len(VALUES) + 2)}
        return minus, plus, matrices

    # <p'[1,1] p'[1,1] p'[1,2], p[1,1] p[1,2] p[1,2]> reads factor(1, i, j)
    # with i the minus color: 246, and 574 with rows and columns swapped
    @example(case=(((1, 1), (1,)), ((1,), (1, 1)),
                   {k: [[2, 3], [7, 5]] for k in range(1, 5)}))
    @settings(max_examples=150, deadline=None)
    @given(case())
    def check(case):
        minus, plus, matrices = case
        f = matrix_factor(matrices)
        assert sym_pair(f, minus, plus) == sym_pair_perm(f, minus, plus)

    check()


def test_recursion_worked_example():
    # rows (minus colors) 1, 1, 2 and columns (plus colors) 1, 2, 2 of
    # F = [[2, 3], [7, 5]]: the color-1 column goes to the color-2 row,
    # 7 * 3 * 3, or to either color-1 row, 2 * 3 * 5, and the two color-2
    # columns to the other rows in 2! ways: 2 (63 + 2 * 30) = 246
    f = matrix_factor({1: [[2, 3], [7, 5]]})
    assert sym_pair(f, ((1, 1), (1,)), ((1,), (1, 1))) == RatFunc.from_int(246)
    # the transposed reading: 2 (3 * 7 * 7 + 2 * 2 * 7 * 5) = 574
    assert sym_pair(f, ((1,), (1, 1)), ((1, 1), (1,))) == RatFunc.from_int(574)


SUPPORTED = {
    "qheis-a2": (lambda: build_qheis(cartan_a(2)), 6),
    "lattice-i2": (lambda: build_lattice(((1, 0), (0, 1))), 6),
    "qheis-d4-affine": (lambda: build_qheis(cartan_affine_d4()), 3),
    "lattice-rank-one": (lambda: build_lattice(rank_one_form(2)), 4),
    "lattice-zero": (lambda: build_lattice(zero_form(2)), 4),
}


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_supported_rows_equal_the_full_scan(name):
    build, N = SUPPORTED[name]
    inst = build()
    P = inst.pairing
    full = TwistedPairing(P.minus, P.plus, P.gamma, P._gram_fn, name="full")
    f = (q_factor(inst.meta["cartan"]) if inst.kind == "qheis"
         else lattice_factor(inst.meta["form"]))
    for x in P.minus.labels_up_to(N):
        row = P.row(x)
        assert list(row.items()) == list(full.row(x).items())
        for a, v in row.items():
            assert v == sym_pair_perm(f, x.key, a.key)


def test_shifted_pairing_shares_the_support():
    D = build_qheis(cartan_a(2)).double
    S = D.shifted(1)
    assert S.pairing._support is D.pairing._support

"""Fraction-free determinants on both scalar routes, against the Leibniz
expansion over RatFunc."""

from itertools import permutations

import pytest

from heisdouble.linalg import det_bareiss
from heisdouble.scalars import ONE, Q, ZERO, RatFunc

# Entries with non-constant denominators: 1/(1+q) and q/(1-q^2).
A = ONE / (ONE + Q)
B = Q / (ONE - Q * Q)
TWO = RatFunc.from_int(2)


def leibniz_det(m):
    n = len(m)
    total = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def rational(m):
    return not all(v.den.is_constant for row in m for v in row)


RATIONAL = {
    "3x3": [[A, Q, ONE],
            [B, TWO, A],
            [Q * Q, B, ONE - Q]],
    # Rows 2 and 3 already vanish in column 0, and row 3 in column 1 too,
    # so the elimination passes rows that only scale.
    "4x4": [[A, ONE, B, Q],
            [ZERO, B, Q, A],
            [ZERO, ZERO, A + B, TWO],
            [Q, ONE - Q, ONE, B]],
    "zero leading pivot": [[ZERO, A, ONE],
                           [B, Q, TWO],
                           [ONE, ZERO, A * B]],
    "4x4 zero leading pivot": [[ZERO, ONE, A, B],
                               [A, ZERO, Q, ONE],
                               [ZERO, B, ONE, ZERO],
                               [ONE, A, ZERO, Q]],
    "singular": [[A, B, ONE],
                 [Q, ONE, A],
                 [A + Q, B + ONE, ONE + A]],
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_det_bareiss_rational_entries_match_leibniz(name):
    m = RATIONAL[name]
    assert rational(m)
    assert det_bareiss(m) == leibniz_det(m)


def test_det_bareiss_singular_rational_is_zero():
    assert det_bareiss(RATIONAL["singular"]) == ZERO


def test_det_bareiss_constant_denominators_match_leibniz():
    half = ONE / 2
    m = [[half, Q / 3, ONE],
         [ZERO, Q ** -1, TWO * Q],
         [ONE - Q, half * Q, ZERO]]
    assert not rational(m)
    assert det_bareiss(m) == leibniz_det(m)


def test_det_bareiss_does_not_modify_its_input():
    m = RATIONAL["zero leading pivot"]
    copy = [list(r) for r in m]
    det_bareiss(m)
    assert m == copy

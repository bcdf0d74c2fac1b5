"""Exact linear algebra over Q(q): fraction-free determinants, the block
structure of a sparse matrix, and ranks."""

from __future__ import annotations

from math import gcd
from operator import mul, truediv

from .scalars import LP_ONE, LP_ZERO, ONE, ZERO, RatFunc, laurent_exact_div, laurent_mul


def det_bareiss(rows):
    """Determinant of a square matrix of RatFunc entries.

    Bareiss one-step fraction-free elimination: every division is exact, so
    intermediate entries stay small and the result is exact.  Denominator-free
    matrices run entirely on Laurent polynomials, where exact division skips
    the gcd reduction of general scalar arithmetic.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return ONE
    if all(v.den.is_constant for r in rows for v in r):
        # Constant denominators clear by row scaling; det(scaled)/factor.
        factor = 1
        scaled = []
        for r in rows:
            c = 1
            for v in r:
                d = v.den.coeff(0)
                c = c * d // gcd(c, d)
            factor *= c
            scaled.append([(v * c).as_laurent() for v in r])
        return RatFunc(_bareiss(scaled, LP_ONE, LP_ZERO, laurent_mul,
                                laurent_exact_div)) / factor
    return _bareiss([list(r) for r in rows], ONE, ZERO, mul, truediv)


def components(rows):
    """Connected components of the matrix's nonzero pattern, as (row
    indices, column indices) pairs; a zero row or column is a component on
    its own.

    Rows and columns joined by a nonzero entry lie in one component, so up
    to a permutation the matrix is block-diagonal in these components.  It
    is singular exactly when some component is not square or has a zero
    determinant.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("components require a rectangular matrix")
    parent = list(range(n + ncols))  # union-find: rows 0..n-1, then columns

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not v.is_zero:
                a, b = find(i), find(n + j)
                if a != b:
                    parent[b] = a
    groups = {}
    for x in range(n + ncols):
        r, c = groups.setdefault(find(x), ([], []))
        if x < n:
            r.append(x)
        else:
            c.append(x - n)
    return list(groups.values())


def _bareiss(m, one, zero, mul, div):
    """Determinant of the square matrix m (n >= 1), eliminated in place.

    one and zero are the ring's constants, mul(a, b) its product and
    div(a, b) its exact division, skipped while the previous pivot is still
    one; a row whose pivot-column entry is already zero only scales.
    """
    n = len(m)
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                v = mul(row[j], pivot)
                if not lead.is_zero:
                    v = v - mul(lead, m[k][j])
                row[j] = v if prev is one else div(v, prev)
            row[k] = zero
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sparse_rank(rows):
    """Rank of a list of sparse rows (dicts column -> RatFunc) over Q(q)."""
    pivots = []  # (column, normalized row)
    rank = 0
    for row in rows:
        r = {c: v for c, v in row.items() if not v.is_zero}
        for col, prow in pivots:
            v = r.get(col)
            if v is not None:
                for c2, v2 in prow.items():
                    s = r.get(c2, ZERO) - v * v2
                    if s.is_zero:
                        r.pop(c2, None)
                    else:
                        r[c2] = s
        if not r:
            continue
        col = min(r)
        inv = ONE / r[col]
        r = {c: v * inv for c, v in r.items()}
        pivots.append((col, r))
        rank += 1
    return rank

"""Exact linear algebra over Q(q): fraction-free determinants, the block
structure of a sparse matrix, and ranks, each "nonzero" or "full" verdict
certified first by specialization to F_p.

The certificate.  Let P = 2^61 - 1, a prime, and Q0 a fixed nonzero residue
mod P.  The map phi: Z[q,q^-1] -> F_p, q -> Q0, is a ring homomorphism, and
it extends to the ring R of the a/b in Q(q) with phi(b) != 0, by
phi(a/b) = phi(a) phi(b)^-1.  A RatFunc num/den is in lowest terms, and by
Gauss's lemma den divides the denominator of every other way of writing the
same value, so the value lies in R exactly when phi(den) != 0.  specialize
returns phi(v), or None outside R.

A determinant is a polynomial in the entries, and so is every minor, so
for a matrix M over R, phi(det M) = det phi(M) and each minor of phi(M) is
the image of the same minor of M.  Hence:

  * det phi(M) != 0 implies det M != 0, so det_image certifies a
    nonsingular matrix;
  * a nonzero minor of phi(M) is the image of a nonzero minor of M, so
    rank phi(M) <= rank M, and a full image rank certifies a full rank
    (rank_image).

Neither inference runs backwards, so callers take the image first and fall
back to the exact routine (det_bareiss, sparse_rank) whenever the image is
inconclusive: a zero image determinant, an image rank below the number of
rows, or None.  The exact routine then decides the verdict and builds the
witness, so every verdict is the exact one whatever Q0 is; Q0 decides only
how often the fallback runs.  A nonzero det M = a/b maps to 0 only when Q0
is a root of a mod P, or P divides the content of a; a has at most d roots
mod P for d its degree span, so for Q0 drawn at random the fallback runs
with probability at most d/P (Schwartz 1980, Zippel 1979).  Q0 is fixed
instead, so that output is deterministic, and it is a primitive root mod P:
Q0^k != 1 for 0 < k < P - 1, so no cyclotomic polynomial of index below
P - 1 vanishes at Q0, and no q-integer [k] with 0 < k < (P - 1)/2 does.
On the shipped instances no certificate falls back (tests/test_linalg.py
counts).
"""

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


P = (1 << 61) - 1
Q0 = 1234567890123


def specialize(v, powers):
    """The image of the RatFunc v in F_p at q = Q0, as an int in [0, P), or
    None when its denominator vanishes there.  powers caches Q0^e mod P by
    exponent e, for one caller's run of entries."""
    if v.den is LP_ONE:
        return _laurent_image(v.num, powers)
    d = _laurent_image(v.den, powers)
    return _laurent_image(v.num, powers) * pow(d, -1, P) % P if d else None


def _laurent_image(lp, powers):
    total = 0
    for e, c in lp.items():
        w = powers.get(e)
        if w is None:
            w = powers[e] = pow(Q0, e, P)
        total += c * w
    return total % P


def det_image(rows):
    """The determinant of a square RatFunc matrix mapped to F_p at q = Q0
    (see the module docstring), or None when some denominator vanishes
    there.  A nonzero value proves det_bareiss(rows) nonzero."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    powers = {}
    m = []
    for r in rows:
        row = [specialize(v, powers) for v in r]
        if None in row:
            return None
        m.append(row)
    det = 1
    for k in range(n):
        for i in range(k, n):
            if m[i][k]:
                break
        else:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            det = -det
        pivot = m[k]
        det = det * pivot[k] % P
        inv = pow(pivot[k], -1, P)
        for row in m[k + 1:]:
            f = row[k] * inv % P
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] - f * pivot[j]) % P
    return det % P


def rank_image(rows):
    """The rank of a list of sparse rows (dicts column -> RatFunc) mapped to
    F_p at q = Q0 (see the module docstring), or None when some denominator
    vanishes there.  It is at most sparse_rank(rows), so a value equal to
    len(rows) proves the rows independent over Q(q)."""
    powers = {}
    pivots = []  # (column, row with 1 at that column), as in sparse_rank
    for row in rows:
        r = {}
        for c, v in row.items():
            x = specialize(v, powers)
            if x is None:
                return None
            if x:
                r[c] = x
        for col, prow in pivots:
            f = r.get(col)
            if f:
                for c2, v2 in prow.items():
                    s = (r.get(c2, 0) - f * v2) % P
                    if s:
                        r[c2] = s
                    else:
                        r.pop(c2, None)
        if r:
            col = min(r)
            inv = pow(r[col], -1, P)
            pivots.append((col, {c: v * inv % P for c, v in r.items()}))
    return len(pivots)


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

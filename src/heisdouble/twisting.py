"""Degree lattices, biadditive twisting maps, and twisting calculus.

Degrees are integer tuples of a fixed rank r (nonnegative entries for the
one-sided algebras, arbitrary sign inside the double).  A biadditive map is
determined by its integer matrix M on the standard generators via
B(lam, mu) = lam^T M mu; twisting data are pairs (B', B'') of such maps.
"""

from __future__ import annotations

from dataclasses import dataclass


def deg_zero(rank):
    return (0,) * rank


def deg_add(a, b):
    if len(a) != len(b):
        raise ValueError("degree rank mismatch: %r vs %r" % (a, b))
    return tuple(x + y for x, y in zip(a, b))


def deg_sub(a, b):
    if len(a) != len(b):
        raise ValueError("degree rank mismatch: %r vs %r" % (a, b))
    return tuple(x - y for x, y in zip(a, b))


def deg_total(a):
    return sum(a)


class BiadditiveMap:
    """Biadditive integer form on the degree lattice, stored as a matrix."""

    __slots__ = ("rows", "_nonzero")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if any(not isinstance(v, int) or isinstance(v, bool)
               for row in rows for v in row):
            raise TypeError("biadditive map entries must be integers")
        r = len(rows)
        if any(len(row) != r for row in rows):
            raise ValueError("biadditive map matrix must be square")
        self.rows = rows
        self._nonzero = tuple((i, j, v) for i, row in enumerate(rows)
                              for j, v in enumerate(row) if v)

    @classmethod
    def zero(cls, rank):
        return cls(((0,) * rank,) * rank)

    @classmethod
    def ones(cls, rank):
        return cls(((1,) * rank,) * rank)

    @property
    def rank(self):
        return len(self.rows)

    def evaluate(self, lam, mu):
        """lam^T M mu for degree tuples lam, mu."""
        r = len(self.rows)
        if len(lam) != r or len(mu) != r:
            raise ValueError(
                "degree rank mismatch: map has rank %d, degrees %r, %r" % (r, lam, mu))
        total = 0
        for i, j, v in self._nonzero:
            total += v * lam[i] * mu[j]
        return total

    def transpose(self):
        return BiadditiveMap(tuple(zip(*self.rows)))

    def __add__(self, other):
        if not isinstance(other, BiadditiveMap):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch in biadditive map sum")
        return BiadditiveMap(tuple(tuple(a + b for a, b in zip(r1, r2))
                                   for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, BiadditiveMap):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BiadditiveMap(tuple(tuple(-a for a in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, BiadditiveMap):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.rows) + "]"

    def __repr__(self):
        return "BiadditiveMap(%s)" % (self.rows,)


@dataclass(frozen=True)
class TwistingDatum:
    """A pair (prime, doubleprime) of biadditive maps of equal rank."""

    prime: BiadditiveMap
    doubleprime: BiadditiveMap

    def __post_init__(self):
        if self.prime.rank != self.doubleprime.rank:
            raise ValueError("twisting datum components must share a rank")

    @classmethod
    def zero(cls, rank):
        return cls(BiadditiveMap.zero(rank), BiadditiveMap.zero(rank))

    @property
    def rank(self):
        return self.prime.rank

    def __str__(self):
        return "(%s, %s)" % (self.prime, self.doubleprime)


def dual_twisting(chi, gamma):
    """Twisting datum of the graded dual of an algebra twisted by chi,
    relative to a pairing twisted by gamma.

    xi' = (chi')^T + gamma' - (gamma'')^T and xi'' = chi'' + gamma' - gamma''.
    """
    xi_p = chi.prime.transpose() + gamma.prime - gamma.doubleprime.transpose()
    xi_pp = chi.doubleprime + gamma.prime - gamma.doubleprime
    return TwistingDatum(xi_p, xi_pp)


def compatibility_check(chi, gamma):
    """Whether chi' = -(gamma')^T, the condition for the double to close."""
    return chi.prime == -gamma.prime.transpose()

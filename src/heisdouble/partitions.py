"""Partitions, colored multipartitions, and their combinatorial accessors.

A partition is a tuple of weakly decreasing positive integers; a
multipartition is a tuple of partitions, one per color.  Colors are
1-based.  The colored sequence of a multipartition lists its (part, color)
pairs in ascending lexicographic order; it determines the multipartition and
drives the canonical basis order of the symmetric-algebra instances.

The coproduct of a colored power sum p_lam splits each color lam_i into a
sub-multiset mu_i and its complement.  split_table(lam_i) lists these
splits with their sizes and counts, once per partition and cached (there
are 139 partitions of n <= 10), and mp_sub_multisets runs over the product
of a multipartition's tables, so a coproduct term costs no multiset
difference and no degree sum.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct
from math import comb, prod


def check_partition(lam):
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam):
        raise ValueError("partition parts must be positive: %r" % (lam,))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing: %r" % (lam,))
    return lam


def multiplicities(lam):
    """Dict part value -> multiplicity, keys descending."""
    out = {}
    for x in lam:
        out[x] = out.get(x, 0) + 1
    return out


def union(lam, mu):
    """Multiset union of two partitions."""
    out = list(lam) + list(mu)
    out.sort(reverse=True)
    return tuple(out)


def difference(lam, mu):
    """Multiset difference lam minus mu; error when mu is not contained."""
    out = list(lam)
    for x in mu:
        try:
            out.remove(x)
        except ValueError:
            raise ValueError("%r is not a sub-multiset of %r" % (mu, lam)) from None
    return tuple(out)


def partitions_of(n):
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(maxpart, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def sub_multisets(lam):
    """All sub-multisets mu of lam with the count of ways to choose them.

    Yields (mu, m) where m = prod over part values k of C(m_k(lam), m_k(mu)),
    the coefficient with which mu x (lam - mu) occurs in the coproduct of a
    power-sum monomial.
    """
    mults = sorted(multiplicities(lam).items(), reverse=True)
    values = [k for k, _ in mults]
    ranges = [range(m + 1) for _, m in mults]
    for pick in iproduct(*ranges):
        mu = []
        ways = 1
        for (k, m), c in zip(mults, pick):
            mu.extend([k] * c)
            ways *= comb(m, c)
        yield tuple(mu), ways


# -- multipartitions ----------------------------------------------------


def mp_empty(ncolors):
    return ((),) * ncolors


def mp_union(mp1, mp2):
    if len(mp1) != len(mp2):
        raise ValueError("multipartition color counts differ")
    return tuple(union(a, b) for a, b in zip(mp1, mp2))


def colored_sequence(mp):
    """(part, color) pairs sorted ascending; the canonical sort key."""
    seq = []
    for i, lam in enumerate(mp, start=1):
        for x in lam:
            seq.append((x, i))
    seq.sort()
    return tuple(seq)


def mp_shape(mp):
    """The uncolored partition of a multipartition: all its parts,
    decreasing."""
    return tuple(sorted((x for lam in mp for x in lam), reverse=True))


def multipartitions_of(n, ncolors):
    """All multipartitions of total size n, sorted by colored sequence."""
    out = []

    def rec(i, remaining, prefix):
        if i == ncolors:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if i == ncolors - 1:
            for lam in partitions_of(remaining):
                prefix.append(lam)
                rec(i + 1, 0, prefix)
                prefix.pop()
            return
        for s in range(remaining + 1):
            for lam in partitions_of(s):
                prefix.append(lam)
                rec(i + 1, remaining - s, prefix)
                prefix.pop()

    rec(0, n, [])
    out.sort(key=colored_sequence)
    return out


@cache
def split_table(lam):
    """The split table of the partition lam: the tuples (mu, lam - mu, |mu|,
    ways) over sub_multisets(lam), in its order.  Made once per partition,
    so a coproduct reads its splits instead of computing differences."""
    return tuple((mu, difference(lam, mu), sum(mu), ways)
                 for mu, ways in sub_multisets(lam))


def mp_sub_multisets(mp):
    """Sub-multipartitions of mp, color by color, from the split tables of
    its colors: yields (mu, mp - mu, |mu|, ways), where |mu| is the total
    size of mu and ways is the product of the colors' counts.  mp has at
    least one color."""
    for combo in iproduct(*map(split_table, mp)):
        mu, rest, sizes, ways = zip(*combo)
        yield mu, rest, sum(sizes), prod(ways)

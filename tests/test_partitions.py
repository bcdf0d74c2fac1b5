"""Integer partitions, multipartitions, and their multiset operations."""

from math import comb

import pytest

from heisdouble.partitions import (
    check_partition,
    colored_sequence,
    difference,
    mp_empty,
    mp_sub_multisets,
    mp_union,
    multipartitions_of,
    multiplicities,
    partitions_of,
    split_table,
    sub_multisets,
    union,
)
from oracles import mp_remove_part, remove_part

# Partition numbers p(0)..p(10).
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_check_partition():
    check_partition(())
    check_partition((3, 2, 2, 1))
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_size_length_multiplicity():
    lam = (4, 2, 2, 1)
    m = multiplicities(lam)
    assert m == {4: 1, 2: 2, 1: 1}
    assert list(m) == [4, 2, 1]
    assert sum(k * c for k, c in m.items()) == 9
    assert sum(m.values()) == 4
    assert multiplicities(()) == {}


def test_add_remove_part():
    assert union((3, 1), (2,)) == (3, 2, 1)
    assert union((), (5,)) == (5,)
    assert remove_part((3, 2, 1), 2) == (3, 1)
    with pytest.raises(ValueError):
        remove_part((3, 1), 2)


def test_union_difference():
    assert union((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert union((), (2,)) == (2,)
    assert difference((3, 2, 1, 1), (2, 1)) == (3, 1)
    with pytest.raises(ValueError):
        difference((3, 1), (2,))


def test_partitions_of_counts_and_order():
    for n, count in enumerate(PARTITION_COUNTS):
        parts = partitions_of(n)
        assert len(parts) == count
        assert len(set(parts)) == count
        for lam in parts:
            check_partition(lam)
            assert sum(lam) == n
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_sub_multisets():
    out = dict(sub_multisets((2, 1, 1)))
    # Sub-multisets of {2, 1, 1} with binomial counting of choices.
    assert out == {
        (): 1,
        (1,): 2,
        (1, 1): 1,
        (2,): 1,
        (2, 1): 2,
        (2, 1, 1): 1,
    }
    assert dict(sub_multisets(())) == {(): 1}
    lam = (3, 2, 2, 1, 1, 1)
    for mu, ways in sub_multisets(lam):
        expected = 1
        for k, m in multiplicities(lam).items():
            expected *= comb(m, mu.count(k))
        assert ways == expected


def test_multipartition_basics():
    assert mp_empty(3) == ((), (), ())
    assert mp_union(mp_empty(2), ((3, 1), (2,))) == ((3, 1), (2,))


def test_mp_add_remove_union():
    mp = mp_union(mp_empty(2), ((3,), (1,)))
    assert mp_remove_part(mp, 3, 1) == ((), (1,))
    with pytest.raises(ValueError):
        mp_remove_part(mp, 2, 1)
    assert mp_union(((2,), ()), ((1,), (3,))) == ((2, 1), (3,))


def test_colored_sequence_worked_example():
    mp = ((3, 2, 1), (2, 2), (5, 4, 3, 1))
    assert colored_sequence(mp) == (
        (1, 1),
        (1, 3),
        (2, 1),
        (2, 2),
        (2, 2),
        (3, 1),
        (3, 3),
        (4, 3),
        (5, 3),
    )
    assert colored_sequence(mp_empty(2)) == ()


def test_multipartitions_of():
    assert multipartitions_of(0, 2) == [((), ())]
    deg1 = multipartitions_of(1, 2)
    assert deg1 == [((1,), ()), ((), (1,))]
    # Two-color counts: sum over a+b=n of p(a)*p(b).
    for n in range(7):
        expected = sum(
            PARTITION_COUNTS[a] * PARTITION_COUNTS[n - a] for a in range(n + 1)
        )
        got = multipartitions_of(n, 2)
        assert len(got) == expected
        assert len(set(got)) == expected
        for mp in got:
            assert len(mp) == 2
            for lam in mp:
                check_partition(lam)
            assert sum(sum(lam) for lam in mp) == n
    # Sorted by colored sequence, no ties possible.
    seqs = [colored_sequence(mp) for mp in multipartitions_of(4, 3)]
    assert seqs == sorted(seqs)


def test_split_table():
    lam = (2, 1, 1)
    table = split_table(lam)
    assert [(mu, ways) for mu, _, _, ways in table] == list(sub_multisets(lam))
    for mu, rest, size, _ in table:
        assert union(mu, rest) == lam
        assert size == sum(mu)
    assert split_table(lam) is table
    assert split_table(()) == (((), (), 0, 1),)


def test_mp_sub_multisets():
    mp = ((2, 1), (1,))
    out = {mu: ways for mu, _, _, ways in mp_sub_multisets(mp)}
    assert out == {
        ((), ()): 1,
        ((1,), ()): 1,
        ((2,), ()): 1,
        ((2, 1), ()): 1,
        ((), (1,)): 1,
        ((1,), (1,)): 1,
        ((2,), (1,)): 1,
        ((2, 1), (1,)): 1,
    }
    # each split also carries its complement and its total size
    for mu, rest, size, _ in mp_sub_multisets(mp):
        assert mp_union(mu, rest) == mp
        assert size == sum(sum(lam) for lam in mu)
    # Multiplicities multiply across colors.
    out2 = {mu: ways for mu, _, _, ways in mp_sub_multisets(((1, 1), (1, 1)))}
    assert out2[((1,), (1,))] == 4
    assert out2[((1, 1), (1, 1))] == 1

"""Fraction-free determinants on both scalar routes, against the Leibniz
expansion over RatFunc; the components of a matrix's nonzero pattern, and the
component-wise perfectness test built on them, against the determinant of the
whole matrix, on random matrices and on Gram blocks; and the F_p certificate
of a nonzero determinant or a full rank: sound on random matrices, falling
back to the exact routine whenever its image is inconclusive, and never
falling back on the shipped instances."""

import random
from itertools import permutations
from pathlib import Path

import pytest

from heisdouble import cli, double, hopf, linalg, pairing
from heisdouble.double import verify_faithful, verify_vacuum
from heisdouble.instances import (build_lattice, build_qheis, build_weyl, cartan_a,
                                  identity_form)
from heisdouble.linalg import (P, Q0, components, det_bareiss, det_image, rank_image,
                               sparse_rank, specialize)
from heisdouble.pairing import perfectness_check
from heisdouble.scalars import LP_ONE, ONE, Q, ZERO, LaurentPoly, RatFunc
from oracles import cartan_affine_d4

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


def test_laurent_elimination_never_divides_by_one(monkeypatch, capsys):
    divisors = []
    exact_div = linalg.laurent_exact_div

    def counting(num, den):
        divisors.append(den)
        return exact_div(num, den)

    monkeypatch.setattr(linalg, "laurent_exact_div", counting)
    # no certificate: verify eliminates every Gram component exactly
    monkeypatch.setattr(pairing, "det_image", lambda rows: 0)
    config = Path(__file__).parent.parent / "bench" / "configs" / "qheis-a2.json"
    assert cli.main(["verify", "--instance", str(config), "--max-degree", "4"]) == 0
    assert divisors
    assert not any(d == LP_ONE for d in divisors)


# ---------------------------------------------------------------------------
# Components of the nonzero pattern: one determinant per component


def random_entry(rng):
    """A nonzero scalar: a small Laurent polynomial, sometimes over 1+q or 2."""
    num = LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])
                       for _ in range(rng.randint(1, 2))})
    return RatFunc(num, rng.choice([LaurentPoly({0: 1}), LaurentPoly({0: 1}),
                                    LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2})]))


def random_block(rng, n, kind):
    """An n x n block: sparse random, or made singular by a dependent or a
    zero row."""
    m = [[random_entry(rng) if rng.random() < 0.7 else ZERO for _ in range(n)]
         for _ in range(n)]
    if kind == "dependent" and n > 1:
        m[-1] = [m[0][j] * Q + m[1 % (n - 1)][j] for j in range(n)]
    elif kind == "zero row":
        m[rng.randrange(n)] = [ZERO] * n
    return m


def scrambled_block_diagonal(rng):
    """A block-diagonal matrix with rows and columns shuffled independently."""
    blocks = [random_block(rng, rng.randint(1, 4),
                           rng.choice(["generic"] * 6 + ["dependent", "zero row"]))
              for _ in range(rng.randint(1, 4))]
    n = sum(len(b) for b in blocks)
    m = [[ZERO] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at:at + len(b)] = row
        at += len(b)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


class OneBlock:
    """A stand-in for TwistedPairing whose only Gram block, in degree (0,),
    is the matrix m."""

    name = "one-block"

    class plus:
        rank = 1

    def __init__(self, m):
        self.m = m

    def gram_block(self, degree):
        ncols = len(self.m[0]) if self.m else 0
        return list(range(len(self.m))), list(range(ncols)), self.m


def is_perfect(m):
    """The verdict of perfectness_check on the single block m."""
    return perfectness_check(OneBlock(m), 0).passed


def test_perfectness_agrees_with_full_determinant():
    rng = random.Random(2014)
    verdicts = set()
    for _ in range(150):
        m = scrambled_block_diagonal(rng)
        singular = det_bareiss(m).is_zero
        assert is_perfect(m) == (not singular)
        # the same verdict read off the components alone
        assert singular == any(len(r) != len(c) or det_bareiss(
            [[m[i][j] for j in c] for i in r]).is_zero for r, c in components(m))
        verdicts.add(singular)
    assert verdicts == {True, False}  # both outcomes were exercised


def components_partition(m):
    """The components of m, checked to cover each row and each column once
    with no nonzero entry joining two of them."""
    parts = components(m)
    assert sorted(i for r, _ in parts for i in r) == list(range(len(m)))
    assert sorted(j for _, c in parts for j in c) == list(range(len(m[0]) if m else 0))
    row_part = {i: k for k, (r, _) in enumerate(parts) for i in r}
    col_part = {j: k for k, (_, c) in enumerate(parts) for j in c}
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if not v.is_zero:
                assert row_part[i] == col_part[j], (i, j)
    return parts


def test_components_partition_the_scrambled_blocks():
    rng = random.Random(7)
    for _ in range(50):
        components_partition(scrambled_block_diagonal(rng))


@pytest.mark.parametrize("build, N", [
    (build_weyl, 8),
    (lambda: build_qheis(cartan_a(2)), 4),
    (lambda: build_qheis(cartan_affine_d4()), 2),
    (lambda: build_lattice(identity_form(2)), 4),
], ids=["weyl", "a2", "affine-d4", "lattice-i2"])
def test_gram_components_split_the_determinant(build, N):
    P = build().pairing
    for degree in range(N + 1):
        _, _, mat = P.gram_block(degree)
        product = ONE
        for r, c in components_partition(mat):
            product = product * det_bareiss([[mat[i][j] for j in c] for i in r])
        full = det_bareiss(mat)
        assert product in (full, -full), degree


def test_perfectness_edge_cases():
    assert is_perfect([])                             # the empty determinant is 1
    assert is_perfect([[Q]])
    assert not is_perfect([[ZERO]])
    assert not is_perfect([[ONE, Q], [ZERO, ZERO]])   # a zero row
    assert not is_perfect([[ONE, ZERO], [Q, ZERO]])   # a zero column
    # a zero row and a zero column: every component but one is non-square
    assert sorted((len(r), len(c)) for r, c in components(
        [[ONE, ZERO], [ZERO, ZERO]])) == [(0, 1), (1, 0), (1, 1)]
    assert not is_perfect([[ONE, ZERO], [ZERO, ZERO]])
    # a permutation matrix splits into 1 x 1 components
    perm = [[ZERO, ZERO, Q], [ONE, ZERO, ZERO], [ZERO, TWO, ZERO]]
    assert is_perfect(perm)
    assert sorted(map(len, (r for r, _ in components(perm)))) == [1, 1, 1]
    assert sorted((len(r), len(c)) for r, c in components(
        [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]])) == [(3, 2)]
    with pytest.raises(ValueError):
        components([[ONE, Q], [ONE]])


# ---------------------------------------------------------------------------
# The F_p certificate


def image(v):
    return specialize(v, {})


def sparse_rows(m):
    return [{j: v for j, v in enumerate(row) if not v.is_zero} for row in m]


def test_q0_is_a_primitive_root_mod_p():
    s = 4  # Lucas-Lehmer: the Mersenne number P = 2^61 - 1 is prime
    for _ in range(61 - 2):
        s = (s * s - 2) % P
    assert s == 0
    factors = {2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1, 151: 1,
               331: 1, 1321: 1}
    assert all(all(f % d for d in range(2, f)) for f in factors)
    product = 1
    for f, e in factors.items():
        product *= f ** e
    assert product == P - 1
    assert all(pow(Q0, (P - 1) // f, P) != 1 for f in factors)


def test_specialize_is_a_ring_map():
    a, b = Q * Q - 3 * Q ** -1, ONE / (ONE + Q + TWO * Q ** 3)
    assert image(a * b) == image(a) * image(b) % P
    assert image(a + b) == (image(a) + image(b)) % P
    assert image(Q ** -1) * Q0 % P == 1
    assert image(ONE / TWO) * 2 % P == 1
    assert image(ONE / (Q - Q0)) is None


def test_certificates_are_sound_on_random_matrices():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    integer = st.integers(-4, 4).map(RatFunc.from_int)
    laurent = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(
        lambda c: RatFunc(LaurentPoly(c)))
    rational = st.tuples(laurent, st.sampled_from([ONE + Q, TWO, ONE - Q + Q * Q])).map(
        lambda t: t[0] / t[1])

    @st.composite
    def matrices(draw):
        """An n x n matrix, n <= 5, of integer, Laurent or rational entries,
        generic or made singular by a repeated row or by a row that
        combines two others with Laurent coefficients; and whether it was
        made singular."""
        n = draw(st.integers(1, 5))
        entry = draw(st.sampled_from([integer, laurent, rational]))
        m = [[draw(entry) for _ in range(n)] for _ in range(n)]
        kind = draw(st.sampled_from(["generic", "repeated row", "combination"]))
        if kind == "repeated row" and n > 1:
            i, j = draw(st.permutations(range(n)))[:2]
            m[i] = list(m[j])
        elif kind == "combination" and n > 2:
            a, b = draw(laurent), draw(laurent)
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
        else:
            kind = "generic"
        return m, kind != "generic"

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def check(case):
        m, forced = case
        exact = det_bareiss(m)
        d = det_image(m)  # no denominator here vanishes at Q0
        assert d is not None and d == image(exact)
        if d:
            assert not exact.is_zero
        if exact.is_zero:
            assert d == 0  # an exactly singular matrix is never certified
        assert exact.is_zero or not forced
        rows = sparse_rows(m)
        r, full = rank_image(rows), sparse_rank(rows)
        assert r is not None and r <= full
        if r == len(rows):
            assert full == len(rows)
        if forced:
            assert full < len(rows) and r < len(rows)

    check()


class Counting:
    """Replaces module.name by a wrapper that counts its calls."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        exact = getattr(module, name)

        def counting(*args):
            self.calls += 1
            return exact(*args)

        monkeypatch.setattr(module, name, counting)


QQ0 = Q - Q0  # nonzero over Q(q), zero at q = Q0


def test_zero_image_falls_back_to_the_exact_determinant(monkeypatch):
    exact = Counting(monkeypatch, pairing, "det_bareiss")
    assert det_image([[QQ0]]) == 0
    assert is_perfect([[QQ0]])
    assert exact.calls == 1
    # and a zero image of a singular block is confirmed singular
    assert not is_perfect([[QQ0, ONE], [QQ0 * Q, Q]])
    assert exact.calls == 2


def test_denominator_vanishing_at_q0_falls_back(monkeypatch):
    exact = Counting(monkeypatch, pairing, "det_bareiss")
    assert det_image([[ONE / QQ0]]) is None
    assert is_perfect([[ONE / QQ0]])
    assert exact.calls == 1
    assert det_image([[ONE / QQ0, ONE], [ONE, QQ0]]) is None
    assert not is_perfect([[ONE / QQ0, ONE], [ONE, QQ0]])  # determinant 1 - 1
    assert exact.calls == 2


def test_inconclusive_rank_images_fall_back():
    assert rank_image([{0: QQ0}]) == 0 and sparse_rank([{0: QQ0}]) == 1
    assert rank_image([{3: ONE / QQ0}]) is None
    c = RatFunc.from_int(Q0)
    rows = [{0: ONE, 1: Q}, {0: c, 1: c * c}]  # proportional at q = Q0 only
    assert rank_image(rows) == 1 and sparse_rank(rows) == 2


def test_verify_output_is_unchanged_when_every_image_degenerates(monkeypatch, capsys):
    # at an element of order 3 every q-integer [3k] vanishes, so the
    # certificates of A2 are inconclusive and the exact routines decide
    monkeypatch.setattr(linalg, "Q0", pow(Q0, (P - 1) // 3, P))
    dets = Counting(monkeypatch, pairing, "det_bareiss")
    ranks = Counting(monkeypatch, double, "sparse_rank")
    golden = Path(__file__).parent / "golden"
    argv = ["verify", "--instance", str(golden / "qheis-a2.json"), "--max-degree", "3",
            "--json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (golden / "verify-qheis-a2-3.json").read_text()
    assert dets.calls == 6 and ranks.calls == 3  # every component and stratum


@pytest.mark.parametrize("build, N, nfaithful", [
    (lambda: build_qheis(cartan_a(2)), 6, 3),
    (lambda: build_lattice(identity_form(2)), 6, 3),
    (lambda: build_qheis(cartan_affine_d4()), 3, 1),
    (build_weyl, 8, 8),
], ids=["a2", "lattice-i2", "affine-d4", "weyl"])
def test_no_certificate_falls_back_on_the_shipped_instances(monkeypatch, build, N,
                                                            nfaithful):
    # perfectness and the vacuum at N, faithfulness on every stratum at
    # nfaithful; the exact routines are never reached
    dets = Counting(monkeypatch, pairing, "det_bareiss")
    ranks = Counting(monkeypatch, double, "sparse_rank")
    certificates = Counting(monkeypatch, pairing, "det_image")
    rank_certificates = Counting(monkeypatch, double, "rank_image")
    inst = build()
    assert perfectness_check(inst.pairing, N).passed
    assert verify_vacuum(inst.double, N).passed
    for lam in range(-nfaithful, nfaithful + 1):
        assert verify_faithful(inst.double, lam, nfaithful).passed
    assert certificates.calls > 0 and rank_certificates.calls > 0
    assert dets.calls == 0 and ranks.calls == 0

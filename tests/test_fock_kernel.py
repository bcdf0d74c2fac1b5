"""The Fock kernel double._fock, behind fock_matrix, against
the bilinear route of tests/oracles.py, which applies each term a#x of u to
each input label on its own, as an Element product a * x(b).

The elements cover every minus word the benchmark session asks a
fock-matrix of (one or two generators of total degree <= 5), the recorded
A2 element p'[2,1] + p[1,1] p'[1,2], scalar multiples and sums, terms a#x
with a != 1, and elements of positive signed degree, whose rows go past the
in-degree.  A cached x(b) multiplied by q must show in the kernel's entry
as in the oracle's, so the kernel reads the one action cache.
"""

from itertools import product

import pytest

from heisdouble.double import fock_matrix
from heisdouble.expr import evaluate_text
from heisdouble.hopf import Element
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a
from heisdouble.scalars import ONE, Q, ZERO
import oracles

IN_DEGREE = 3
MAX_PART = 4
MAX_WORD_DEGREE = 5


def minus_words(letters, ncolors):
    """Words of one or two minus generators of total degree <= 5, each
    generator of degree at most 4, as the benchmark session writes them."""
    gens = [("%s[%d,%d]" % (g, n, i), n) for g in letters
            for n in range(1, MAX_PART + 1) for i in range(1, ncolors + 1)]
    words = [g for g, _ in gens]
    words += [g1 + "*" + g2 for (g1, d1), (g2, d2) in product(gens, repeat=2)
              if d1 + d2 <= MAX_WORD_DEGREE]
    return words


# Each instance: a builder, its minus words, and elements with scalars, sums,
# terms a#x with a != 1 and positive signed degree.
INSTANCES = {
    "weyl": (build_weyl,
             ["d^%d" % n for n in range(1, MAX_WORD_DEGREE + 1)]
             + ["d^%d*d^%d" % (i, j) for i in range(1, MAX_PART + 1)
                for j in range(1, MAX_WORD_DEGREE + 1 - i)],
             ["x*d + d^2", "(2 - q)*x + q^-1*d*x", "x^2*d", "d^2*x^3", "3*x^2 - q*d",
              "x", "1"]),
    "qheis-a2": (lambda: build_qheis(cartan_a(2)),
                 minus_words(("p'", "h'"), 2),
                 ["p'[2,1] + p[1,1] p'[1,2]", "(1 + q)*p'[1,1] - 3*h'[2,2]*p'[1,2]",
                  "p'[1,1]*p[2,1]*p'[1,1]", "h'[1,1]*h[2,1]", "p[1,2]*p[1,1]",
                  "q^-2*p[2,2] + p[1,1]*h'[1,2]"]),
    "lattice-i2": (lambda: build_lattice(((1, 0), (0, 1))),
                   minus_words(("p'",), 2),
                   ["p'[2,1]*p'[1,2]", "p[1,1]*p'[2,2] + q*p'[1,1]", "p[2,2]*p'[1,1]",
                    "p'[1,1]*p[1,1]*p[1,2]", "2*p[3,1] - p'[1,2]"]),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    build, words, extras = INSTANCES[request.param]
    D = build().double
    return D, [evaluate_text(D, t) for t in words + extras]


def oracle_matrix(D, u, Nin):
    """fock_matrix(D, u, Nin) with every column from the oracle, as
    {(row label, column label): entry}, zero entries left out."""
    return {(l, b): c for b in D.plus.labels_up_to(Nin)
            for l, c in oracles.fock_apply(D, u, Element.from_label(b)).terms.items()}


def assert_matches_oracle(D, u, Nin):
    rows, cols, matrix = fock_matrix(D, u, Nin)
    assert cols == D.plus.labels_up_to(Nin)
    expected = oracle_matrix(D, u, Nin)
    # every nonzero entry of the oracle lies in a row of the matrix
    assert {l for l, _ in expected} <= set(rows)
    for i, l in enumerate(rows):
        for j, b in enumerate(cols):
            assert matrix[i][j] == expected.get((l, b), ZERO), (D.element_str(u), l, b)
    return rows, cols, matrix


def test_fock_matrix_matches_the_oracle_entry_by_entry(case):
    D, elements = case
    for u in elements:
        for Nin in range(IN_DEGREE + 1):
            assert_matches_oracle(D, u, Nin)


def test_rows_go_past_the_in_degree_for_positive_degree(case):
    D, elements = case
    positive = [u for u in elements
                if max(a.degree - x.degree for a, x in u.terms) > 0]
    assert positive
    for u in positive:
        rows, _, matrix = assert_matches_oracle(D, u, IN_DEGREE)
        assert max(l.degree for l in rows) > IN_DEGREE
        assert any(not c.is_zero for l, row in zip(rows, matrix)
                   if l.degree > IN_DEGREE for c in row)


def test_a_corrupted_cached_action_shows_in_kernel_and_oracle(case):
    D, elements = case
    # the first plus label of degree 2 with a minus x that acts on it, and
    # the same x behind a plus factor a != 1
    b = next(l for l in D.plus.labels_up_to(2) if l.degree == 2)
    acts = D.actions(b)
    x = next(iter(acts))
    a = next(l for l in D.plus.labels_up_to(1) if l.degree == 1)
    entry = acts[x]
    l = next(iter(entry.terms))
    for u in (D.embed_minus(Element.from_label(x)),
              Element._raw({(a, x): ONE, (D.plus.unit_label, x): Q})):
        _, cols, before = fock_matrix(D, u, 2)
        j = cols.index(b)
        terms = dict(entry.terms)
        terms[l] = terms[l] * Q
        acts[x] = Element._raw(terms)
        try:
            rows, _, after = assert_matches_oracle(D, u, 2)
        finally:
            acts[x] = entry
        changed = [rows[i] for i in range(len(rows)) if after[i][j] != before[i][j]]
        assert changed
        # nothing outside the column of b moves
        assert all(after[i][k] == before[i][k] for i in range(len(rows))
                   for k in range(len(cols)) if k != j)

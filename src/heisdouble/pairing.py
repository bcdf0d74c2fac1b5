"""Twisted bilinear pairings between a pair of graded bialgebra presentations.

A pairing couples a "minus" presentation H- to a "plus" presentation H+
through Gram values on homogeneous basis pairs; degreewise orthogonality is
structural (no Gram callable is consulted across distinct degrees).  The
twisting datum gamma controls how the pairing exchanges products for
coproducts:

    <x y, a> = c^(gamma'(|x|,|y|)) <x tensor y, Delta(a)>
    <x, a b> = c^(gamma''(|a|,|b|)) <Delta(x), a tensor b>

Gram values are kept as sparse rows: row(x) holds the nonzero <x, a> over
the support of x, by default the plus basis of degree |x|, made once per
minus label, and col(a) is its transpose.  Every pairing loop walks these
rows, so a zero of the form is never visited, and one known to vanish off
the support is never computed.

Perfectness certifies each nonzero Gram determinant by its image in F_p
(linalg.det_image) and eliminates over Q(q), with det_bareiss, only a
component whose image is zero or undefined; the 35 x 35 component of qheis
affine D4 in degree 3 then takes milliseconds instead of seconds.

check_pairing_axioms takes its first factors from a generating set when
told that check_bialgebra passed on both sides, as verify tells it; its
docstring proves that the report is the full sweep's.
"""

from __future__ import annotations

from .hopf import Element, _acc
from .linalg import components, det_bareiss, det_image
from .report import check
from .scalars import ONE, ZERO, q_power
from .twisting import TwistingDatum, dual_twisting, form
from . import hopf


class TwistedPairing:
    """Bilinear form H- x H+ -> k(q) twisted by gamma.

    gram_fn(x_label, a_label) is consulted only for equal degrees, once per
    pair, and its nonzero values are kept as rows (see row); pairing of
    inhomogeneous elements is the bilinear extension.

    support(x_label), when given, lists the plus labels of degree |x| that
    row(x) consults, in basis order; it must contain every a with
    <x, a> != 0, since a label outside it reads as zero, and row(x) refuses
    a label of another degree.  By default it is the whole plus basis of
    degree |x|.
    """

    def __init__(self, minus, plus, gamma, gram_fn, name=None, support=None):
        if not isinstance(gamma, TwistingDatum):
            raise TypeError("gamma must be a TwistingDatum")
        self.minus = minus
        self.plus = plus
        self.gamma = gamma
        self._gram_fn = gram_fn
        self._support = support or (lambda x: plus.basis(x.degree))
        self.name = name or "%s|%s" % (minus.name, plus.name)
        self._rows = {}
        self._cols = {}

    def retwisted(self, minus, plus, gamma, name):
        """The pairing with twisting gamma of minus and plus, which have the
        bases of this pairing's sides (shifted presentations do): the Gram
        values are the same, so both pairings share one store of rows and
        one support."""
        out = TwistedPairing(minus, plus, gamma, self._gram_fn, name,
                             self._support)
        out._rows = self._rows
        out._cols = self._cols
        return out

    def row(self, x):
        """{a: <x, a>} over support(x), nonzero values only, in basis order;
        made once per minus label.  ValueError when support(x) lists a label
        whose degree is not |x|."""
        hit = self._rows.get(x)
        if hit is None:
            gram = self._gram_fn
            out = {}
            for a in self._support(x):
                if a.degree != x.degree:
                    raise ValueError("support of %r lists %r, of another degree"
                                     % (x, a))
                v = gram(x, a)
                if not v.is_zero:
                    out[a] = v
            hit = self._rows.setdefault(x, out)
        return hit

    def col(self, a):
        """{x: <x, a>} over the minus basis of degree |a|, nonzero values
        only, in basis order: the transpose of the rows, made once per plus
        label."""
        hit = self._cols.get(a)
        if hit is None:
            out = {}
            for x in self.minus.basis(a.degree):
                v = self.row(x).get(a)
                if v is not None:
                    out[x] = v
            hit = self._cols.setdefault(a, out)
        return hit

    def pair_labels(self, x_label, a_label):
        if x_label.degree != a_label.degree:
            return ZERO
        return self.row(x_label).get(a_label, ZERO)

    def pair(self, x, a):
        """Pairing of a minus element with a plus element."""
        total = ZERO
        at = a.terms
        for xl, xc in x.terms.items():
            for al, v in self.row(xl).items():
                ac = at.get(al)
                if ac is not None:
                    total = total + xc * ac * v
        return total

    def pair_tensor(self, s, t):
        """Pairing of tensor squares: <x tensor y, a tensor b> factorwise."""
        total = ZERO
        tt = t.terms
        for (xl, yl), c in s.terms.items():
            ry = self.row(yl)
            for al, v in self.row(xl).items():
                cv = c * v
                for bl, w in ry.items():
                    d = tt.get((al, bl))
                    if d is not None:
                        total = total + cv * d * w
        return total

    def gram_block(self, degree):
        """Minus labels, plus labels, and the Gram matrix at one degree,
        read from the rows."""
        rows = self.minus.basis(degree)
        cols = self.plus.basis(degree)
        matrix = tuple(tuple(self.pair_labels(x, a) for a in cols) for x in rows)
        return rows, cols, matrix

    def gram_to_json(self, N):
        """Gram blocks for all degrees <= N, entries as strings.

        Keys are the degrees as text; values carry the two label lists and
        the matrix in row-major order.
        """
        out = {}
        for degree in range(N + 1):
            rows, cols, matrix = self.gram_block(degree)
            out[str(degree)] = {
                "minus_labels": [self.minus.label_text(l) for l in rows],
                "plus_labels": [self.plus.label_text(l) for l in cols],
                "entries": [[str(v) for v in row] for row in matrix],
            }
        return out

    def __repr__(self):
        return "TwistedPairing(%s)" % self.name


@check
def check_pairing_axioms(P, N, *, presupposed=False):
    """Verify both multiplicativity identities and the unit/counit laws on
    basis triples of total degree <= N.

    presupposed says that check_bialgebra passed on both sides of P at N in
    the same run; verify passes it only then.  The product-coproduct sweeps
    then take their first factor u from the generating set G of its side
    (``hopf.generating_set``), otherwise from the whole basis.  Both run
    _first_mismatch, with a different pool; the report is the same.  At
    qheis A2 each side compares 60 pairs (u, v) instead of 164 at N=4, and
    1,060 instead of 4,810 at N=8.

    The proof, for the minus side <u v, k> = q^gamma'(|u|,|v|)
    <u (x) v, Delta k>, with u, v in H- and k in H+; the plus side is the
    same with the roles of H- and H+ exchanged and gamma'' for gamma'.  It
    is by induction on |u|, for all v and k:

    - u = 1 needs no pair.  By the unit law of H-, <1 v, k> = <v, k>.  On
      the right only k1 = 1 of Delta k = k1 (x) k2 pairs with 1, by degree,
      with <1, 1> = 1, which is checked first; by the counit law of H+
      those terms are 1 (x) k, and gamma'(0, |v|) = 0.
    - u in G is checked directly.
    - Otherwise u = c^-1 g u' with g in G, |g|, |u'| < |u| and c != 0.
      Write e(m, n) = q^gamma'(m, n).  By associativity of H-, the
      generator identities on (g, z) for the terms z of u' v, and the
      induction hypothesis for (u', v):
        c <u v, k> = <g (u' v), k> = e(|g|, |u'|+|v|) <g (x) u' v, Delta k>
                   = e(|g|, |u'|+|v|) e(|u'|, |v|)
                     <g (x) u' (x) v, (id (x) Delta) Delta k>.
      By the generator identity on (g, u'):
        c e(|u|, |v|) <u (x) v, Delta k> = e(|u|, |v|) <g u' (x) v, Delta k>
                   = e(|u|, |v|) e(|g|, |u'|)
                     <g (x) u' (x) v, (Delta (x) id) Delta k>.
      Coassociativity of H+ equates the two tensors, and gamma' is
      biadditive (a form c m n on Z), so the two exponents agree.  Every
      identity used has total degree |u| + |v| <= N, and every law used is
      checked by check_bialgebra up to N.

    The order argument: the sweep runs u outer, in basis order, which
    sorts by degree, then v, then k.  For u outside G the proof uses
    only identities whose first factor, g or u', has degree below |u|, and
    so comes before u; the unit case uses none.  So the first failing
    (u, v, k) of the full sweep, if there is one, has u in G.  The reduced
    sweep visits the pairs with u in G in the same order, so it stops at
    the same triple and reports the same witness.

    Without the flag a failing law could break the induction, so every
    label is a first factor, as a direct call check_pairing_axioms(P, N)
    does."""
    minus, plus = P.minus, P.plus
    e = Element.from_label

    # <1, a> = eps(a) and <x, 1> = eps(x) reduce to <1, 1> = eps(1): a row
    # holds labels of its own degree only
    u = plus.unit_label
    lhs = P.pair_labels(minus.unit_label, u)
    if lhs != plus.counit_label(u):
        return {"identity": "unit against plus", "label": plus.label_text(u),
                "lhs": lhs, "rhs": plus.counit_label(u)}

    def first_factors(H):
        return hopf.generating_set(H, N) if presupposed else H.labels_up_to(N)

    # <xy, a> = c^gamma'(|x|,|y|) <x tensor y, Delta a>
    hit = _first_mismatch(minus, plus, P.row, P.gamma.prime, N, first_factors(minus))
    if hit is not None:
        x, y, a = hit
        twist = q_power(form(P.gamma.prime, x.degree, y.degree))
        return {
            "identity": "product-coproduct (minus side)",
            "labels": "%s, %s | %s" % (minus.label_text(x), minus.label_text(y),
                                       plus.label_text(a)),
            "lhs": P.pair(minus.product(x, y), e(a)),
            "rhs": twist * P.pair_tensor(Element._raw({(x, y): ONE}), plus.coproduct(a))}

    # <x, ab> = c^gamma''(|a|,|b|) <Delta x, a tensor b>
    hit = _first_mismatch(plus, minus, P.col, P.gamma.doubleprime, N, first_factors(plus))
    if hit is not None:
        a, b, x = hit
        twist = q_power(form(P.gamma.doubleprime, a.degree, b.degree))
        return {
            "identity": "coproduct-product (plus side)",
            "labels": "%s | %s, %s" % (minus.label_text(x), plus.label_text(a),
                                       plus.label_text(b)),
            "lhs": P.pair(e(x), plus.product(a, b)),
            "rhs": twist * P.pair_tensor(minus.coproduct(x), Element._raw({(a, b): ONE}))}
    return None


def _first_mismatch(H, K, store, twist, N, first):
    """The first (u, v, k) at which <uv, k> = q^twist(|u|,|v|) <u (x) v, Delta k>
    fails, over u in first and basis labels v of H with |u| + |v| <= N in
    bounded_tuples order and k in K's basis of degree |u| + |v| in basis
    order; None when every one holds.  first lists labels of H in basis
    order.  <z, k> is the pairing of z in H with k in K, whichever side
    each is on.

    store(z) is {k: <z, k>}, nonzero values only: the rows for H = minus,
    the columns for H = plus.  Both sides of each pair
    (u, v) are summed over the nonzero values, as dicts over k: the right
    side reads an inverse-coproduct table (k1, k2) -> [(k, c)] of K.  Only
    |k| = |u| + |v| can pair, since the store holds degree-matched values
    and products and coproducts are graded, so no identity that could fail
    is skipped."""
    inverse = {}
    for k in K.labels_up_to(N):
        for k12, c in K.coproduct(k).terms.items():
            inverse.setdefault(k12, []).append((k, c))
    for u, v in hopf.bounded_tuples([first, H.labels_up_to(N)], N):
        lhs = {}
        for z, cz in H.product(u, v).terms.items():
            for k, w in store(z).items():
                _acc(lhs, k, cz * w)
        rhs = {}
        q = q_power(form(twist, u.degree, v.degree))
        sv = store(v)
        for k1, w1 in store(u).items():
            for k2, w2 in sv.items():
                w = q * w1 * w2
                for k, c in inverse.get((k1, k2), ()):
                    _acc(rhs, k, c * w)
        if lhs != rhs:
            for k in K.basis(u.degree + v.degree):
                if lhs.get(k, ZERO) != rhs.get(k, ZERO):
                    return u, v, k
    return None


@check
def perfectness_check(P, N):
    """Nonvanishing of every Gram determinant for degrees <= N.

    Square blocks are required; a non-square block is itself a failure.
    Each block is tested component by component on its nonzero pattern
    (see linalg.components): for qheis and lattice the pairing vanishes
    unless the uncolored parts agree, so the components are far smaller
    than the block.  A non-square component makes the block singular.

    A component whose determinant maps to a nonzero residue of F_p is
    nonsingular (linalg.det_image); only a zero or undefined image is
    eliminated exactly, by det_bareiss, which decides the verdict."""
    for degree in range(N + 1):
        rows, cols, matrix = P.gram_block(degree)
        if len(rows) != len(cols):
            return {"degree": degree,
                    "reason": "basis sizes differ (%d vs %d)" % (len(rows), len(cols))}
        for r, c in components(matrix):
            if len(r) == len(c):
                block = [[matrix[i][j] for j in c] for i in r]
                if det_image(block) or not det_bareiss(block).is_zero:
                    continue
            return {"degree": degree, "reason": "singular Gram block"}
    return None


@check
def dual_presentation_check(P, N):
    """Confirm the minus twisting equals the dual of (chi, gamma) and that
    the minus side satisfies the bialgebra axioms with it, up to degree N."""
    expected = dual_twisting(P.plus.twisting, P.gamma)
    if P.minus.twisting != expected:
        return {"declared": P.minus.twisting, "expected": expected}
    inner = hopf.check_bialgebra(P.minus, N)
    if not inner.passed:
        return {"reason": "minus side fails bialgebra axioms", "witness": inner.witness}
    return None

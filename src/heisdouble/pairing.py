"""Twisted bilinear pairings between a pair of graded bialgebra presentations.

A pairing couples a "minus" presentation H- to a "plus" presentation H+
through Gram values on homogeneous basis pairs; degreewise orthogonality is
structural (no Gram callable is consulted across distinct degrees).  The
twisting datum gamma controls how the pairing exchanges products for
coproducts:

    <x y, a> = c^(gamma'(|x|,|y|)) <x tensor y, Delta(a)>
    <x, a b> = c^(gamma''(|a|,|b|)) <Delta(x), a tensor b>
"""

from __future__ import annotations

from .hopf import Element
from .linalg import components, det_bareiss
from .report import failing, passing
from .scalars import ONE, ZERO, q_power
from .twisting import TwistingDatum, deg_add, dual_twisting
from . import hopf


class TwistedPairing:
    """Bilinear form H- x H+ -> k(q) twisted by gamma.

    gram_fn(x_label, a_label) is consulted only for equal degrees and its
    values are cached; pairing of inhomogeneous elements is the bilinear
    extension.
    """

    def __init__(self, minus, plus, gamma, gram_fn, name=None):
        if minus.rank != plus.rank:
            raise ValueError("paired presentations must share the grading rank")
        if not isinstance(gamma, TwistingDatum):
            raise TypeError("gamma must be a TwistingDatum")
        if gamma.rank != plus.rank:
            raise ValueError("gamma rank does not match the grading rank")
        self.minus = minus
        self.plus = plus
        self.gamma = gamma
        self._gram_fn = gram_fn
        self.name = name or "%s|%s" % (minus.name, plus.name)
        self._values = {}

    def pair_labels(self, x_label, a_label):
        if x_label.degree != a_label.degree:
            return ZERO
        key = (x_label, a_label)
        hit = self._values.get(key)
        if hit is None:
            hit = self._values.setdefault(key, self._gram_fn(x_label, a_label))
        return hit

    def pair(self, x, a):
        """Pairing of a minus element with a plus element."""
        total = ZERO
        for xl, xc in x.terms.items():
            for al, ac in a.terms.items():
                if xl.degree == al.degree:
                    v = self.pair_labels(xl, al)
                    if not v.is_zero:
                        total = total + xc * ac * v
        return total

    def pair_tensor(self, s, t):
        """Pairing of tensor squares: <x tensor y, a tensor b> factorwise."""
        total = ZERO
        for (xl, yl), c in s.terms.items():
            for (al, bl), d in t.terms.items():
                if xl.degree == al.degree and yl.degree == bl.degree:
                    v = self.pair_labels(xl, al)
                    if v.is_zero:
                        continue
                    w = self.pair_labels(yl, bl)
                    if w.is_zero:
                        continue
                    total = total + c * d * v * w
        return total

    def gram_block(self, degree):
        """Minus labels, plus labels, and the Gram matrix at one degree,
        read from the cached pairing values."""
        rows = self.minus.basis(degree)
        cols = self.plus.basis(degree)
        matrix = tuple(tuple(self.pair_labels(x, a) for a in cols) for x in rows)
        return rows, cols, matrix

    def gram_to_json(self, N):
        """Gram blocks for all degrees of total <= N, entries as strings.

        Keys are comma-joined degree tuples; values carry the two label lists
        and the matrix in row-major order.
        """
        out = {}
        for degree in hopf.degrees_up_to(self.plus.rank, N):
            rows, cols, matrix = self.gram_block(degree)
            out[",".join(str(d) for d in degree)] = {
                "minus_labels": [self.minus.label_text(l) for l in rows],
                "plus_labels": [self.plus.label_text(l) for l in cols],
                "entries": [[str(v) for v in row] for row in matrix],
            }
        return out

    def __repr__(self):
        return "TwistedPairing(%s)" % self.name


def check_pairing_axioms(P, N):
    """Verify both multiplicativity identities and the unit/counit laws on
    basis triples of total degree <= N."""
    minus, plus = P.minus, P.plus
    gp = P.gamma.prime
    gpp = P.gamma.doubleprime

    # unit rows: <1, a> = eps(a), <x, 1> = eps(x)
    for a in plus.labels_up_to(N):
        lhs = P.pair(minus.unit_element(), Element.from_label(a))
        if lhs != plus.counit_label(a):
            return failing("check_pairing_axioms", P.name, N,
                           identity="unit against plus", label=plus.label_text(a),
                           lhs=lhs, rhs=plus.counit_label(a))
    for x in minus.labels_up_to(N):
        lhs = P.pair(Element.from_label(x), plus.unit_element())
        if lhs != minus.counit_label(x):
            return failing("check_pairing_axioms", P.name, N,
                           identity="unit against minus", label=minus.label_text(x),
                           lhs=lhs, rhs=minus.counit_label(x))

    # <xy, a> = c^gamma'(|x|,|y|) <x tensor y, Delta a>
    # Only |a| = |x|+|y| is visited (and |x| = |a|+|b| below): across degrees
    # both sides are zero by construction, since pair_labels returns ZERO for
    # unequal degrees and product and coproduct degrees are validated by the
    # presentation, so no identity that could fail is skipped.
    for x, y in hopf.bounded_tuples([minus.labels_up_to(N)] * 2, N):
        xy = minus.product(x, y)
        s = Element._raw({(x, y): ONE})
        twist = q_power(gp.evaluate(x.degree, y.degree))
        for a in plus.basis(deg_add(x.degree, y.degree)):
            lhs = P.pair(xy, Element.from_label(a))
            rhs = twist * P.pair_tensor(s, plus.coproduct(a))
            if lhs != rhs:
                return failing(
                    "check_pairing_axioms", P.name, N,
                    identity="product-coproduct (minus side)",
                    labels="%s, %s | %s" % (minus.label_text(x), minus.label_text(y),
                                            plus.label_text(a)),
                    lhs=lhs, rhs=rhs)

    # <x, ab> = c^gamma''(|a|,|b|) <Delta x, a tensor b>
    for a, b in hopf.bounded_tuples([plus.labels_up_to(N)] * 2, N):
        ab = plus.product(a, b)
        t = Element._raw({(a, b): ONE})
        twist = q_power(gpp.evaluate(a.degree, b.degree))
        for x in minus.basis(deg_add(a.degree, b.degree)):
            lhs = P.pair(Element.from_label(x), ab)
            rhs = twist * P.pair_tensor(minus.coproduct(x), t)
            if lhs != rhs:
                return failing(
                    "check_pairing_axioms", P.name, N,
                    identity="coproduct-product (plus side)",
                    labels="%s | %s, %s" % (minus.label_text(x), plus.label_text(a),
                                            plus.label_text(b)),
                    lhs=lhs, rhs=rhs)

    return passing("check_pairing_axioms", P.name, N)


def perfectness_check(P, N):
    """Nonvanishing of every Gram determinant for degrees of total <= N.

    Square blocks are required; a non-square block is itself a failure.
    Each block is tested component by component on its nonzero pattern
    (see linalg.components): for qheis and lattice the pairing vanishes
    unless the uncolored parts agree, so the components are far smaller
    than the block.  A non-square component makes the block singular."""
    for degree in hopf.degrees_up_to(P.plus.rank, N):
        rows, cols, matrix = P.gram_block(degree)
        if len(rows) != len(cols):
            return failing("perfectness_check", P.name, N, degree=degree,
                           reason="basis sizes differ (%d vs %d)" % (len(rows), len(cols)))
        for r, c in components(matrix):
            if (len(r) != len(c)
                    or det_bareiss([[matrix[i][j] for j in c] for i in r]).is_zero):
                return failing("perfectness_check", P.name, N, degree=degree,
                               reason="singular Gram block")
    return passing("perfectness_check", P.name, N)


def dual_presentation_check(P, N):
    """Confirm the minus twisting equals the dual of (chi, gamma) and that
    the minus side satisfies the bialgebra axioms with it, up to degree N."""
    expected = dual_twisting(P.plus.twisting, P.gamma)
    if P.minus.twisting != expected:
        return failing("dual_presentation_check", P.name, N,
                       declared=P.minus.twisting, expected=expected)
    inner = hopf.check_bialgebra(P.minus, N)
    if not inner.passed:
        return failing("dual_presentation_check", P.name, N,
                       reason="minus side fails bialgebra axioms",
                       witness=inner.witness)
    return passing("dual_presentation_check", P.name, N)

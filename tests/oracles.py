"""Test oracles: closed forms, brute-force routes and fixed inputs that the
tests compare the library against.  The library itself never calls them.
"""

from functools import partial
from itertools import combinations_with_replacement, permutations
from itertools import product as iproduct
from math import comb, factorial, prod

from heisdouble import cli
from heisdouble.double import _gen_labels
from heisdouble.hopf import (Element, _acc, _sum_terms, antipode, bilinear, bounded_tuples,
                             check_bialgebra, comultiply, element_str,
                             multiply, tensor_str, twisted_tensor_multiply)
from heisdouble.instances import h_element, mp_label, q_factor
from heisdouble.linalg import sparse_rank
from heisdouble.partitions import check_partition, difference, multiplicities, sub_multisets
from heisdouble.report import check
from heisdouble.scalars import ONE, ZERO, RatFunc, q_int_sym, q_power


# -- partitions ----------------------------------------------------------


def remove_part(lam, k):
    """The partition lam with one part k removed; error when absent."""
    out = list(lam)
    try:
        out.remove(k)
    except ValueError:
        raise ValueError("partition %r has no part %r" % (lam, k)) from None
    return tuple(out)


def mp_remove_part(mp, k, color):
    i = color - 1
    return mp[:i] + (remove_part(mp[i], k),) + mp[i + 1:]


def sym_coproduct(label):
    """Delta(p_mp) for the multipartition mp = label.key of a qheis or
    lattice presentation, built with no split table: the product over the
    colors of sub_multisets, in its order, with each complement taken by
    difference and each label made by mp_label."""
    mp = label.key
    t = {}
    for combo in iproduct(*(list(sub_multisets(lam)) for lam in mp)):
        mu = tuple(c[0] for c in combo)
        rest = tuple(difference(lam, m) for lam, m in zip(mp, mu))
        t[(mp_label(mu), mp_label(rest))] = RatFunc.from_int(prod(c[1] for c in combo))
    return Element._raw(t)


# -- standard matrices ---------------------------------------------------


def cartan_affine_a(n):
    """Affine A_n^(1): the cycle on n+1 nodes (n >= 2), or the rank-2
    matrix [[2,-2],[-2,2]] for n = 1."""
    if n < 1:
        raise ValueError("affine A_n requires n >= 1")
    if n == 1:
        return ((2, -2), (-2, 2))
    size = n + 1
    return tuple(tuple(2 if i == j else
                       (-1 if (i - j) % size in (1, size - 1) else 0)
                       for j in range(size)) for i in range(size))


def cartan_affine_d4():
    """Affine D_4^(1): four leaves attached to a central node (listed last)."""
    return ((2, 0, 0, 0, -1),
            (0, 2, 0, 0, -1),
            (0, 0, 2, 0, -1),
            (0, 0, 0, 2, -1),
            (-1, -1, -1, -1, 2))


# -- twisting ------------------------------------------------------------


# A form is its integer matrix here, a nested list: [[c]] for the form c m n
# on Z.  A twisting datum is a pair (prime, doubleprime) of such matrices.


def transpose(m):
    return [list(row) for row in zip(*m)]


def mat_sum(*terms):
    """The entrywise sum of s m over the pairs (s, m) of a sign and a matrix."""
    rows, cols = len(terms[0][1]), len(terms[0][1][0])
    return [[sum(s * m[i][j] for s, m in terms) for j in range(cols)]
            for i in range(rows)]


def shift_twisting(chi, xi, gamma, alpha_plus, alpha_minus, beta_plus, beta_minus):
    """Twisting data after shifting both coproducts and products, by the
    matrix formulas of a grading of any rank.

    chi, xi and gamma are pairs of matrices; alpha_plus/alpha_minus shift
    the two coproducts, beta_plus/beta_minus the two products.  Returns the
    triple (chi~, xi~, gamma~):
      chi~ = (chi' + alpha+^T + beta+, chi'' + alpha+ + beta+),
      xi~ = (xi' + alpha-^T + beta-, xi'' + alpha- + beta-),
      gamma~ = (gamma' - alpha+ + beta-, gamma'' - alpha- + beta+).
    """
    chi_t = (mat_sum((1, chi[0]), (1, transpose(alpha_plus)), (1, beta_plus)),
             mat_sum((1, chi[1]), (1, alpha_plus), (1, beta_plus)))
    xi_t = (mat_sum((1, xi[0]), (1, transpose(alpha_minus)), (1, beta_minus)),
            mat_sum((1, xi[1]), (1, alpha_minus), (1, beta_minus)))
    gamma_t = (mat_sum((1, gamma[0]), (-1, alpha_plus), (1, beta_minus)),
               mat_sum((1, gamma[1]), (-1, alpha_minus), (1, beta_plus)))
    return chi_t, xi_t, gamma_t


def compatible(chi, gamma):
    """chi' = -(gamma')^T on matrices: the double closes."""
    return chi[0] == mat_sum((-1, transpose(gamma[0])))


# -- pairing values ------------------------------------------------------


def sym_pair_perm(factor, mp_minus, mp_plus):
    """Independent route to instances.sym_pair: the raw sum over
    permutations of the colored sequences, with a Kronecker delta on part
    values."""
    seq_l = []
    for i, lam in enumerate(mp_minus, start=1):
        seq_l.extend((k, i) for k in lam)
    seq_r = []
    for j, lam in enumerate(mp_plus, start=1):
        seq_r.extend((k, j) for k in lam)
    if len(seq_l) != len(seq_r):
        return ZERO
    n = len(seq_l)
    used = [False] * n

    def rec(t):
        if t == n:
            return ONE
        k, i = seq_l[t]
        acc = ZERO
        for s in range(n):
            if used[s]:
                continue
            k2, j = seq_r[s]
            if k2 != k:
                continue
            f = factor(k, i, j)
            if f.is_zero:
                continue
            used[s] = True
            acc = acc + f * rec(t + 1)
            used[s] = False
        return acc

    return rec(0)


def z_classical(lam):
    """prod k^m_k m_k!, the classical specialization of Z_lambda."""
    lam = check_partition(lam)
    out = 1
    for k, m in multiplicities(lam).items():
        out *= k ** m * factorial(m)
    return out


def det_leibniz(m):
    """Determinant of a small square matrix by the permutation expansion."""
    n = len(m)
    out = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        out = out - term if inversions % 2 else out + term
    return out


def qheis_gram_det(A, lam):
    """Closed-form determinant of the lambda-component of a qheis Gram block.

    With M_k = ([k<i,j>][k]/k) the r x r color matrix and m_k the
    multiplicity of the part k in lam, the component is the Kronecker
    product over k of the matrices of permanents perm(M_k[S, T]) on color
    multisets S, T of size m_k.  That matrix is diag(S!) Sym^(m_k)(M_k), so

        det = c * prod_k det(M_k)^(C(m_k+r-1, r) * prod_{k'!=k} C(m_k'+r-1, m_k'))

    with c = prod_k (prod_S S!)^(prod_{k'!=k} C(m_k'+r-1, m_k')), where S!
    is the product of the factorials of the color multiplicities in S.
    The determinant is taken with rows and columns in the same order.
    """
    factor = q_factor(A)
    r = len(A)
    mult = multiplicities(check_partition(lam))
    dims = {k: comb(m + r - 1, m) for k, m in mult.items()}
    out = ONE
    for k, m in mult.items():
        others = prod(dims[j] for j in mult if j != k)
        det_m = det_leibniz([[factor(k, i, j) for j in range(1, r + 1)]
                             for i in range(1, r + 1)])
        c = prod(prod(factorial(S.count(i)) for i in set(S))
                 for S in combinations_with_replacement(range(r), m))
        out = out * (det_m ** (comb(m + r - 1, r) * others) * c ** others)
    return out


# -- the tensor square ---------------------------------------------------


def tensor(u, v):
    """u (x) v in the tensor square: c d (k, l) over the terms c k of u and
    d l of v."""
    return Element._raw({(k, l): c * d for k, c in u.terms.items()
                         for l, d in v.terms.items()})


def twisted_tensor_multiply_brute(H, s, t):
    """The twisted product on H (x) H from its definition, one pair of terms
    at a time: the sum of c d q^(chi'(|a2|,|b1|) + chi''(|a1|,|b2|))
    a1 b1 (x) a2 b2 over the terms c a1 (x) a2 of s and d b1 (x) b2 of t,
    each summand an Element made by tensor and scale."""
    chi = H.twisting
    total = Element.zero()
    for (a1, a2), c in s.terms.items():
        for (b1, b2), d in t.terms.items():
            e = chi.prime * a2.degree * b1.degree + chi.doubleprime * a1.degree * b2.degree
            total = total + tensor(H.product(a1, b1), H.product(a2, b2)).scale(
                c * d * q_power(e))
    return total


# -- the full bialgebra sweeps ------------------------------------------


def _label_tuples(H, N, arity):
    """Every tuple of arity basis labels of total degree <= N, in
    lexicographic order of basis positions."""
    labels = H.labels_up_to(N)
    total = {l: l.degree for l in labels}
    return [t for t in iproduct(labels, repeat=arity)
            if sum(total[l] for l in t) <= N]


def associativity_witness(H, N):
    """The first failing triple of the full associativity sweep, over every
    basis triple (a, b, c) of total degree <= N, as check_bialgebra words its
    witness; None when (ab)c = a(bc) on all of them.  Each side is a product
    of Elements."""
    for a, b, c in _label_tuples(H, N, 3):
        ea, eb, ec = (Element.from_label(l) for l in (a, b, c))
        lhs = multiply(H, multiply(H, ea, eb), ec)
        rhs = multiply(H, ea, multiply(H, eb, ec))
        if lhs != rhs:
            return {"identity": "associativity",
                    "labels": ", ".join(map(H.label_text, (a, b, c))),
                    "lhs": element_str(H, lhs), "rhs": element_str(H, rhs)}
    return None


def multiplicativity_witness(H, N):
    """The first failing pair of the full coproduct-multiplicativity sweep,
    over every basis pair (a, b) of total degree <= N, as check_bialgebra
    words its witness; None when Delta(ab) = Delta(a) Delta(b) on all of
    them."""
    for a, b in _label_tuples(H, N, 2):
        ea, eb = Element.from_label(a), Element.from_label(b)
        lhs = comultiply(H, multiply(H, ea, eb))
        rhs = twisted_tensor_multiply(H, comultiply(H, ea), comultiply(H, eb))
        if lhs != rhs:
            return {"identity": "coproduct multiplicativity",
                    "labels": "%s, %s" % (H.label_text(a), H.label_text(b)),
                    "lhs": tensor_str(H, lhs), "rhs": tensor_str(H, rhs)}
    return None


BIALGEBRA_ORDER = ("unit law", "counit law", "associativity", "coassociativity",
                   "coproduct multiplicativity", "antipode law")
FULL_SWEEPS = (("associativity", associativity_witness),
               ("coproduct multiplicativity", multiplicativity_witness))


def assert_agrees_with_full_sweeps(H, N):
    """check_bialgebra(H, N) against the full sweeps: a full sweep passes
    when check_bialgebra got past its identity, and gives check_bialgebra's
    witness when that is where it stopped.  Returns the report."""
    rep = check_bialgebra(H, N)
    stop = (BIALGEBRA_ORDER.index(rep.witness["identity"]) if rep.witness
            else len(BIALGEBRA_ORDER))
    for identity, witness in FULL_SWEEPS:
        at = BIALGEBRA_ORDER.index(identity)
        if at < stop:
            assert witness(H, N) is None, str(rep)
        elif at == stop:
            assert rep.witness == witness(H, N)
    return rep


# -- the full pairing sweep ----------------------------------------------


def _product_coproduct_mismatch(H, K, twist, pair, N):
    """The first (u, v, k, lhs, rhs) at which <uv, k> = q^twist(|u|,|v|)
    <u (x) v, Delta k> fails, over every basis pair (u, v) of H of total
    degree <= N in bounded_tuples order and k in K's basis of degree
    |u| + |v|; pair(z, k) is <z, k> for labels z of H and k of K.  Both
    sides are summed one k at a time, over the terms of uv and Delta k."""
    labels = H.labels_up_to(N)
    for u, v in bounded_tuples([labels, labels], N):
        uv = H.product(u, v).terms.items()
        e = q_power(twist * u.degree * v.degree)
        for k in K.basis(u.degree + v.degree):
            lhs = sum((c * pair(z, k) for z, c in uv), ZERO)
            rhs = e * sum((c * pair(u, k1) * pair(v, k2)
                           for (k1, k2), c in K.coproduct(k).terms.items()), ZERO)
            if lhs != rhs:
                return u, v, k, lhs, rhs
    return None


@check
def check_pairing_axioms(P, N):
    """The full pairing sweep: <1, 1> = 1, then both product-coproduct
    identities for every basis pair (u, v) of total degree <= N, with every
    label a first factor, and each value read with pair_labels.  Named after the library check, so that its
    report is the one check_pairing_axioms gives."""
    minus, plus = P.minus, P.plus
    u = plus.unit_label
    lhs = P.pair_labels(minus.unit_label, u)
    if lhs != plus.counit_label(u):
        return {"identity": "unit against plus", "label": plus.label_text(u),
                "lhs": lhs, "rhs": plus.counit_label(u)}
    hit = _product_coproduct_mismatch(minus, plus, P.gamma.prime, P.pair_labels, N)
    if hit is not None:
        x, y, a, lhs, rhs = hit
        return {"identity": "product-coproduct (minus side)",
                "labels": "%s, %s | %s" % (minus.label_text(x), minus.label_text(y),
                                           plus.label_text(a)),
                "lhs": lhs, "rhs": rhs}
    hit = _product_coproduct_mismatch(plus, minus, P.gamma.doubleprime,
                                      lambda z, k: P.pair_labels(k, z), N)
    if hit is not None:
        a, b, x, lhs, rhs = hit
        return {"identity": "coproduct-product (plus side)",
                "labels": "%s | %s, %s" % (minus.label_text(x), plus.label_text(a),
                                           plus.label_text(b)),
                "lhs": lhs, "rhs": rhs}
    return None


# -- the full vacuum rank ------------------------------------------------


@check
def verify_vacuum(D, N):
    """The vacuum check with every positive minus label in every stratum's
    matrix, and each rank computed exactly by sparse_rank, with no F_p
    certificate.  Named after the library check, so that its report is the
    one verify_vacuum gives."""
    positive = [x for x in D.minus.labels_up_to(N) if x.degree]
    for x in positive:
        img = D.action_label(x, D.plus.unit_label)
        if not img.is_zero:
            return {"reason": "minus element does not annihilate the vacuum",
                    "label": D.minus.label_text(x),
                    "image": element_str(D.plus, img)}
    for degree in range(1, N + 1):
        stratum = D.plus.basis(degree)
        ids = {}
        rows = [{ids.setdefault((x, l), len(ids)): c
                 for x in positive for l, c in D.action_label(x, b).terms.items()}
                for b in stratum]
        rank = sparse_rank(rows)
        if rank != len(stratum):
            return {"degree": degree,
                    "reason": "joint kernel has dimension %d" % (len(stratum) - rank)}
    return None


def assert_verify_agrees_with_full_sweeps(inst, N):
    """verify's reports on inst at N, from cli.verify_suite, against the
    full sweeps: each check_bialgebra report through
    assert_agrees_with_full_sweeps, and the check_pairing_axioms and
    verify_vacuum reports equal to those of the full sweeps above.
    Returns the reports."""
    reports, _ = cli.verify_suite(inst, N)
    sides = {inst.plus.name: inst.plus, inst.minus.name: inst.minus}
    for rep in reports:
        if rep.check == "check_bialgebra":
            assert rep == assert_agrees_with_full_sweeps(sides[rep.instance], N)
        elif rep.check == "check_pairing_axioms":
            assert rep == check_pairing_axioms(inst.pairing, N)
        elif rep.check == "verify_vacuum":
            assert rep == verify_vacuum(inst.double, N)
    return reports


# -- the full shift-invariance sweep -------------------------------------


@check
def verify_shift_invariance(D, alpha, N):
    """The full shift-invariance sweep: the smash products (a#x)(b#y) of D
    and of D.shifted(alpha) compared for every pair of normal-form pairs of
    total degree <= N, in bounded_tuples order.  Named after the library
    check, so that its report is the one verify_shift_invariance gives,
    whose witness is the first pair that differs."""
    D2 = D.shifted(alpha)
    pairs = list(bounded_tuples(
        [D.plus.labels_up_to(N), D.minus.labels_up_to(N)], N))
    for s, t in bounded_tuples([pairs, pairs], N):
        lhs = D.smash_labels(s, t)
        rhs = D2.smash_labels(s, t)
        if lhs != rhs:
            (a, x), (b, y) = s, t
            return {"labels": "(%s # %s)(%s # %s)" % (
                        D.plus.label_text(a), D.minus.label_text(x),
                        D.plus.label_text(b), D.minus.label_text(y)),
                    "lhs": D.element_str(lhs), "rhs": D2.element_str(rhs)}
    return None


shift_invariance_witness = verify_shift_invariance


# -- the commutation sweep, one action at a time ------------------------


@check
def verify_commutation(D, N):
    """The commutation sweep with every x(ab) summed on its own from
    label_action, uncached: the left side reads no action cache, and no
    action is shared between generators.  The right side reads the cached
    actions and smash product, as the library check does.  Named after the
    library check, so that its report is the one verify_commutation
    gives."""
    plus_gens = _gen_labels(D.plus, D.gen_fn, N)
    minus_gens = _gen_labels(D.minus, D.gen_fn, N)
    product = D.plus.product
    cached = D.action_label
    uncached = partial(label_action, D.pairing)
    for a in plus_gens:
        for x in minus_gens:
            xa = D.smash_labels((D.plus.unit_label, x), (a, D.minus.unit_label))
            for b in D.plus.labels_up_to(N):
                lhs = _sum_terms((c, uncached(x, l).terms)
                                 for l, c in product(a, b).terms.items())
                rhs = _sum_terms((c * d, product(u, l).terms)
                                 for (u, y), c in xa.terms.items()
                                 for l, d in cached(y, b).terms.items())
                if lhs != rhs:
                    return {"labels": "x=%s, a=%s, b=%s" % (D.minus.label_text(x),
                                                            D.plus.label_text(a),
                                                            D.plus.label_text(b)),
                            "lhs": element_str(D.plus, Element._raw(lhs)),
                            "rhs": element_str(D.plus, Element._raw(rhs))}
    return None


commutation_witness = verify_commutation


# -- the pairing and the action from their definitions -------------------


def gram_value(P, x, a):
    """<x, a> on basis labels straight from the Gram callable, zero across
    degrees; nothing is read from the pairing's rows."""
    return P._gram_fn(x, a) if x.degree == a.degree else ZERO


def pair_brute(P, x, a):
    """<x, a> as the bilinear extension over every pair of terms:
    the sum of c d <k, l> over the terms c k of x and d l of a."""
    total = ZERO
    for k, c in x.terms.items():
        for l, d in a.terms.items():
            total = total + c * d * gram_value(P, k, l)
    return total


def pair_tensor_brute(P, s, t):
    """<s, t> on the tensor square, factorwise over every pair of terms:
    the sum of c d <k1, l1> <k2, l2> over the terms c k1 (x) k2 of s and
    d l1 (x) l2 of t."""
    total = ZERO
    for (k1, k2), c in s.terms.items():
        for (l1, l2), d in t.terms.items():
            total = total + c * d * gram_value(P, k1, l1) * gram_value(P, k2, l2)
    return total


def label_action(P, x, a):
    """x(a) on basis labels, one pair (x, a) at a time: the sum over
    Delta(a) = a1 (x) a2 of q^(gamma'(|a1|,|a2|)) <x, a2> a1, reading only
    the a2 in the row of x."""
    row = P.row(x)
    gp = P.gamma.prime
    out = {}
    for (a1, a2), c in P.plus.coproduct(a).terms.items():
        v = row.get(a2)
        if v is not None:
            _acc(out, a1, c * v * q_power(gp * a1.degree * a2.degree))
    return Element._raw(out)


def left_regular_action(P, x, a):
    """Action of the minus element x on the plus element a, from the
    definition

        x(a) = sum over Delta(a) = a1 (x) a2 of q^(gamma'(|a1|,|a2|)) <x, a2> a1,

    with the coproduct of whole elements, the pairing of pair_brute and no
    cached action."""
    gp = P.gamma.prime
    out = {}
    for (a1, a2), c in comultiply(P.plus, a).terms.items():
        v = pair_brute(P, x, Element.from_label(a2))
        if not v.is_zero:
            _acc(out, a1, c * v * q_power(gp * a1.degree * a2.degree))
    return Element._raw(out)


# -- the Fock action, bilinear over labels -------------------------------


def fock_apply(D, u, b):
    """Action of the double element u on the plus element b:
    (a#x)(b) = a * x(b), bilinear over the cached action on labels."""
    def on_labels(p, l):
        img = D.action_label(p[1], l)
        return img if img.is_zero else multiply(D.plus, Element.from_label(p[0]), img)

    return bilinear(on_labels, u, b)


# -- phi operators and the h-adjoint case table --------------------------


def phi_derivation(A, k, i, u):
    """The derivation phi_{k,i} on power-sum monomials:

    phi_{k,i}(p_{lam,j}) = m_k(lam) [k<i,j>] ([k]/k) p_{lam minus k, j},
    extended as a color-wise derivation to multipartition monomials."""
    factor = q_factor(A)
    out = {}
    for label, c in u.terms.items():
        mp = label.key
        for j0, lam in enumerate(mp):
            m = lam.count(k)
            if not m:
                continue
            f = factor(k, i, j0 + 1) * m
            if f.is_zero:
                continue
            _acc(out, mp_label(mp_remove_part(mp, k, j0 + 1)), c * f)
    return Element._raw(out)


def h_adjoint(A, k, i, n, j, double=None):
    """The action of h'_{k,i} on h_{n,j}, by the closed case split:

    <i,j> = 2  : [k+1] h_{n-k,j}
    <i,j> = -1 : h_{n-k,j} for k in {0,1}, else 0
    <i,j> = 0  : h_{n,j} for k = 0, else 0

    Other diagonal values fall back to the left regular action and require
    the double context.
    """
    ncolors = len(A)
    if k < 0 or n < 0:
        return Element.zero()
    aij = A[i - 1][j - 1]
    if k == 0:
        return h_element(ncolors, n, j)
    if aij == 2:
        return h_element(ncolors, n - k, j).scale(q_int_sym(k + 1))
    if aij == -1:
        if k == 1:
            return h_element(ncolors, n - 1, j)
        return Element.zero()
    if aij == 0:
        return Element.zero()
    if double is None:
        raise ValueError(
            "h_adjoint has no closed form for <i,j> = %d; pass the double context"
            % aij)
    return left_regular_action(double.pairing, h_element(ncolors, k, i),
                               h_element(ncolors, n, j))


# -- antipode adjointness ------------------------------------------------


class HypothesisError(ValueError):
    """A check was invoked outside the hypotheses that make it meaningful."""


@check
def antipode_adjointness_check(P, N):
    """Verify <x, S(a)> = <S(x), a> on basis pairs of degree total <= N.

    Meaningful only when gamma' = gamma''; otherwise the hypothesis fails
    and the check refuses to run rather than reporting a failure.
    """
    if P.gamma.prime != P.gamma.doubleprime:
        raise HypothesisError(
            "antipode adjointness requires gamma' = gamma''; "
            "%s has gamma = %s" % (P.name, P.gamma))
    for x in P.minus.labels_up_to(N):
        for a in P.plus.basis(x.degree):
            lhs = P.pair(Element.from_label(x),
                         antipode(P.plus, Element.from_label(a)))
            rhs = P.pair(antipode(P.minus, Element.from_label(x)),
                         Element.from_label(a))
            if lhs != rhs:
                return {"labels": "%s | %s" % (P.minus.label_text(x), P.plus.label_text(a)),
                        "lhs": lhs, "rhs": rhs}
    return None


# -- the reference printer -----------------------------------------------
# The printer as it was before it stopped doing scalar arithmetic: it
# compares each coefficient with ONE and with a freshly negated ONE.


def terms_str(u, unit, sort_key, text, reverse=False):
    """Printed form of u: terms in sort_key order (descending when reverse),
    each a coefficient prefix and text(key), joined by signs; the unit key
    prints as a bare scalar."""
    if u.is_zero:
        return "0"
    if set(u.terms) == {unit}:
        return str(u.terms[unit])
    parts = []
    for k in sorted(u.terms, key=sort_key, reverse=reverse):
        c = u.terms[k]
        if k == unit:
            s = _scalar_text(c)
        elif c == ONE:
            s = text(k)
        elif c == -ONE:
            s = "-" + text(k)
        else:
            s = _scalar_text(c) + "*" + text(k)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


def _scalar_text(c):
    """A scalar as a printed factor, re-parseable: a Laurent polynomial with
    several terms is parenthesized (a quotient already prints as
    (num)/(den))."""
    if c.is_laurent and not c.is_monomial:
        return "(%s)" % c
    return str(c)


def reference_element_str(H, u):
    return terms_str(u, H.unit_label, H.label_sort_key, H.label_text)


def reference_tensor_str(H, u):
    return terms_str(u, None, lambda k: tuple(map(H.label_sort_key, k)),
                     lambda k: " (x) ".join(map(H.label_text, k)))


def reference_double_str(D, u):
    """A normal form sorted, highest degree first, by the plus key and the
    minus key concatenated into one tuple."""
    return terms_str(u, (D.plus.unit_label, D.minus.unit_label),
                     lambda p: D.plus.label_sort_key(p[0]) + D.minus.label_sort_key(p[1]),
                     D.pair_text, reverse=True)

"""Twisted Heisenberg doubles: smash products of a paired pair of
presentations, their Fock representation, and the verification suites.

The double exists only for compatible data (chi' = -gamma'); its
elements are spanned by normal forms a # x with a in the plus algebra and x
in the minus algebra, and the product is

    (a#x)(b#y) = sum over Delta(x) = x1 (x) x2 of
        q^(gamma''(|b|,|x2|) + xi''(|b|-|x1|,|x2|)) (a * x1(b)) # (x2 y)

where x1(b) is the twisted left regular action of the minus side on the
plus side through the pairing.  Degrees inside the double are signed
integers: deg(a#x) = |a| - |x|.

Every action is computed by one kernel, _actions: x(u) for each minus x
that pairs with a right factor of Delta(u), in one scan of Delta(l) per
label l of u.  A context caches it once per plus label b, as actions(b) =
{x: x(b)}; action_label(x, b) is a lookup there, and every Fock-space check
reads this one cache, as does _fock, the one Fock kernel: fock_matrix
builds each column u(b) through it, reading actions(b) once per label b.  The
only other cache of a context is its normal-form memo: the element each
text given to expr.evaluate_text evaluated to.  Smash products on labels
and generator elements are built on every call; a repeated text never
reaches them.  A text that raises leaves nothing in the memo, registering a
generator drops the whole memo, and a shifted context starts with empty
caches; only the Gram rows of its pairing are shared, since a shift leaves
the Gram values unchanged.

The commutation sweep computes its left side x(ab) with the same kernel at
every degree, once per (a, b) for all minus generators x, and caches none
of it, so it checks the action cache against an independent sum; see
verify_commutation.

The product is the core (1#x)(b#1) lifted by the products a*u and x2*y, so
the shift-invariance sweep compares the cores of the double and of its
shifted copy, for |x| + |b| <= N, instead of every smash product of total
degree <= N; the proof that this is exactly as strong, witness included,
is in verify_shift_invariance.  It computes each core once and caches none:

    instance      N   cores   smash products
    qheis A2      4     164              971
    lattice I2    5     416            3,435
    lattice I2    6     990           11,139

The vacuum and faithfulness suites need a full rank, which its image in F_p
certifies (linalg.rank_image); the vacuum suite first stacks the actions
of the minus generators alone, see verify_vacuum.  Only an image rank below the number of rows,
or an entry undefined at the specialization, is eliminated over Q(q) by
sparse_rank, which then decides the verdict and the rank in its report.
"""

from __future__ import annotations

from .hopf import (Element, _acc, _sum_terms, bilinear, bounded_tuples,
                   element_str, generating_set, multiply, shifted_presentation,
                   terms_str)
from .linalg import rank_image, sparse_rank
from .pairing import TwistedPairing
from .report import check
from .scalars import ONE, ZERO, q_power
from .twisting import TwistingDatum, compatibility_check, form


class IncompatiblePairError(ValueError):
    """The twisting data do not satisfy chi' = -gamma'."""


_NO_ACTION = Element.zero()  # x(b) of an x that actions(b) does not list


def _actions(P, terms, col):
    """x(u) for every minus x at once, where u has the term dict terms: the
    sum over the terms c l of u and Delta(l) = a1 (x) a2 of
    c q^(gamma'(|a1|,|a2|)) <x, a2> a1, in one scan of Delta(l) per label l.
    col(a2) is {x: <x, a2>} over the x with <x, a2> != 0, or None; the
    result maps each x it lists to the term dict of x(u), and an x missing
    from it acts as zero.  The action's q-exponent is written here only."""
    gp = P.gamma.prime
    out = {}
    for l, cl in terms.items():
        for (a1, a2), c in P.plus.coproduct(l).terms.items():
            xs = col(a2)
            if xs:
                ct = cl * c * q_power(form(gp, a1.degree, a2.degree))
                for x, v in xs.items():
                    _acc(out.setdefault(x, {}), a1, ct * v)
    return out


def _core(D, x, b):
    """The core (1#x)(b#1) = sum over Delta(x) = x1 (x) x2 of
    q^(gamma''(|b|,|x2|) + xi''(|b|-|x1|,|x2|)) x1(b) # x2, as a term dict
    on normal-form pairs (u, x2), from the cached actions(b) and with no
    product applied.  The smash product's q-exponent is written here only."""
    gpp, xipp = D.gamma.doubleprime, D.xi.doubleprime
    bdeg = b.degree
    acts = D.actions(b)
    out = {}
    for (x1, x2), c in D.minus.coproduct(x).terms.items():
        act = acts.get(x1, _NO_ACTION).terms
        if act:
            k = c * q_power(form(gpp, bdeg, x2.degree) + form(xipp, bdeg - x1.degree, x2.degree))
            for u, cu in act.items():
                _acc(out, (u, x2), k * cu)
    return out


class HeisenbergDouble:
    """Smash-product context for a compatible twisted pairing.

    perfect marks whether the pairing is (believed) nondegenerate; contexts
    built from degenerate forms still present the algebra and its relations
    but refuse the Fock-space suites that presuppose duality.
    """

    def __init__(self, pairing, name=None, perfect=True):
        if not isinstance(pairing, TwistedPairing):
            raise TypeError("pairing must be a TwistedPairing")
        if not compatibility_check(pairing.plus.twisting, pairing.gamma):
            raise IncompatiblePairError(
                "cannot form the double of %s: chi' = [%d] but -(gamma')^T = [%d]"
                % (pairing.name, pairing.plus.twisting.prime, -pairing.gamma.prime))
        self.pairing = pairing
        self.plus = pairing.plus
        self.minus = pairing.minus
        self.gamma = pairing.gamma
        self.xi = pairing.minus.twisting
        self.name = name or pairing.name
        self.perfect = perfect
        self._action = {}
        self._generators = {}
        # text -> Element, filled and bounded by expr.evaluate_text
        self._normal_forms = {}
        # gen_fn(N) lists the generator labels of degree <= N, one list
        # for both sides; None takes every basis label as a generator.
        self.gen_fn = None

    # -- basic elements --------------------------------------------------

    def unit(self):
        return Element._raw({(self.plus.unit_label, self.minus.unit_label): ONE})

    def embed_plus(self, a):
        u = self.minus.unit_label
        return Element._raw({(l, u): c for l, c in a.terms.items()})

    def embed_minus(self, x):
        u = self.plus.unit_label
        return Element._raw({(u, l): c for l, c in x.terms.items()})

    def register_generator(self, name, builder):
        """builder(args) -> ("plus"|"minus", Element); context-free so
        shifted copies of the context can reuse it.  Drops the whole
        normal-form memo."""
        self._generators[name] = builder
        self._normal_forms = {}

    def generator_element(self, name, args=()):
        """The generator name[args] embedded in the double, built afresh."""
        if name not in self._generators:
            raise KeyError("unknown generator %r for instance %s" % (name, self.name))
        side, el = self._generators[name](args)
        return self.embed_plus(el) if side == "plus" else self.embed_minus(el)

    def generator_names(self):
        return sorted(self._generators)

    # -- cached structure ------------------------------------------------

    def actions(self, b):
        """{x: x(b)} for the plus label b, over every minus x that pairs with
        a right factor of Delta(b), cached; an x missing from it acts as
        zero.  Callers share the returned dict and must not mutate it."""
        hit = self._action.get(b)
        if hit is None:
            acts = _actions(self.pairing, {b: ONE}, self.pairing.col)
            hit = self._action.setdefault(b, {x: Element._raw(t) for x, t in acts.items()})
        return hit

    def action_label(self, x_label, a_label):
        """Left regular action on basis labels, read from actions(a_label):
        callers share the returned Element and must not mutate it."""
        return self.actions(a_label).get(x_label, _NO_ACTION)

    def smash_labels(self, s, t):
        """(a#x)(b#y) on normal-form pairs s = (a, x) and t = (b, y): the core
        (1#x)(b#1) lifted by the products a*u and x2*y, that is the sum of
        k (a*u) # (x2*y) over the terms k u # x2 of _core(self, x, b); the
        result is not cached."""
        (a, x), (b, y) = s, t
        out = {}
        for (u, x2), k in _core(self, x, b).items():
            right = self.minus.product(x2, y).terms
            for la, ca in self.plus.product(a, u).terms.items():
                k1 = k * ca
                for lx, cx in right.items():
                    _acc(out, (la, lx), k1 * cx)
        return Element._raw(out)

    # -- derived contexts ------------------------------------------------

    def shifted(self, alpha, beta=0):
        """The double with both coproducts shifted by the form alpha and both
        products by the form beta, integer constants; the pairing twisting
        moves to (gamma' - alpha + beta, gamma'' - alpha + beta) and the
        normal-form basis is unchanged.

        Compatibility is re-checked, and holds exactly when beta is
        antisymmetric, which on Z means beta = 0; otherwise
        IncompatiblePairError is raised.  An alpha or beta that is not an
        int, or is a bool, is refused up front with TypeError, by
        shifted_presentation."""
        plus_s = shifted_presentation(self.plus, alpha, beta)
        minus_s = shifted_presentation(self.minus, alpha, beta)
        gamma_s = TwistingDatum(self.gamma.prime - alpha + beta,
                                self.gamma.doubleprime - alpha + beta)
        pairing_s = self.pairing.retwisted(minus_s, plus_s, gamma_s,
                                           self.pairing.name + "~shifted")
        out = HeisenbergDouble(pairing_s, name=self.name + "~shifted",
                               perfect=self.perfect)
        out._generators = dict(self._generators)
        out.gen_fn = self.gen_fn
        return out

    # -- printing --------------------------------------------------------

    def pair_sort_key(self, pair):
        """The pair (plus key, minus key), which orders normal-form pairs as
        the two keys concatenated would."""
        a, x = pair
        return self.plus.label_sort_key(a), self.minus.label_sort_key(x)

    def pair_text(self, pair):
        a, x = pair
        pu, mu = self.plus.unit_label, self.minus.unit_label
        if x is mu:
            return self.plus.label_text(a)
        if a is pu:
            return self.minus.label_text(x)
        return self.plus.label_text(a) + "#" + self.minus.label_text(x)

    def element_str(self, u):
        """Canonical printed normal form, highest-degree terms first."""
        return terms_str(u, (self.plus.unit_label, self.minus.unit_label),
                         self.pair_sort_key, self.pair_text, reverse=True)

    def __repr__(self):
        return "HeisenbergDouble(%s)" % self.name


# -- products -----------------------------------------------------------


def smash_multiply(D, u, v):
    """Product of two double elements, bilinear over smash_labels."""
    return bilinear(D.smash_labels, u, v)


# -- Fock representation ------------------------------------------------


def _fock(D, terms, b):
    """u(b) as a term dict, for the double element u with the term dict terms
    and the plus label b: the sum of c a*x(b) over the terms c a#x of u."""
    acts = D.actions(b)
    out = {}
    for (a, x), c in terms.items():
        if x in acts:
            for l, e in multiply(D.plus, Element.from_label(a), acts[x]).terms.items():
                _acc(out, l, c * e)
    return out


def max_term_degree(u):
    """Largest signed degree |a| - |x| of a term a#x of u; 0 when u = 0."""
    return max((a.degree - x.degree for a, x in u.terms), default=0)


def fock_matrix(D, u, Nin):
    """Matrix of u on the plus algebra as (row_labels, col_labels, matrix):
    column b, for b of degree <= Nin, is u(b) from _fock, and the rows,
    of degree <= max(0, Nin + max_term_degree(u)), hold every term of it."""
    cols = D.plus.labels_up_to(Nin)
    rows = D.plus.labels_up_to(max(0, Nin + max_term_degree(u)))
    index = {l: i for i, l in enumerate(rows)}
    matrix = [[ZERO] * len(cols) for _ in rows]
    for j, b in enumerate(cols):
        for l, c in _fock(D, u.terms, b).items():
            matrix[index[l]][j] = c
    return rows, cols, matrix


# -- verification suites ------------------------------------------------


def _gen_labels(H, hook, N):
    """Generator labels of H of degree <= N."""
    if hook is not None:
        return [l for l in hook(N) if l.degree <= N]
    return H.labels_up_to(N)


@check
def verify_commutation(D, N):
    """Operator identity behind the smash product: for minus x, plus a,

        x(a b) = ((1#x)(a#1))(b)
               = sum q^(gamma''(|a|,|x2|) + xi''(|a|-|x1|,|x2|)) x1(a) x2(b),

    the Fock action of the smash product (1#x)(a#1) that sessions use,
    D.smash_labels, checked for all generator pairs and all basis inputs b
    of degree <= N, with a outer, x in the middle and b inner.  Both sides
    are summed into term dicts.

    The right side reads the cached actions twice, x1(a) inside (1#x)(a#1)
    and y(b) to apply its terms to b; verify_vacuum and the shift sweep read
    the same cache.  The left side is computed afresh at every degree, so
    the sweep checks that cache against an independent sum: the first time
    some x reaches (a, b), the actions of every minus generator on ab are
    computed together by _actions, the kernel behind the cache, through an
    index {a2: {x: <x, a2>}} of the generators' Gram rows, in one scan of
    Delta(l) per label l of ab.  They are cached nowhere and kept for the
    current a only, until the later x have read them.  Delta(l) is read
    through the plus coproduct cache, so a corrupted cached coproduct is
    seen.  The comparisons, their order, and so the first failure and its
    witness, are those of a sweep that computes each x(ab) on its own.
    """
    plus_gens = _gen_labels(D.plus, D.gen_fn, N)
    minus_gens = _gen_labels(D.minus, D.gen_fn, N)
    inputs = D.plus.labels_up_to(N)
    prod = D.plus.product
    cached = D.action_label
    index = {}
    for x in minus_gens:
        for a2, v in D.pairing.row(x).items():
            index.setdefault(a2, {})[x] = v
    for a in plus_gens:
        fresh = {}  # b -> {x: x(ab)} for the current a
        for x in minus_gens:
            xa = D.smash_labels((D.plus.unit_label, x), (a, D.minus.unit_label))
            for b in inputs:
                acts = fresh.get(b)
                if acts is None:
                    acts = fresh[b] = _actions(D.pairing, prod(a, b).terms, index.get)
                lhs = acts.get(x, {})
                rhs = _sum_terms((c * d, prod(u, l).terms)
                                 for (u, y), c in xa.terms.items()
                                 for l, d in cached(y, b).terms.items())
                if lhs != rhs:
                    return {"labels": "x=%s, a=%s, b=%s" % (D.minus.label_text(x),
                                                            D.plus.label_text(a),
                                                            D.plus.label_text(b)),
                            "lhs": element_str(D.plus, Element._raw(lhs)),
                            "rhs": element_str(D.plus, Element._raw(rhs))}
    return None


def _require_perfect(D, name):
    if not D.perfect:
        raise ValueError(
            "%s presupposes a nondegenerate pairing; context %s is "
            "presentation-only" % (name, D.name))


@check
def verify_vacuum(D, N):
    """The unit of the plus side is a vacuum vector: every positive-degree
    minus element annihilates it, and the joint kernel of the minus action
    on each positive stratum of degree <= N is zero.

    The joint kernel of a stratum is zero when the matrix with one column
    per stratum label b, stacking x(b) over the minus labels x of positive
    degree, has full rank.  Each column is read from the cached actions(b).
    A stratum first stacks only the x in the generating set G of the minus
    side (``hopf.generating_set``): a vector that every x kills is killed
    by every g in G, so a full rank there is a full rank of the whole
    matrix, with nothing presupposed.  At qheis A2, N=8, that is 16 minus
    labels instead of 433.  Only a stratum that falls short stacks every
    x, and its rank and report are those of the whole matrix.  A rank is
    full when its image in F_p is (see the module docstring); otherwise
    sparse_rank gives the dimension of the kernel."""
    _require_perfect(D, "verify_vacuum")
    for x in D.minus.labels_up_to(N):
        if x.degree == 0:
            continue
        img = D.action_label(x, D.plus.unit_label)
        if not img.is_zero:
            return {"reason": "minus element does not annihilate the vacuum",
                    "label": D.minus.label_text(x),
                    "image": element_str(D.plus, img)}
    gens = set(generating_set(D.minus, N))
    for degree in range(1, N + 1):
        stratum = D.plus.basis(degree)
        if rank_image(_stacked(D, stratum, gens.__contains__)) == len(stratum):
            continue
        rows = _stacked(D, stratum, lambda x: x.degree > 0)
        rank = rank_image(rows)
        if rank != len(stratum):
            rank = sparse_rank(rows)
        if rank != len(stratum):
            return {"degree": degree,
                    "reason": "joint kernel has dimension %d" % (len(stratum) - rank)}
    return None


def _stacked(D, stratum, keep):
    """For each label b of stratum, x(b) stacked over the minus labels x
    that keep(x) accepts, as a sparse row {position of (x, l): c} over the
    terms c l of x(b), read from the cached actions(b)."""
    ids = {}
    rows = []
    for b in stratum:
        col = {}
        for x, act in D.actions(b).items():
            if keep(x):
                for l, c in act.terms.items():
                    col[ids.setdefault((x, l), len(ids))] = c
        rows.append(col)
    return rows


@check
def verify_faithful(D, lam, N):
    """Injectivity of the Fock representation on the signed stratum lam,
    restricted to normal-form pairs with both factor degrees <= N.

    Inputs up to the largest minus degree in the stratum suffice: inputs of
    degree m only see minus factors of degree <= m, so the strata are
    triangular and perfectness clears them bottom-up.  The row of a pair
    (a, x) holds (a#x)(b) = a x(b) for every input b, summed from the
    cached action x(b) and the cached products a*l.  The rank is certified
    in F_p, and computed by sparse_rank when that falls short (see the
    module docstring)."""
    _require_perfect(D, "verify_faithful")
    pairs = []
    for da in range(N + 1):
        dx = da - lam
        if 0 <= dx <= N:
            pairs.extend((a, x) for a in D.plus.basis(da) for x in D.minus.basis(dx))
    if not pairs:
        return None
    nin = max(x.degree for _, x in pairs)
    inputs = D.plus.labels_up_to(nin)
    prod = D.plus.product
    ids = {}
    rows = []
    for a, x in pairs:
        flat = {}
        for b in inputs:
            img = _sum_terms((c, prod(a, l).terms)
                             for l, c in D.action_label(x, b).terms.items())
            for l, c in img.items():
                flat[ids.setdefault((b, l), len(ids))] = c
        rows.append(flat)
    rank = rank_image(rows)
    if rank != len(pairs):
        rank = sparse_rank(rows)
    if rank != len(pairs):
        return {"stratum": lam,
                "reason": "representation matrix has rank %d on %d pairs" % (rank, len(pairs))}
    return None


@check
def verify_shift_invariance(D, alpha, N):
    """Structure constants of the double are unchanged by a simultaneous
    coproduct shift alpha on both sides: every smash product (a#x)(b#y) of
    normal-form pairs with total degree sum <= N agrees coefficientwise on
    the double and on D.shifted(alpha).

    The sweep compares only the cores (1#x)(b#1), for |x| + |b| <= N, which
    is exactly as strong.  smash_labels builds (a#x)(b#y) as the sum of
    k (a*u) # (x2*y) over the terms k u # x2 of the core, and the shift
    scales each product by q^beta with beta = 0, so both doubles apply the
    same products to their cores: if every core agrees, every smash product
    does.  Conversely, by the unit law, which check_bialgebra checks first,
    the smash product ((1,x),(b,1)) is the core itself, so a differing core
    is a failing identity of the full sweep.  It is also the full sweep's
    first failure.  That sweep runs over pairs s, then t, in bounded_tuples
    order, and the unit label comes first in each basis.  So its pairs
    s = (1, x) come first, in the order of x, and for each b the pair
    t = (b, 1) comes before every (b, y).  A failure at
    ((1,x),(b,1)) needs a differing core (x, b), and with x outer and b
    inner the first differing core names the full sweep's first failing
    pair; the witness prints smash_labels of that pair on both doubles.

    Each core is read once and cached nowhere."""
    D2 = D.shifted(alpha)
    pu, mu = D.plus.unit_label, D.minus.unit_label
    for x, b in bounded_tuples([D.minus.labels_up_to(N), D.plus.labels_up_to(N)], N):
        if _core(D, x, b) != _core(D2, x, b):
            s, t = (pu, x), (b, mu)
            return {"labels": "(%s # %s)(%s # %s)" % (
                        D.plus.label_text(pu), D.minus.label_text(x),
                        D.plus.label_text(b), D.minus.label_text(mu)),
                    "lhs": D.element_str(D.smash_labels(s, t)),
                    "rhs": D2.element_str(D2.smash_labels(s, t))}
    return None

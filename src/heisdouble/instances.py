"""Concrete instances: the quantum Weyl algebra, quantum Heisenberg algebras
attached to a symmetric integer matrix, and lattice Heisenberg algebras.

Each builder returns an :class:`Instance` bundling the two presentations,
the twisted pairing, and the double context, with the instance's generator
names registered for expression evaluation.

The quantum Heisenberg and lattice instances share one symmetric-algebra
presentation on colored power sums.  Its coproduct reads the split tables
of partitions.mp_sub_multisets, one call per coproduct: each term comes
with its complement and the size of each tensor factor, so its two labels
are made directly, in the order of the colors' sub-multisets.

Their Gram values come from sym_pair: a product, over part values k, of
permanents of the color matrices (factor(k, i, j)).  Columns of one color
are interchangeable, so each permanent runs over its rows with the
remaining count of each column color as state, at most m prod_j (b_j + 1)
states for m parts of value k whose plus colors occur b_j times, instead
of m! permutations.  factor computes each value once per (k, i, j) and
keeps it with the instance, not in a module-level table.  A value is zero
unless the two uncolored partitions (mp_shape) agree, which is exact:
every permutation the sum runs over matches part values one to one.  So
each minus label's Gram row is built on its support alone, the plus labels
of its degree with its uncolored partition, from an index made once per
degree.
"""

from __future__ import annotations

import json
from functools import cache
from math import factorial

from .double import HeisenbergDouble, IncompatiblePairError
from .hopf import BasisLabel, Element, HopfPresentation
from .linalg import det_bareiss
from .pairing import TwistedPairing
from .partitions import (check_partition, mp_empty, mp_shape,
                         mp_sub_multisets, mp_union, multipartitions_of,
                         multiplicities, partitions_of)
from .scalars import (ONE, RatFunc, ZERO, q_binomial, q_factorial, q_int_sym)
from .twisting import TwistingDatum


class ConfigError(ValueError):
    """An instance configuration could not be interpreted."""


class SingularFormError(ValueError):
    """The symmetrized form fails the nonsingularity precondition."""


class Instance:
    """A built instance: paired presentations plus the double context.
    Two instances are equal when their fields are."""

    __slots__ = ("name", "kind", "pairing", "double", "meta")

    def __init__(self, name, kind, pairing, double, meta=None):
        self.name = name
        self.kind = kind
        self.pairing = pairing
        self.double = double
        self.meta = {} if meta is None else meta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.kind, self.pairing, self.double, self.meta)
                == (other.name, other.kind, other.pairing, other.double, other.meta))

    def __repr__(self):
        return ("Instance(name=%r, kind=%r, pairing=%r, double=%r, meta=%r)"
                % (self.name, self.kind, self.pairing, self.double, self.meta))

    @property
    def plus(self):
        return self.pairing.plus

    @property
    def minus(self):
        return self.pairing.minus


# -- quantum Weyl algebra ------------------------------------------------


def _weyl_presentation(name, letter, twisting, binomial):
    unit = BasisLabel(0, 0)

    def basis_fn(degree):
        return (BasisLabel(degree, degree),)

    def product_fn(l1, l2):
        n = l1.key + l2.key
        return Element.from_label(BasisLabel(n, n))

    def coproduct_fn(label):
        n = label.key
        return Element({(BasisLabel(k, k), BasisLabel(n - k, n - k)):
                        binomial(n, k) for k in range(n + 1)})

    def text_fn(label):
        if label.key == 0:
            return "1"
        if label.key == 1:
            return letter
        return "%s^%d" % (letter, label.key)

    return HopfPresentation(name, twisting, unit, basis_fn, product_fn,
                            coproduct_fn, text_fn)


def build_weyl():
    """The quantum Weyl algebra as a twisted Heisenberg double.

    Plus side k[x] with q-binomial coproduct and chi = (0, zeta); minus side
    k[d] carrying the inverted q-binomials and the dual twisting (-zeta, 0);
    pairing <d^m, x^n> = delta_mn [n]_q! twisted by gamma = (0, zeta), where
    zeta(m, n) = mn, the form with constant 1.
    """
    chi = TwistingDatum(0, 1)
    xi = TwistingDatum(-1, 0)
    gamma = TwistingDatum(0, 1)

    plus = _weyl_presentation("weyl+", "x", chi, q_binomial)
    minus = _weyl_presentation(
        "weyl-", "d", xi, lambda n, k: q_binomial(n, k).subs_q_inverse())

    def gram_fn(x_label, a_label):
        return q_factorial(a_label.key)

    pairing = TwistedPairing(minus, plus, gamma, gram_fn, name="weyl")
    double = HeisenbergDouble(pairing, name="weyl")
    double.register_generator(
        "x", lambda args: ("plus", _power_label_element(args, "x")))
    double.register_generator(
        "d", lambda args: ("minus", _power_label_element(args, "d")))
    return Instance("weyl", "weyl", pairing, double)


def _power_label_element(args, letter):
    if args:
        raise ConfigError("generator %s takes no arguments" % letter)
    return Element.from_label(BasisLabel(1, 1))


# -- symmetric-algebra presentations (shared by qheis and lattice) -------


def mp_label(mp):
    return BasisLabel(mp, sum(sum(lam) for lam in mp))


def _sym_presentation(name, ncolors, letter):
    unit = mp_label(mp_empty(ncolors))
    twisting = TwistingDatum(0, 0)

    def basis_fn(degree):
        return tuple(mp_label(mp) for mp in multipartitions_of(degree, ncolors))

    def product_fn(l1, l2):
        return Element.from_label(mp_label(mp_union(l1.key, l2.key)))

    def coproduct_fn(label):
        n = label.degree
        t = {}
        for mu, rest, k, ways in mp_sub_multisets(label.key):
            t[(BasisLabel(mu, k), BasisLabel(rest, n - k))] = RatFunc.from_int(ways)
        return Element._raw(t)

    def text_fn(label):
        parts = []
        for i, lam in enumerate(label.key, start=1):
            for k in lam:
                parts.append("%s[%d,%d]" % (letter, k, i))
        return "*".join(parts) if parts else "1"

    return HopfPresentation(name, twisting, unit, basis_fn, product_fn,
                            coproduct_fn, text_fn)


def _in_color(lam, i, ncolors):
    """The multipartition with the parts lam in color i and none elsewhere."""
    mp = list(mp_empty(ncolors))
    mp[i - 1] = tuple(lam)
    return tuple(mp)


# -- pairing values ------------------------------------------------------


def sym_pair(factor, mp_minus, mp_plus):
    """Pairing of two power-sum monomials: the permutation sum collapses to
    a product, over part values k, of permanents of the color matrices
    (factor(k, i, j)), with a row for each part k of mp_minus in its color i
    and a column for each part k of mp_plus in its color j.  It is zero
    unless the two uncolored partitions agree, since every permutation of
    the sum matches part values one to one; so the plus labels with the
    uncolored partition of mp_minus hold every nonzero value of its row.

    Columns of one color are interchangeable, so the permanent of the m
    parts of value k is f(0, b), where b_j counts the columns of color j,
        f(i, c) = sum_j c_j factor(k, row_i, j) f(i + 1, c - e_j)
    and f(m, 0) = 1: c_j is the number of color-j columns that rows
    0..i-1 left free.  The rows are taken one at a time, each state c
    carrying the sum over the ways of reaching it, so there are at most
    m prod_j (b_j + 1) states, against m! permutations."""
    if mp_shape(mp_minus) != mp_shape(mp_plus):
        return ZERO
    rows = {}
    for i, lam in enumerate(mp_minus, start=1):
        for k in lam:
            rows.setdefault(k, []).append(i)
    cols = {}
    for j, lam in enumerate(mp_plus, start=1):
        for k in lam:
            counts = cols.setdefault(k, {})
            counts[j] = counts.get(j, 0) + 1
    total = ONE
    for k, row_colors in sorted(rows.items()):
        colors, counts = zip(*sorted(cols[k].items()))
        level = {counts: ONE}
        for i in row_colors:
            entries = [factor(k, i, j) for j in colors]
            nxt = {}
            for c, v in level.items():
                for t, ct in enumerate(c):
                    if ct and not entries[t].is_zero:
                        c2 = c[:t] + (ct - 1,) + c[t + 1:]
                        w = v * entries[t] * ct
                        prev = nxt.get(c2)
                        nxt[c2] = w if prev is None else prev + w
            level = nxt
        # one state is left after the last row, all counts zero
        total = total * level.get((0,) * len(colors), ZERO)
        if total.is_zero:
            return ZERO
    return total


def q_factor(A):
    """factor(k, i, j) = [k <i,j>] [k] / k for the quantum Heisenberg form,
    computed once per (k, i, j) and kept with the returned function."""
    @cache
    def factor(k, i, j):
        return q_int_sym(k * A[i - 1][j - 1]) * q_int_sym(k) / k
    return factor


def lattice_factor(B):
    """factor(k, i, j) = k <v_i, v_j> for the lattice form, computed once per
    (k, i, j) and kept with the returned function."""
    @cache
    def factor(k, i, j):
        return RatFunc.from_int(k * B[i - 1][j - 1])
    return factor


# -- power sums and complete homogeneous elements ------------------------


def z_quantum(lam):
    """Z_lambda = prod over part values k of [k]^m_k m_k! (symmetric [k])."""
    lam = check_partition(lam)
    out = ONE
    for k, m in multiplicities(lam).items():
        out = out * q_int_sym(k) ** m * factorial(m)
    return out


@cache
def h_element(ncolors, n, i):
    """Complete homogeneous element h_{n,i} = sum over lam of p_{lam,i}/Z_lam.

    Cached: callers share the returned Element and must not mutate it."""
    if n < 0:
        return Element.zero()
    if n == 0:
        return Element.from_label(mp_label(mp_empty(ncolors)))
    terms = {}
    for lam in partitions_of(n):
        terms[mp_label(_in_color(lam, i, ncolors))] = ONE / z_quantum(lam)
    return Element._raw(terms)


def nonsingularity_check(A, kmax):
    """The first k in 1..kmax whose color matrix ([k <i,j>]) is singular, or
    None when all of them are nonsingular."""
    for k in range(1, kmax + 1):
        m = [[q_int_sym(k * aij) for aij in row] for row in A]
        if det_bareiss(m).is_zero:
            return k
    return None


# -- builders ------------------------------------------------------------


def _int_matrix(m, message):
    """The config matrix m as a tuple of integer rows: the one validator of
    cartan, form and shift matrices.  ConfigError(message) unless m is a
    list of rows of ints (a bool is refused)."""
    try:
        rows = tuple(tuple(row) for row in m)
    except TypeError:
        raise ConfigError(message) from None
    if any(not isinstance(v, int) or isinstance(v, bool) for row in rows for v in row):
        raise ConfigError(message)
    return rows


def _check_symmetric(m, what):
    m = _int_matrix(m, "%s must be a list of integer rows" % what)
    if not m or any(len(row) != len(m) for row in m):
        raise ConfigError("%s must be a nonempty square matrix" % what)
    if m != tuple(zip(*m)):
        raise ConfigError("%s must be symmetric" % what)
    return m


def _power_sum(ncolors, n, i):
    if n < 1:
        raise ConfigError("part %r must be a positive integer" % (n,))
    return Element.from_label(mp_label(_in_color((n,), i, ncolors)))


# name, side, element(ncolors, n, i); qheis has all four, lattice p and p'.
# h_element is looked up at call time, so a wrapper on it sees every call.
_GENERATORS = (("p", "plus", _power_sum), ("p'", "minus", _power_sum),
               ("h", "plus", lambda nc, n, i: h_element(nc, n, i)),
               ("h'", "minus", lambda nc, n, i: h_element(nc, n, i)))


def _generator(name, side, element, ncolors):
    def builder(args):
        if len(args) != 2:
            raise ConfigError("generator %s requires two arguments [n,i]" % name)
        n, i = int(args[0]), int(args[1])
        if not (1 <= i <= ncolors):
            raise ConfigError("color %r out of range 1..%d" % (i, ncolors))
        return side, element(ncolors, n, i)
    return builder


def _sym_instance(kind, key, M, name, factor, perfect, generators):
    """Untwisted symmetric algebras on colored power sums p[n,i] and p'[n,i],
    paired by sym_pair(factor, ...); qheis and lattice differ in factor."""
    ncolors = len(M)
    name = name or "%s[%d]" % (kind, ncolors)
    plus = _sym_presentation(name + "+", ncolors, "p")
    minus = _sym_presentation(name + "-", ncolors, "p'")

    def gram_fn(x_label, a_label):
        return sym_pair(factor, x_label.key, a_label.key)

    by_shape = {}   # degree -> {uncolored partition: plus labels}

    def support(x_label):
        """The plus labels of degree |x| with the uncolored partition of x,
        in basis order: every other value of sym_pair is zero."""
        index = by_shape.get(x_label.degree)
        if index is None:
            index = {}
            for a in plus.basis(x_label.degree):
                index.setdefault(mp_shape(a.key), []).append(a)
            index = by_shape.setdefault(x_label.degree, index)
        return index.get(mp_shape(x_label.key), ())

    pairing = TwistedPairing(minus, plus, TwistingDatum(0, 0), gram_fn,
                             name=name, support=support)
    double = HeisenbergDouble(pairing, name=name, perfect=perfect)
    for gen, side, element in generators:
        double.register_generator(gen, _generator(gen, side, element, ncolors))
    double.gen_fn = lambda N: [
        mp_label(_in_color((n,), i, ncolors))
        for n in range(1, N + 1) for i in range(1, ncolors + 1)]
    return Instance(name, kind, pairing, double, meta={key: M})


def build_qheis(A, name=None):
    """Quantum Heisenberg instance for a symmetric integer matrix A.

    Refuses when some color matrix ([k<i,j>]) with k <= 8 is singular,
    naming the offending k.
    """
    A = _check_symmetric(A, "cartan matrix")
    k = nonsingularity_check(A, 8)
    if k is not None:
        raise SingularFormError("cannot build qheis: [k<i,j>] singular at k=%d" % k)
    return _sym_instance("qheis", "cartan", A, name, q_factor(A), True,
                         _GENERATORS)


def build_lattice(B, name=None):
    """Lattice Heisenberg instance for a symmetric integer form B.

    A degenerate form still yields the algebra and its relations, but the
    double context is flagged presentation-only and the Fock suites refuse.
    """
    B = _check_symmetric(B, "lattice form")
    perfect = not det_bareiss(
        [[RatFunc.from_int(v) for v in row] for row in B]).is_zero
    return _sym_instance("lattice", "form", B, name, lattice_factor(B), perfect,
                         _GENERATORS[:2])


def shifted_instance(inst, alpha, beta=0):
    """Instance with both coproducts shifted by the form alpha and both
    products by the form beta, integer constants; see
    :meth:`HeisenbergDouble.shifted`, which raises IncompatiblePairError
    unless beta is antisymmetric, that is 0."""
    double = inst.double.shifted(alpha, beta)
    return Instance(inst.name + "~shifted", inst.kind, double.pairing, double,
                    meta=dict(inst.meta))


# -- standard matrices ---------------------------------------------------


def cartan_a(n):
    """Symmetric Cartan matrix of finite type A_n."""
    if n < 1:
        raise ValueError("A_n requires n >= 1")
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(n)) for i in range(n))


def identity_form(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_form(n):
    return tuple((0,) * n for _ in range(n))


def rank_one_form(n):
    return tuple((1,) * n for _ in range(n))


# -- configuration loading ----------------------------------------------


def load_instance(config):
    """Build an instance from a config dict or a path to a JSON file.

    Recognized shapes:
      {"type": "weyl", "shift": {...}?, "name": ...?}
      {"type": "qheis", "cartan": [[...]], "shift": ...?, "name": ...?}
      {"type": "lattice", "form": [[...]], "shift": ...?, "name": ...?}
    shift is {"alpha": [[a]]?, "beta": [[b]]?}: 1x1 matrices, since every
    instance is graded by N, so a form is one integer.
    """
    if isinstance(config, str):
        try:
            with open(config) as fh:
                config = json.load(fh)
        except OSError as e:
            raise ConfigError("cannot read config: %s" % e) from None
        except json.JSONDecodeError as e:
            raise ConfigError("config is not valid JSON: %s" % e) from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    kind = config.get("type")
    name = config.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("instance name must be a string")
    shift = _parse_shift(config.get("shift"))
    try:
        if kind == "weyl":
            inst = build_weyl()
        elif kind == "qheis":
            if "cartan" not in config:
                raise ConfigError("qheis config requires a 'cartan' matrix")
            inst = build_qheis(config["cartan"], name=name)
        elif kind == "lattice":
            if "form" not in config:
                raise ConfigError("lattice config requires a 'form' matrix")
            inst = build_lattice(config["form"], name=name)
        else:
            raise ConfigError("unknown instance type %r" % (kind,))
    except (SingularFormError, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from None
    if shift is not None:
        for m in shift:
            if len(m) != 1 or len(m[0]) != 1:
                raise ConfigError("shift matrices must be 1x1 for %s, got %dx%d"
                                  % (inst.name, len(m), max(map(len, m), default=0)))
        try:
            inst = shifted_instance(inst, *(m[0][0] for m in shift))
        except IncompatiblePairError as e:
            raise ConfigError(str(e)) from None
    if name:
        # every report names the configured instance: name+, name-, name
        inst.name = inst.pairing.name = inst.double.name = name
        inst.plus.name = name + "+"
        inst.minus.name = name + "-"
    return inst


def _parse_shift(raw):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("shift must be an object with alpha/beta matrices")
    alpha, beta = raw.get("alpha"), raw.get("beta")
    if alpha is None and beta is None:
        raise ConfigError("shift requires at least one of alpha, beta")
    return tuple(_int_matrix([[0]] if m is None else m,
                             "shift alpha/beta must be lists of integer rows")
                 for m in (alpha, beta))

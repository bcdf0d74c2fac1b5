"""Exact scalar arithmetic over Z[q,q^-1] and Q(q), plus q-integer combinatorics.

Every scalar in the library is a :class:`RatFunc`, a rational function in the
formal variable q kept in a canonical reduced form so that equality is
structural.  Laurent polynomials get their own class because most structure
constants live in Z[q,q^-1] and the common operations never need a gcd there.
A RatFunc takes RatFunc, LaurentPoly and int operands, an int n standing for
the constant n; every other operand is refused.  No floating point is used
anywhere.

``_canonical``, which reduces a (num, den) pair of Laurent polynomials to
canonical form with a polynomial gcd, keeps the canonical pairs of the last
CANONICAL_CACHE_SIZE distinct (num, den) pairs in an LRU cache, keyed by
value.  The same few fractions recur: one pass over every query of the A2
session pool makes 17,190 calls on 1,874 distinct pairs, and an A2
``verify`` at N=8 24,130 calls on 970.  The cache is process-wide and
shared by every instance; a hit returns the same two immutable polynomials.
A LaurentPoly builds its printed text once and keeps it, so the text of a
memoised numerator or denominator is built once too; ``==`` and ``hash``
ignore it.  ``q_factorial`` keeps the last Q_FACTORIAL_CACHE_SIZE values it
computed.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class LaurentPoly:
    """Sparse Laurent polynomial in q with integer coefficients.

    Stored as a dict mapping exponent -> nonzero coefficient.  The
    representation is canonical (zero coefficients are dropped), so ``==``
    and ``hash`` are structural.  Instances are treated as immutable.
    """

    __slots__ = ("_c", "_hash", "_str")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    c[e] = v
        self._c = c
        self._hash = None
        self._str = None

    @classmethod
    def _raw(cls, coeffs):
        # trusted constructor: coeffs already has no zero entries
        self = object.__new__(cls)
        self._c = coeffs
        self._hash = None
        self._str = None
        return self

    @classmethod
    def const(cls, n):
        """The constant Laurent polynomial n."""
        return cls._raw({0: n} if n else {})

    @classmethod
    def q_power(cls, e):
        """The monomial q^e (e may be negative)."""
        return cls._raw({e: 1})

    def items(self):
        return self._c.items()

    @property
    def is_zero(self):
        return not self._c

    @property
    def is_constant(self):
        return not self._c or set(self._c) == {0}

    @property
    def is_monomial(self):
        return len(self._c) == 1

    def coeff(self, e):
        """Coefficient of q^e."""
        return self._c.get(e, 0)

    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self._c)

    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self._c)

    def content(self):
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return gcd(*self._c.values())

    def subs_q_inverse(self):
        """Substitute q -> q^-1 (negate all exponents)."""
        return LaurentPoly._raw({-e: v for e, v in self._c.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    def __neg__(self):
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c or not other._c:
            return LP_ZERO
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        return LaurentPoly._raw(c)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # A constant hashes as its integer, so that a RatFunc integer, which
        # compares equal to both, hashes consistently with each.
        if self._hash is None:
            if self.is_constant:
                self._hash = hash(self._c.get(0, 0))
            else:
                self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        # built once: the value is immutable
        if self._str is None:
            self._str = self._render()
        return self._str

    def _render(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            a = abs(v)
            if e == 0:
                body = str(a)
            elif e == 1:
                body = "q" if a == 1 else "%d*q" % a
            else:
                body = "q^%d" % e if a == 1 else "%d*q^%d" % (a, e)
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append((" + " if v > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


LP_ZERO = LaurentPoly._raw({})
LP_ONE = LaurentPoly._raw({0: 1})
_UNIT = {0: 1}  # the terms of the polynomial 1


def laurent_mul(a, b):
    """a * b for Laurent polynomials, with no arithmetic when a factor is 0
    or 1."""
    if not a._c or b._c == _UNIT:
        return a
    if not b._c or a._c == _UNIT:
        return b
    return a * b


def _coeffs(p, lo):
    """Integer coefficient list of p * q^-lo, lowest degree first."""
    out = [0] * (p.max_exp() - lo + 1)
    for e, v in p.items():
        out[e - lo] = v
    return out


def _laurent(c, lo):
    """The Laurent polynomial sum of c[i] * q^(i + lo)."""
    return LaurentPoly._raw({i + lo: v for i, v in enumerate(c) if v})


def _divide(a, g):
    """Exact quotient a / g of integer coefficient lists, or None.

    a is nonzero; g has a nonzero last coefficient.  Long division
    over Z: each step divides the leading coefficient by that of g, so a
    nonzero remainder there, or a leftover term of degree below deg g, means
    the quotient is not in Z[q].  The constant terms are tried first, which
    turns most non-divisors away at once.
    """
    dg, lg = len(g) - 1, g[-1]
    n = len(a) - dg
    if n <= 0 or g[0] and a[0] % g[0]:
        return None
    a = a[:]
    out = [0] * n
    for shift in range(n - 1, -1, -1):
        v = a[shift + dg]
        if v:
            f, r = divmod(v, lg)
            if r:
                return None
            out[shift] = f
            for i in range(dg):
                a[i + shift] -= f * g[i]
    if any(a[:dg]):
        return None
    return out


def _eval(c, xi):
    v = 0
    for x in reversed(c):
        v = v * xi + x
    return v


def _gcd_heu(a, b, xi):
    """One trial of the heuristic gcd GCDHEU (Char, Geddes and Gonnet 1989).

    a and b are primitive integer coefficient lists; xi > 2 * min(|a|, |b|)
    + 2 in the max norm.  The integer gcd h of a(xi) and b(xi), written in
    symmetric base xi, gives a candidate with positive leading digit (h > 0);
    its primitive part is the gcd of a and b as soon as it divides both (for
    such xi no proper divisor of the gcd can pass that test).  Returns
    (g, a / g, b / g), or None when the candidate does not divide.
    """
    h = gcd(_eval(a, xi), _eval(b, xi))
    half = xi // 2
    g = []
    while h:
        d = h % xi
        if d > half:
            d -= xi
        g.append(d)
        h = (h - d) // xi
    if len(g) == 1:
        return [1], a, b
    c = gcd(*g)
    if c != 1:
        g = [v // c for v in g]
    qa = _divide(a, g)
    if qa is None:
        return None
    qb = _divide(b, g)
    if qb is None:
        return None
    return g, qa, qb


def _primitive(c):
    g = gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _gcd_prs(a, b):
    """Primitive gcd, with positive leading coefficient, of two primitive
    integer coefficient lists, by the primitive polynomial remainder
    sequence: each pseudo-remainder is divided by its content."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = a[:]
        db, lb = len(b) - 1, b[-1]
        while len(r) > db:
            f, shift = r[-1], len(r) - 1 - db
            r = [lb * v for v in r]
            for i, bv in enumerate(b):
                r[i + shift] -= f * bv
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r)
    return a if a[-1] > 0 else [-v for v in a]


_HEU_TRIALS = 4


def _gcd_cofactors(a, b):
    """(g, a / g, b / g) for g the primitive gcd, with positive leading
    coefficient, of two primitive integer coefficient lists.

    GCDHEU at an evaluation point above the bound, squared after each
    candidate that does not divide; after _HEU_TRIALS of them, the PRS.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 3
    for _ in range(_HEU_TRIALS):
        found = _gcd_heu(a, b, xi)
        if found is not None:
            return found
        xi *= xi
    g = _gcd_prs(a, b)
    return g, _divide(a, g), _divide(b, g)


def laurent_exact_div(num, den):
    """Exact quotient of two Laurent polynomials.

    Raises ArithmeticError when den does not divide num; used by
    fraction-free elimination where divisions are exact by construction.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LP_ZERO
    v, m = num.min_exp(), den.min_exp()
    out = _divide(_coeffs(num, v), _coeffs(den, m))
    if out is None:
        raise ArithmeticError("inexact polynomial division")
    return _laurent(out, v - m)


# Distinct (num, den) pairs whose canonical form _canonical keeps.
CANONICAL_CACHE_SIZE = 4096


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _canonical(num, den):
    """Reduce num/den to the canonical pair.

    The canonical denominator is an ordinary polynomial with den(0) != 0 and
    positive leading coefficient, coprime to the (shifted) numerator over
    Q[q], with gcd(content(num), content(den)) = 1.  Zero is (0, 1).  A
    denominator equal to 1 is the object LP_ONE.  Integer arithmetic
    throughout.  Memoised on the pair: a hit returns the same two objects.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero scalar")
    if num.is_zero:
        return LP_ZERO, LP_ONE
    v, m = num.min_exp(), den.min_exp()
    a0, b0 = a, b = _coeffs(num, v), _coeffs(den, m)
    ca, cb = gcd(*a), gcd(*b)
    c = gcd(ca, cb)
    if b[-1] < 0:
        c = -c
    if len(a) > 1 and len(b) > 1:
        # a(0) and b(0) are nonzero, so q does not divide their gcd
        _, a, b = _gcd_cofactors([x // ca for x in a], [x // cb for x in b])
        sa, sb = ca // c, cb // c
        a = [sa * x for x in a]
        b = [sb * x for x in b]
    elif c != 1:
        a = [x // c for x in a]
        b = [x // c for x in b]
    # a polynomial that is already canonical is returned as it came, so the
    # memo holds it once, in its key and in its value
    if b == [1]:
        den = LP_ONE
    elif m or b != b0:
        den = _laurent(b, 0)
    return num if not m and a == a0 else _laurent(a, v - m), den


# The scalars n and q^e with n, e in _INTERNED_RANGE, one object per value,
# made when first asked for: coproduct multiplicities, Gram values and
# twist powers repeat the same few constants.  The range keeps integer
# literals read from user input from growing the tables without bound.
_INTERNED_RANGE = range(-1024, 1025)
_INTS = {}
_POWERS = {}


class RatFunc:
    """Element of Q(q) in canonical reduced form.

    num is a Laurent polynomial, den an ordinary polynomial with nonzero
    constant term and positive leading coefficient; the two are coprime and
    share no integer content.  A denominator equal to 1 is always the object
    LP_ONE, so ``den is LP_ONE`` tests for a Laurent value.  Equality is
    structural, and equal values hash equal, also across the int and
    LaurentPoly operands that ``==`` accepts; any other operand, a rational
    from the ``fractions`` module included, is refused.  Instances are
    immutable, so from_int and q_power may hand out shared objects.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=LP_ONE):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        self.num, self.den = _canonical(num, den)
        self._hash = None

    @classmethod
    def _make(cls, num, den):
        # trusted constructor: (num, den) already canonical
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def from_int(cls, n):
        hit = _INTS.get(n)
        if hit is None:
            hit = cls._make(LaurentPoly.const(n), LP_ONE)
            if n in _INTERNED_RANGE:
                hit = _INTS.setdefault(n, hit)
        return hit

    @classmethod
    def q_power(cls, e):
        hit = _POWERS.get(e)
        if hit is None:
            hit = cls._make(LaurentPoly.q_power(e), LP_ONE) if e else cls.from_int(1)
            if e in _INTERNED_RANGE:
                hit = _POWERS.setdefault(e, hit)
        return hit

    @property
    def is_zero(self):
        return not self.num._c

    @property
    def is_laurent(self):
        """True when the scalar lies in Z[q,q^-1]."""
        return self.den is LP_ONE

    @property
    def is_monomial(self):
        """A single term c*q^e with integer c."""
        return self.den is LP_ONE and self.num.is_monomial

    def as_laurent(self):
        if self.den is not LP_ONE:
            raise ValueError("%s is not a Laurent polynomial" % self)
        return self.num

    def subs_q_inverse(self):
        """The image under the field map q -> q^-1."""
        return RatFunc(self.num.subs_q_inverse(), self.den.subs_q_inverse())

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc.from_int(other)
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        # zero is Laurent, and a zero summand needs no canonical form
        if not o.num._c:
            return self
        if not self.num._c:
            return o
        if self.den is LP_ONE and o.den is LP_ONE:
            return RatFunc._make(self.num + o.num, LP_ONE)
        num = laurent_mul(self.num, o.den) + laurent_mul(o.num, self.den)
        return RatFunc(num, laurent_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        # 1 and 0 are Laurent, and decide the product without arithmetic
        if o.den is LP_ONE:
            if o.num._c == _UNIT:
                return self
            if not o.num._c:
                return o
        if self.den is LP_ONE:
            if self.num._c == _UNIT:
                return o
            if not self.num._c:
                return self
            if o.den is LP_ONE:
                return RatFunc._make(self.num * o.num, LP_ONE)
        # a canonical denominator is a monomial only when it is constant
        if o.num.is_monomial and o.den.is_monomial:
            (e, c), = o.num.items()
            return self._times_monomial(c, e, o.den.coeff(0))
        if self.num.is_monomial and self.den.is_monomial:
            (e, c), = self.num.items()
            return o._times_monomial(c, e, self.den.coeff(0))
        return RatFunc(laurent_mul(self.num, o.num), laurent_mul(self.den, o.den))

    __rmul__ = __mul__

    def _times_monomial(self, c, e, d):
        """self * c*q^e/d for coprime integers c != 0 and d > 0, without a
        polynomial gcd: q divides no canonical denominator, so only the
        integer contents can cancel."""
        g1 = gcd(c, self.den.content())
        g2 = gcd(d, self.num.content())
        c, d = c // g1, d // g2
        num = LaurentPoly._raw({k + e: c * (v // g2) for k, v in self.num.items()})
        if g1 == 1 and d == 1:
            return RatFunc._make(num, self.den)
        den = {k: d * (v // g1) for k, v in self.den.items()}
        return RatFunc._make(num, LP_ONE if den == _UNIT else LaurentPoly._raw(den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero scalar")
        if o.num.is_monomial and o.den.is_monomial:
            (e, c), = o.num.items()
            d = o.den.coeff(0)
            return self._times_monomial(d if c > 0 else -d, -e, abs(c))
        return RatFunc(laurent_mul(self.num, o.den), laurent_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("scalar powers must be integers")
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num._c == o.num._c and self.den._c == o.den._c

    def __hash__(self):
        # Must agree with every int and LaurentPoly that __eq__ accepts: a
        # Laurent value hashes as its numerator, and a value with a
        # denominator equals neither, so it hashes as the pair.
        if self._hash is None:
            if self.den is LP_ONE:
                self._hash = hash(self.num)
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.num.is_zero

    def __str__(self):
        if self.den is LP_ONE:
            # the numerator's text, once built, without a second call
            return self.num._str or str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % str(self)


ZERO = RatFunc.from_int(0)
ONE = RatFunc.from_int(1)
TWO = RatFunc.from_int(2)
Q = RatFunc.q_power(1)
QINV = RatFunc.q_power(-1)


def q_power(e):
    """The scalar q^e."""
    return RatFunc.q_power(e)


def q_int(n):
    """Gaussian integer [n]_q = 1 + q + ... + q^(n-1) for n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_int requires a nonnegative integer, got %r" % (n,))
    return RatFunc._make(LaurentPoly._raw({e: 1 for e in range(n)}), LP_ONE)


# Distinct n whose [n]_q! q_factorial keeps.
Q_FACTORIAL_CACHE_SIZE = 256


def q_factorial(n):
    """Gaussian factorial [n]_q! = [1]_q [2]_q ... [n]_q."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_factorial requires a nonnegative integer, got %r" % (n,))
    return _q_factorial(n)


@lru_cache(maxsize=Q_FACTORIAL_CACHE_SIZE)
def _q_factorial(n):
    out = ONE
    for i in range(2, n + 1):
        out = out * q_int(i)
    return out


def q_binomial(n, k):
    """Gaussian binomial [n choose k]_q; zero outside 0 <= k <= n."""
    if not isinstance(n, int) or not isinstance(k, int) or n < 0:
        raise ValueError("q_binomial requires integer arguments with n >= 0")
    if k < 0 or k > n:
        return ZERO
    # Gaussian binomials lie in Z[q], so the quotient is exact
    num = q_factorial(n).as_laurent()
    den = (q_factorial(k) * q_factorial(n - k)).as_laurent()
    return RatFunc._make(laurent_exact_div(num, den), LP_ONE)


def q_int_sym(n):
    """Symmetric quantum integer [n], any integer n.

    For n >= 0 this is (q^-n - q^n)/(q^-1 - q) = q^(-n+1) + q^(-n+3) + ...
    + q^(n-1).  Negative n follows the sign rule [-n] = (-1)^(n+1) [n]: the
    same Laurent polynomial for odd n (so [-1] = [1] = 1), its negative for
    even n.  The quotient formula would instead give [-n] = -[n].
    """
    if not isinstance(n, int):
        raise ValueError("q_int_sym requires an integer, got %r" % (n,))
    if n == 0:
        return ZERO
    m = abs(n)
    lp = LaurentPoly._raw({e: 1 for e in range(-m + 1, m, 2)})
    if n < 0:
        if m % 2 == 0:
            lp = -lp
    return RatFunc._make(lp, LP_ONE)

"""Twisting forms and the twisting calculus.

Degrees are integers: nonnegative in the one-sided algebras, of either sign
inside the double.  A biadditive form on Z is c lam mu for an integer c, so
a form is stored as that integer c and its transpose is itself; twisting
data are pairs (c', c'') of such forms.
"""

from __future__ import annotations


def form(c, lam, mu):
    """The biadditive form with constant c on the degrees lam, mu: c lam mu."""
    return c * lam * mu


def require_form(what, c):
    """TypeError unless c is an int (a bool is refused): a form constant."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError("%s must be an integer form constant, got %s"
                        % (what, type(c).__name__))


class TwistingDatum:
    """A pair (prime, doubleprime) of form constants: immutable, equal and
    hashed as the pair."""

    __slots__ = ("prime", "doubleprime")

    def __init__(self, prime, doubleprime):
        require_form("twisting prime", prime)
        require_form("twisting doubleprime", doubleprime)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "doubleprime", doubleprime)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prime == other.prime and self.doubleprime == other.doubleprime

    def __hash__(self):
        return hash((self.prime, self.doubleprime))

    def __repr__(self):
        return "TwistingDatum(prime=%r, doubleprime=%r)" % (self.prime, self.doubleprime)

    def __str__(self):
        return "([%d], [%d])" % (self.prime, self.doubleprime)


def dual_twisting(chi, gamma):
    """Twisting datum of the graded dual of an algebra twisted by chi,
    relative to a pairing twisted by gamma:

    xi' = chi' + gamma' - gamma'' and xi'' = chi'' + gamma' - gamma''.
    """
    g = gamma.prime - gamma.doubleprime
    return TwistingDatum(chi.prime + g, chi.doubleprime + g)


def compatibility_check(chi, gamma):
    """Whether chi' = -gamma', the condition for the double to close."""
    return chi.prime == -gamma.prime

"""Twisting forms and the twisting calculus.

Degrees are integers: nonnegative in the one-sided algebras, of either sign
inside the double.  A biadditive form on Z is c lam mu for an integer c, so
a form is stored as that integer c and its transpose is itself; twisting
data are pairs (c', c'') of such forms.
"""

from __future__ import annotations

from dataclasses import dataclass


def form(c, lam, mu):
    """The biadditive form with constant c on the degrees lam, mu: c lam mu."""
    return c * lam * mu


def require_form(what, c):
    """TypeError unless c is an int (a bool is refused): a form constant."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError("%s must be an integer form constant, got %s"
                        % (what, type(c).__name__))


@dataclass(frozen=True)
class TwistingDatum:
    """A pair (prime, doubleprime) of form constants."""

    prime: int
    doubleprime: int

    def __post_init__(self):
        require_form("twisting prime", self.prime)
        require_form("twisting doubleprime", self.doubleprime)

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

"""Uniform pass/fail reports for the verification suites.

Every check follows one protocol.  It takes its context first (a
presentation, a pairing or a double, whose ``name`` the report carries) and
the degree bound N last among its positional arguments, and returns the
witness of its first failing identity as a dict, or None when every
identity holds.  Keyword arguments, such as check_pairing_axioms's
``presupposed``, pass through to the check and do not enter the report.
The ``check`` decorator turns that into a Report named after the function;
this module is the only place that builds one.  It refuses a negative N
for every check: a sweep over no degrees would pass having checked
nothing.
"""

from __future__ import annotations

import functools


class Report:
    """Outcome of one degree-truncated verification.

    witness, present only on failure, carries the identity that broke and a
    printable description of the offending elements and both sides.  Two
    reports are equal when their fields are.
    """

    __slots__ = ("check", "instance", "N", "status", "witness")

    def __init__(self, check, instance, N, status, witness=None):
        self.check = check
        self.instance = instance
        self.N = N
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.check, self.instance, self.N, self.status, self.witness)
                == (other.check, other.instance, other.N, other.status, other.witness))

    def __repr__(self):
        return ("Report(check=%r, instance=%r, N=%r, status=%r, witness=%r)"
                % (self.check, self.instance, self.N, self.status, self.witness))

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        out = {"check": self.check, "instance": self.instance,
               "N": self.N, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __str__(self):
        head = "%s[%s, N=%d]: %s" % (self.check, self.instance, self.N, self.status)
        if self.witness is None:
            return head
        detail = ", ".join("%s=%s" % (k, v) for k, v in self.witness.items())
        return head + " (" + detail + ")"


def check(fn):
    """The check fn(context, ..., N, **options), which returns its first
    witness or None, as a function returning the Report: named fn.__name__,
    for context.name at N, with each witness value str()-ed in key order.
    ValueError when N is negative."""
    @functools.wraps(fn)
    def run(*args, **options):
        if args[-1] < 0:
            raise ValueError("degree bound must be nonnegative, got %d" % args[-1])
        witness = fn(*args, **options)
        if witness is None:
            return Report(fn.__name__, args[0].name, args[-1], "pass")
        return Report(fn.__name__, args[0].name, args[-1], "fail",
                      {k: str(v) for k, v in witness.items()})
    return run

"""The mutation net over the Gram values of a pairing.

A verify through cli.verify_suite, the path of `heisdouble verify`, fills
the pairing's rows and columns.  The net then multiplies one cached
<x, a> of total degree <= N by q at a time, in both the row of x and the
column of a, and runs the same suite again on the same objects.  Each
corruption must make some check fail, unless its entry is listed in
UNCAUGHT.  Both bialgebra checks still pass, so check_pairing_axioms runs
its reduced sweeps; each of its reports must equal the full sweep's.
"""

import pytest

from heisdouble import cli
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a
from heisdouble.scalars import Q
import oracles

# case -> (build, N, number of nonzero Gram values of total degree <= N)
MUTATION_CASES = {
    "weyl-4": (build_weyl, 4, 5),
    "lattice-i2-3": (lambda: build_lattice(((1, 0), (0, 1))), 3, 18),
    "qheis-a2-2": (lambda: build_qheis(cartan_a(2)), 2, 18),
}

# (case, printed entry) of the Gram values that no check catches when
# multiplied by q, each with its reason.  None is listed.  The pairing
# sweeps catch every value but those of the power sums of degree N,
# <p'[N,i], p[N,j]>, which no pairing identity up to N relates to another
# value.  The commutation sweep catches those: its left side reads the
# generators' rows afresh, and its right side the actions cached before
# the corruption.
UNCAUGHT = {}


def _run(inst, N):
    """The checks of verify that fail on inst at N, and the report of
    check_pairing_axioms."""
    reports, _ = cli.verify_suite(inst, N)
    failed = {r.check for r in reports if not r.passed}
    assert "check_bialgebra" not in failed
    return failed, next(r for r in reports if r.check == "check_pairing_axioms")


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_gram_value_is_caught(case):
    build, N, n_values = MUTATION_CASES[case]
    inst = build()
    P, D = inst.pairing, inst.double
    assert not _run(inst, N)[0]
    # build every column up to N, so that each corruption can be undone
    for a in P.plus.labels_up_to(N):
        P.col(a)
    cached = len(D._action)
    entries = [(x, a) for x in P.minus.labels_up_to(N) for a in P.row(x)]
    assert len(entries) == n_values
    for x, a in entries:
        printed = "<%s, %s>" % (P.minus.label_text(x), P.plus.label_text(a))
        v = P.row(x)[a]
        P.row(x)[a] = P.col(a)[x] = v * Q
        failed, pairing = _run(inst, N)
        full = oracles.check_pairing_axioms(P, N)
        P.row(x)[a] = P.col(a)[x] = v
        if (case, printed) in UNCAUGHT:
            assert not failed, (printed, sorted(failed))
        else:
            assert failed, printed
        assert pairing == full
        # nothing was built from a corrupted value that outlives the run
        assert len(D._action) == cached
    assert not _run(inst, N)[0]

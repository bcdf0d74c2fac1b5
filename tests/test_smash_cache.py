"""The mutation net over the smash cache of a double.

A full verify fills HeisenbergDouble._smash with the generator products
(1#x)(a#1) that the commutation sweep reads.  The net then multiplies one
term of one cached product by q at a time and reruns the three checks that
read the double's caches: commutation, vacuum and shift invariance.  Each
corruption must make one of them fail, unless its entry is listed in
UNCAUGHT.
"""

import pytest

from heisdouble.double import verify_commutation, verify_shift_invariance, verify_vacuum
from heisdouble.hopf import Element
from heisdouble.instances import build_weyl
from heisdouble.scalars import Q
from test_actions import _full_verify, a2, i2

# case -> (build, N, number of cached smash terms after a full verify)
MUTATION_CASES = {
    "weyl-4": (build_weyl, 4, 55),
    "lattice-i2-3": (i2, 3, 42),
    "qheis-a2-2": (a2, 2, 24),
}

# (case, printed key) of the cached products that no check catches when one
# term is multiplied by q, each with its reason.  The commutation sweep
# applies every cached (1#x)(a#1) to each input b, so none is listed.
UNCAUGHT = {}


def _failed_checks(D, N):
    return {r.check for r in (verify_commutation(D, N), verify_vacuum(D, N),
                              verify_shift_invariance(D, 1, N))
            if not r.passed}


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
def test_every_corrupted_smash_term_is_caught(case):
    build, N, n_terms = MUTATION_CASES[case]
    inst = build()
    D = inst.double
    _full_verify(inst, N)
    seen = 0
    for key, entry in list(D._smash.items()):
        a, x, b, y = key
        printed = "(%s # %s)(%s # %s)" % (D.plus.label_text(a), D.minus.label_text(x),
                                          D.plus.label_text(b), D.minus.label_text(y))
        for term in entry.terms:
            terms = dict(entry.terms)
            terms[term] = terms[term] * Q
            D._smash[key] = Element._raw(terms)
            failed = _failed_checks(D, N)
            if (case, printed) in UNCAUGHT:
                assert not failed, (printed, failed)
            else:
                assert failed, (printed, D.element_str(entry))
            seen += 1
        D._smash[key] = entry
    assert seen == n_terms
    assert not _failed_checks(D, N)

"""The mutation net over the cached antipodes of both sides.

check_bialgebra fills H._antipode with S(a) for every label a of total
degree <= N.  The net then multiplies one term of one cached S(a) by q at a
time and runs check_bialgebra again on the same presentation.  Each
corruption must fail the antipode law at a itself: the law at a reads S(a)
through the term S(a) (x) 1 of Delta(a), and the laws before a read only
antipodes of lower degree.
"""

import pytest

from heisdouble.hopf import Element, check_bialgebra
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a
from heisdouble.scalars import Q

# case -> (build, N, number of terms of the cached S(a), |a| <= N, on each
# side).  On these instances each S(a) is a single term c*a.
MUTATION_CASES = {
    "weyl-4": (build_weyl, 4, 5),
    "lattice-i2-3": (lambda: build_lattice(((1, 0), (0, 1))), 3, 18),
    "qheis-a2-2": (lambda: build_qheis(cartan_a(2)), 2, 8),
}


@pytest.mark.parametrize("case", sorted(MUTATION_CASES))
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_every_corrupted_antipode_term_is_caught(case, side):
    build, N, n_terms = MUTATION_CASES[case]
    H = getattr(build(), side)
    assert check_bialgebra(H, N).passed
    labels = H.labels_up_to(N)
    assert sorted(H._antipode, key=labels.index) == labels
    entries = [(a, k) for a in labels for k in H._antipode[a].terms]
    assert len(entries) == n_terms
    for a, k in entries:
        s = H._antipode[a]
        H._antipode[a] = Element._raw({l: c * Q if l is k else c
                                       for l, c in s.terms.items()})
        witness = check_bialgebra(H, N).witness
        H._antipode[a] = s
        assert witness is not None, (H.label_text(a), H.label_text(k))
        assert (witness["identity"], witness["labels"]) == ("antipode law",
                                                            H.label_text(a))
        # nothing was built from a corrupted antipode that outlives the run
        assert len(H._antipode) == len(labels)
    assert check_bialgebra(H, N).passed

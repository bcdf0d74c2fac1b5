"""`verify` when a presupposition of check_pairing_axioms fails.

check_pairing_axioms takes its first factors from a generating set only
when both check_bialgebra reports of the same run passed.  Each case here
corrupts one cached structure constant that check_bialgebra catches, then
runs `verify` through cli.main, in text and with --json.  The output must
match tests/golden/verify-<case>.txt and .json byte for byte: those files
hold the output of the full sweeps.  The pairing line must be the full
sweep's report, which here differs from what the reduced sweep would print.
"""

import contextlib
import io
from pathlib import Path

import pytest

from heisdouble import cli
from heisdouble.hopf import Element
from heisdouble.instances import build_lattice, build_qheis, cartan_a, mp_label
from heisdouble.pairing import check_pairing_axioms
from heisdouble.scalars import Q
import oracles

GOLDEN = Path(__file__).parent / "golden"


def a2_bad_product():
    # the plus product p[1,1]*p[1,1] . p[1,2] is off by q: its first factor
    # is not a generator, so only the full pairing sweep reads it
    inst = build_qheis(cartan_a(2))
    H = inst.plus
    a, b = mp_label(((1, 1), ())), mp_label(((), (1,)))
    H._prod[(a, b)] = Element._raw({k: c * Q for k, c in H.product(a, b).terms.items()})
    return inst, 3


def i2_bad_coproduct():
    # one reduced term of the minus coproduct of p'[1,1]*p'[1,1]*p'[1,2]
    # doubled; the pairing reads it against the pair p[1,1]*p[1,2], p[1,1],
    # whose first factor is not a generator
    inst = build_lattice(((1, 0), (0, 1)))
    H = inst.minus
    x = mp_label(((1, 1), (1,)))
    terms = dict(H.coproduct(x).terms)
    key = (mp_label(((1,), (1,))), mp_label(((1,), ())))
    terms[key] = terms[key] + terms[key]
    H._coprod[x] = Element._raw(terms)
    return inst, 3


CASES = {
    "qheis-a2-bad-product-3": a2_bad_product,
    "lattice-i2-bad-coproduct-3": i2_bad_coproduct,
}


def run_verify(inst, N, *flags):
    """(exit status, stdout) of `verify` through cli.main on the prebuilt inst."""
    real = cli.load_instance
    cli.load_instance = lambda path: inst
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--instance", "-", "--max-degree", str(N), *flags])
    finally:
        cli.load_instance = real
    return rc, buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suffix, flags", [(".txt", ()), (".json", ("--json",))])
def test_output_matches_the_full_sweeps(case, suffix, flags):
    rc, out = run_verify(*CASES[case](), *flags)
    assert rc == 1
    assert out == (GOLDEN / ("verify-" + case + suffix)).read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_pairing_line_is_the_full_sweeps(case, monkeypatch):
    inst, N = CASES[case]()
    flags = []

    def spy(P, N, **options):
        flags.append(options)
        return check_pairing_axioms(P, N, **options)
    monkeypatch.setattr(cli, "check_pairing_axioms", spy)
    _, out = run_verify(inst, N)
    assert flags == [{"presupposed": False}]
    line = str(oracles.check_pairing_axioms(inst.pairing, N))
    assert line in out.splitlines()
    # the reduced sweep, which skips the corrupted entry, would print another
    assert str(check_pairing_axioms(inst.pairing, N, presupposed=True)) != line

"""The reduced sweeps of verify against the full sweeps of tests/oracles.py.

Two checks do less work than their identities suggest:

- check_pairing_axioms, told that both check_bialgebra runs passed, takes
  its first factors from a generating set only;
- verify_vacuum first stacks only the actions of the minus generators, and
  stacks every minus label only for a stratum that falls short.

On every shipped instance up to the tier-1 degrees, verify's reports equal
the full sweeps' report for report; the sweep sizes of the docstrings are
pinned; and a direct call of check_pairing_axioms runs the full sweep.
"""

from pathlib import Path

import pytest

from heisdouble import cli, double, hopf
from heisdouble.double import verify_vacuum
from heisdouble.instances import build_lattice, build_qheis, build_weyl, cartan_a, load_instance
from heisdouble.pairing import check_pairing_axioms
import oracles

GOLDEN = Path(__file__).parent / "golden"


def a2():
    return build_qheis(cartan_a(2))


def i2():
    return build_lattice(((1, 0), (0, 1)))


def golden(name):
    return lambda: load_instance(str(GOLDEN / (name + ".json")))


# name -> (build, the largest N)
INSTANCES = {
    "weyl": (build_weyl, 6),
    "qheis-a2": (a2, 4),
    "lattice-i2": (i2, 5),
    "qheis-d4-affine": (golden("qheis-d4-affine"), 2),
    "lattice-rank-one": (golden("lattice-rank-one"), 4),
    "lattice-i2-shift": (golden("lattice-i2-shift"), 4),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_verify_agrees_with_the_full_sweeps(name):
    build, top = INSTANCES[name]
    inst = build()
    reports = oracles.assert_verify_agrees_with_full_sweeps(inst, top)
    assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]
    # the reduced pairing sweep is the one verify ran, and the library's
    # full sweep gives the same report
    assert check_pairing_axioms(inst.pairing, top, presupposed=True) == \
        check_pairing_axioms(inst.pairing, top)


def test_verify_presupposes_both_bialgebra_reports(monkeypatch):
    flags = []

    def spy(P, N, **options):
        flags.append(options)
        return check_pairing_axioms(P, N, **options)
    monkeypatch.setattr(cli, "check_pairing_axioms", spy)
    reports, _ = cli.verify_suite(a2(), 3)
    assert all(r.passed for r in reports)
    assert flags == [{"presupposed": True}]


def test_a_direct_call_runs_the_full_sweep(monkeypatch):
    def refuse(H, N):
        raise AssertionError("generating_set called without the presupposition")
    monkeypatch.setattr(hopf, "generating_set", refuse)
    assert check_pairing_axioms(a2().pairing, 3).passed


class _CountingCache(dict):
    """A generating-set cache that counts its lookups and its misses; each
    miss is one scan of the cached products."""

    lookups = misses = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def setdefault(self, key, value):
        self.misses += 1
        return super().setdefault(key, value)


def test_verify_scans_each_side_for_its_generating_set_once():
    # both check_bialgebra runs, both pairing sweeps, dual_presentation_check
    # and the vacuum ask for a generating set; each side scans once
    inst = a2()
    plus, minus = _CountingCache(), _CountingCache()
    inst.plus._gens, inst.minus._gens = plus, minus
    reports, _ = cli.verify_suite(inst, 4)
    assert all(r.passed for r in reports)
    assert (plus.lookups, minus.lookups) == (2, 4)
    assert (plus.misses, minus.misses) == (1, 1)


def _counted_tuples(monkeypatch):
    """The number of tuples hopf.bounded_tuples yields, by pool count."""
    counts = {}
    real = hopf.bounded_tuples

    def counting(pools, N):
        for t in real(pools, N):
            counts[len(pools)] = counts.get(len(pools), 0) + 1
            yield t
    monkeypatch.setattr(hopf, "bounded_tuples", counting)
    return counts


@pytest.mark.parametrize("presupposed, pairs", [(True, 2 * 60), (False, 2 * 164)])
def test_pairing_sweep_sizes_at_a2_n4(monkeypatch, presupposed, pairs):
    P = a2().pairing
    counts = _counted_tuples(monkeypatch)
    assert check_pairing_axioms(P, 4, presupposed=presupposed).passed
    assert counts == {2: pairs}


def test_vacuum_stacks_every_label_only_on_a_shortfall(monkeypatch):
    D = a2().double
    gens = set(hopf.generating_set(D.minus, 4))
    kept = []
    real = double._stacked

    def spy(D, stratum, keep):
        kept.append({x for x in D.minus.labels_up_to(4) if keep(x)})
        return real(D, stratum, keep)
    monkeypatch.setattr(double, "_stacked", spy)
    assert verify_vacuum(D, 4).passed
    # one matrix per positive degree, from the minus generators alone
    assert kept == [gens] * 4

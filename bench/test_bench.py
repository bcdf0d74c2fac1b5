"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json

import pytest

import run
import session
import speed
import tracer
from heisdouble import cli, double, hopf, instances, linalg, pairing


def _queries(seed, n=300):
    stream = session.query_stream(session.pool("qheis", 2), seed)
    return [next(stream) for _ in range(n)]


def test_same_seed_same_queries():
    assert _queries(5) == _queries(5)


def test_other_seed_other_queries():
    assert _queries(5) != _queries(6)


def test_pool_matches_recorded_digests():
    for w in run.WORKLOADS.values():
        recorded = run.load_json("expected", "session-%s.json" % w.config)
        groups = session.pool(w.kind, w.ncolors)
        assert session.pool_fingerprint(groups) == recorded["pool_sha256"]
        for name, _ in session.MIX:
            assert len(recorded["digests"][name]) == len(groups[name])


def test_self_time_on_nested_spans():
    # f0 [0,10] holds f1 [1,4] (holding f1 [2,3]) and f2 [5,9] (holding f0 [6,8])
    fids = [0, 1, 1, 2, 0]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    calls, self_s, total_s = tracer.span_stats(fids, parents, starts, ends, 3)
    assert calls == [2, 2, 1]
    assert self_s == [3.0 + 2.0, 2.0 + 1.0, 2.0]
    assert total_s == [10.0, 3.0, 4.0]  # a recursion counts once
    assert sum(self_s) == ends[0] - starts[0]


def test_self_time_after_a_subtree_closes():
    # two sibling subtrees under one root: the path must unwind between them
    fids = [0, 1, 2, 1, 2]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 1.5, 5.0, 5.5]
    ends = [9.0, 3.0, 2.5, 8.0, 7.5]
    calls, self_s, total_s = tracer.span_stats(fids, parents, starts, ends, 3)
    assert calls == [1, 2, 2]
    assert self_s == [9.0 - 2.0 - 3.0, 1.0 + 1.0, 1.0 + 2.0]
    assert total_s == [9.0, 5.0, 3.0]


def _outputs(seed=7, n=40):
    path = run.config_path("qheis-a2")
    rc, text = run.verify_once(instances.load_instance(path), path, 2)
    inst = instances.load_instance(path)
    stream = session.query_stream(session.pool("qheis", 2), seed)
    return rc, text, [session.answer(inst, next(stream))[0] for _ in range(n)]


def test_traced_outputs_are_byte_identical():
    plain = _outputs()
    with tracer.Tracer() as tr:
        # every namespace that binds a wrapped function sees the wrapper
        assert double.multiply is hopf.multiply
        assert cli.check_bialgebra is hopf.check_bialgebra
        assert pairing.det_bareiss is linalg.det_bareiss
        assert instances.det_bareiss is linalg.det_bareiss
        traced = _outputs()
    assert traced == plain
    assert json.loads(plain[1])["status"] == "pass"
    m = tr.metrics()
    assert m["cli.cmd_verify.calls"] == 1
    assert m["hopf.check_bialgebra.calls"] == 3
    assert m["linalg.det_bareiss.max_n"] > 0
    assert 0 < m["double.HeisenbergDouble.smash_labels.miss_ratio"] <= 1
    assert set(m) == set(tracer.metric_units())


def test_tracer_restores_every_binding():
    before = (hopf.multiply, double.multiply, cli.load_instance,
              hopf.HopfPresentation.product, instances.RatFunc.__init__)
    with tracer.Tracer():
        assert hopf.multiply is not before[0]
    after = (hopf.multiply, double.multiply, cli.load_instance,
             hopf.HopfPresentation.product, instances.RatFunc.__init__)
    assert after == before


@pytest.mark.parametrize("reports, skipped, rc, failed", [
    (None, [], 0, 0),
    ("drop-last", [], 0, 1),
    ("fail-first", [], 1, 1),
    (None, ["verify_vacuum"], 0, 1),
    (None, [], 1, 1),
])
def test_verdict_failures(reports, skipped, rc, failed):
    checks = ["check_bialgebra", "check_pairing_axioms", "verify_vacuum"]
    got = [{"check": c, "status": "pass"} for c in checks]
    if reports == "drop-last":
        got = got[:-1]
    elif reports == "fail-first":
        got[0]["status"] = "fail"
    text = json.dumps({"reports": got, "skipped": skipped,
                       "status": "pass" if reports != "fail-first" else "fail"})
    expected = {"checks": checks, "skipped": []}
    assert run.verdict_failures(rc, text, expected) == failed


def test_verdict_failures_on_unparsable_output():
    assert run.verdict_failures(2, "error: bad config", {"checks": ["a", "b"], "skipped": []}) == 2


def test_speed_scale_uses_samples_inside_or_nearest():
    track = speed.SpeedTrack()
    track.stamps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    track.values = [speed.REF_S * v for v in (1, 1, 1, 1, 2, 2, 2, 2)]
    half = 0.5 ** speed.BETA
    assert track.scale(0.5, 4.5) == 1.0  # four inside: widened to the nearest five
    assert track.scale(4.5, 8.5) == half
    assert track.scale(8.0, 8.0) == half


def test_elapsed_excludes_reference_runs():
    track = speed.SpeedTrack()
    a = track.now()
    track.sample()
    b = track.now()
    assert 0 <= track.elapsed(a, b) < b[0] - a[0]

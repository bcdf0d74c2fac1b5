"""Benchmark of heisdouble, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is one user sitting on one instance: verify it up
to a degree through the real ``heisdouble verify`` code path, then explore
it in a library session of seeded queries, each for half of ``--seconds``.
Workloads differ in the instance and the degree (see bench/README.md).

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs one fixed unit of work (one verify, a fixed
number of session queries) untraced and then traced, and reports the
per-layer metrics and the tracing overhead; spans go to ``bench/out/``.

Every output is checked: verify verdicts against bench/expected/verify.json,
session answers against digests recorded in bench/expected/, and printed
normal forms by parsing them back.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import namedtuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Without the package this import fails and the run exits nonzero.
import heisdouble  # noqa: E402
from heisdouble import cli, instances  # noqa: E402

if not os.path.abspath(heisdouble.__file__).startswith(SRC + os.sep):
    sys.exit("heisdouble was imported from %s, not from %s"
             % (os.path.dirname(heisdouble.__file__), SRC))

import session  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

Workload = namedtuple("Workload", "config kind ncolors verify_degree")

WORKLOADS = {
    # Perfectness (Gram determinants) dominates verify: the scalar kernel and
    # linalg.  The session's h coefficients 1/Z_lambda have non-constant
    # denominators, so RatFunc canonicalisation (gcd) dominates the queries.
    "verify-qheis-a2": Workload("qheis-a2", "qheis", 2, 4),
    # Integer coefficients bypass the gcd path; hopf and pairing dominate.
    "verify-lattice-i2": Workload("lattice-i2", "lattice", 2, 5),
}

VERIFY_SHARE = 0.5  # of --seconds; the session gets the rest
MIN_VERIFY_RUNS = 2
TRACE_QUERIES = 1000  # session queries in the traced unit of work
MIN_QUERIES = 400  # at least 20 samples beyond p95 in every run
MAX_QUERIES = 400_000  # about twice what the lattice session answers in 25 s
SETUP_SAMPLES = 11
PARSE_BACK = 300  # distinct printed elements parsed back per run

# Each set-up sample runs in a fresh interpreter, which then runs the
# reference kernel (bench/speed.py) three times to scale its own time.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import heisdouble.cli
from heisdouble.instances import load_instance
load_instance(sys.argv[2])
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import speed
print(t1 - t0, *(speed.reference_kernel() for _ in range(3)))
"""

END_TO_END = {
    "verify_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def config_path(name):
    return os.path.join(BENCH, "configs", name + ".json")


def load_json(*parts):
    with open(os.path.join(BENCH, *parts)) as fh:
        return json.load(fh)


class Tally:
    """Operations attempted and failed (checks and queries)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


# -- set-up ----------------------------------------------------------------


def measure_setup(path, samples=SETUP_SAMPLES):
    """Median time of importing heisdouble and loading the instance, each
    sample in a fresh interpreter and scaled by that interpreter's speed."""
    values = []
    for _ in range(samples):
        r = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, path, BENCH],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=60, check=True)
        wall, *ref = map(float, r.stdout.split())
        values.append(wall * (speed.REF_S / statistics.median(ref)) ** speed.BETA)
    return statistics.median(values), values


# -- verify phase ------------------------------------------------------------


def verify_once(inst, path, N):
    """`heisdouble verify --json` through the CLI, on a prebuilt instance.

    The CLI's load_instance answers with inst, so a caller can build the
    instance before starting the clock: the time then runs from calling
    verify to its verdict, with set-up excluded and caches cold.
    Returns (exit status, printed output).
    """
    real = cli.load_instance
    cli.load_instance = lambda p: inst if p == path else real(p)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--instance", path, "--max-degree", str(N), "--json"])
    finally:
        cli.load_instance = real
    return rc, buf.getvalue()


def verdict_failures(rc, text, expected):
    """Checks of one verify run that do not match the expected verdict."""
    checks = expected["checks"]
    try:
        payload = json.loads(text)
        reports = payload["reports"]
        got = [(r["check"], r["status"]) for r in reports]
    except (ValueError, KeyError, TypeError):
        return len(checks)
    failed = sum(1 for i, name in enumerate(checks)
                 if i >= len(got) or got[i] != (name, "pass"))
    failed += max(0, len(got) - len(checks))
    if failed == 0 and (rc != 0 or payload.get("status") != "pass"
                        or payload.get("skipped") != expected["skipped"]):
        failed = 1
    return failed


def verify_phase(w, track, deadline, min_reps, tally):
    """Verify a fresh instance again and again until the next run would pass
    the deadline.  Returns the (start, end) clock readings of each run."""
    path = config_path(w.config)
    expected = load_json("expected", "verify.json")["%s N=%d" % (w.config, w.verify_degree)]
    n = len(expected["checks"])
    spans = []
    runs = 0
    while runs < min_reps or (spans and time.perf_counter() + statistics.fmean(
            track.elapsed(a, b) for a, b in spans) <= deadline):
        runs += 1
        inst = instances.load_instance(path)
        start = track.now()
        try:
            rc, text = verify_once(inst, path, w.verify_degree)
            spans.append((start, track.now()))
            tally.add(n, verdict_failures(rc, text, expected))
        except Exception:
            traceback.print_exc()
            tally.add(n, n)
        del inst
        gc.collect()  # free this run's instance before the next is built
    return spans


# -- session phase -----------------------------------------------------------


class AnswerCheck:
    """Checks session answers: each one at once against the digest recorded
    for its query, and the printed elements of the first PARSE_BACK distinct
    queries by parsing them back after the session, on a separate instance,
    so checking leaves the session's caches as the queries left them.
    (record.py parses back every answer of the pool before it records a
    digest; the sample here catches a parser broken since.)"""

    def __init__(self, w):
        recorded = load_json("expected", "session-%s.json" % w.config)
        groups = session.pool(w.kind, w.ncolors)
        if session.pool_fingerprint(groups) != recorded["pool_sha256"]:
            raise RuntimeError("query pool differs from the one the digests cover")
        self.digests = {q: d for name, _ in session.MIX
                        for q, d in zip(groups[name], recorded["digests"][name])}
        self.config = w.config
        self.seen = set()
        self.pending = {}
        self.attempted = 0
        self.failed = 0

    def add(self, q, text, el):
        self.attempted += 1
        self.seen.add(q)
        if text is None or session.digest(text) != self.digests[q]:
            self.failed += 1
        elif el is not None and q not in self.pending and len(self.pending) < PARSE_BACK:
            self.pending[q] = (text, el)

    def finish(self, tally):
        checker = instances.load_instance(config_path(self.config)).double
        bad = sum(not session.parses_back(checker, text, el)
                  for text, el in self.pending.values())
        tally.add(self.attempted, self.failed + bad)


def session_phase(w, track, seed, seconds, min_queries):
    """Closed-loop session: one client, the next query sent when the answer
    is back, for `seconds` and at least `min_queries` queries.

    Returns each query's latency (kernel runs excluded) and end time, and
    the check of the answers, to be finished afterwards.  The latencies go
    into arrays allocated in full up front, so the memory of the record does
    not grow with the number of queries and peak RSS shows only the
    program's; a session stops after MAX_QUERIES queries."""
    inst = instances.load_instance(config_path(w.config))
    stream = session.query_stream(session.pool(w.kind, w.ncolors), seed)
    check = AnswerCheck(w)
    latencies = array("d", bytes(8 * MAX_QUERIES))
    ends = array("d", bytes(8 * MAX_QUERIES))
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MAX_QUERIES and (n < min_queries or time.perf_counter() < deadline):
        q = next(stream)
        start = track.now()
        try:
            text, el = session.answer(inst, q)
        except Exception:
            traceback.print_exc()
            text = el = None
        end = track.now()
        latencies[n] = track.elapsed(start, end)
        ends[n] = end[0]
        n += 1
        check.add(q, text, el)
    return memoryview(latencies)[:n], memoryview(ends)[:n], check


# -- modes -------------------------------------------------------------------


def timed_run(w, seed, seconds, tally):
    setup_s, setup_samples = measure_setup(config_path(w.config))
    track = speed.SpeedTrack()
    start = time.perf_counter()
    with track.running():
        verify_spans = verify_phase(w, track, start + VERIFY_SHARE * seconds,
                                    MIN_VERIFY_RUNS, tally)
        wall, ends, check = session_phase(w, track, seed,
                                          (1 - VERIFY_SHARE) * seconds, MIN_QUERIES)
    # read before checking and summarising, which allocate in proportion to
    # the number of queries and are the benchmark's own work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = time.perf_counter() - start
    check.finish(tally)
    check_s = time.perf_counter() - start - measured

    verify_wall = [track.elapsed(a, b) for a, b in verify_spans]
    verify_times = [t * track.scale(a[0], b[0])
                    for t, (a, b) in zip(verify_wall, verify_spans)]
    lat_ms = [t * track.scale(e, e) * 1e3 for t, e in zip(wall, ends)]
    wall_ms = [t * 1e3 for t in wall]
    metrics = {
        # a verify that raised has no time; it counts in failed instead
        "verify_s": statistics.median(verify_times) if verify_times else 0.0,
        "query_p50_ms": statistics.median(lat_ms),
        "query_p95_ms": statistics.quantiles(lat_ms, n=20)[-1],
        "queries_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    sizes = {
        "measured_s": measured,
        "check_s": check_s,
        "reference_runs": len(track.values),
        "reference_median_s": statistics.median(track.values),
        "verify_degree": w.verify_degree,
        "verify_runs": len(verify_times),
        "verify_scaled_s": verify_times,
        "verify_wall_s": verify_wall,
        "queries": len(lat_ms),
        "query_wall_p50_ms": statistics.median(wall_ms),
        "query_wall_p95_ms": statistics.quantiles(wall_ms, n=20)[-1],
        "distinct_queries": len(check.seen),
        "repeat_fraction": 1 - len(check.seen) / len(lat_ms),
        "setup_samples_s": setup_samples,
    }
    return metrics, sizes


def unit_of_work(w, seed, tally):
    """One verify and a fixed number of queries, for the traced comparison."""
    track = speed.SpeedTrack()  # not running: plain wall clock
    t0 = time.perf_counter()
    verify_phase(w, track, 0.0, 1, tally)
    _, _, check = session_phase(w, track, seed, 0.0, TRACE_QUERIES)
    return time.perf_counter() - t0, check


def traced_run(w, name, seed, tally):
    untraced_s, check = unit_of_work(w, seed, tally)
    check.finish(tally)
    with tracer.Tracer() as tr:
        traced_s, check = unit_of_work(w, seed, tally)
    check.finish(tally)
    metrics = tr.metrics()
    metrics["bench.untraced_s"] = untraced_s
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-seed%d.txt.gz" % (name, seed))
    tr.write_spans(spans_path)
    sizes = {"verify_degree": w.verify_degree, "queries": TRACE_QUERIES,
             "spans": len(tr.fids), "spans_file": os.path.relpath(spans_path, ROOT),
             "not_traced": tr.missing}
    return metrics, sizes


# -- reporting ---------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, sizes = traced_run(w, args.workload, args.seed, tally)
        units = tracer.metric_units()
        units.update({"bench.untraced_s": "s", "bench.trace_overhead_s": "s"})
    else:
        metrics, sizes = timed_run(w, args.seed, args.seconds, tally)
        units = END_TO_END
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
           "sizes": sizes}
    print("environment " + json.dumps(env))
    for name, unit in units.items():
        print("%-52s %.6g %s" % (name, metrics[name], unit))
    if args.trace:
        print("%-52s %.6g" % ("perfectness share of verify",
                               metrics["pairing.perfectness_check.total_s"]
                               / metrics["cli.cmd_verify.total_s"]))
    print("%-52s %.6g (%d of %d operations)" % (
        "failed_frac", tally.failed / tally.attempted, tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the expected outputs the benchmark checks against.

    python3 bench/record.py

Writes bench/expected/verify.json (the check list and skipped list of each
verify the workloads run; recording refuses a verdict that does not pass)
and bench/expected/session-<config>.json (a digest of the answer to every
query in the session pool; recording refuses a printed element that does
not parse back to itself).  Run it only on a commit whose outputs are
trusted; the benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import os

import run
import session


def record_verify():
    out = {}
    for w in sorted(set((w.config, w.verify_degree) for w in run.WORKLOADS.values())):
        config, N = w
        path = run.config_path(config)
        rc, text = run.verify_once(run.instances.load_instance(path), path, N)
        payload = json.loads(text)
        if rc != 0 or payload["status"] != "pass":
            raise SystemExit("verify %s N=%d does not pass; not recording" % (config, N))
        out["%s N=%d" % (config, N)] = {
            "checks": [r["check"] for r in payload["reports"]],
            "skipped": payload["skipped"],
        }
    return out


def record_session(config, kind, ncolors):
    """Digests of every pool answer; refuses when a printed element does not
    parse back to the element it prints."""
    path = run.config_path(config)
    inst = run.instances.load_instance(path)
    checker = run.instances.load_instance(path).double
    groups = session.pool(kind, ncolors)
    digests = {}
    for name, _ in session.MIX:
        digests[name] = []
        for q in groups[name]:
            text, el = session.answer(inst, q)
            if el is not None and not session.parses_back(checker, text, el):
                raise SystemExit("%s: %r does not parse back; not recording"
                                 % (session.query_text(q), text))
            digests[name].append(session.digest(text))
    return {"pool_sha256": session.pool_fingerprint(groups), "digests": digests}


def write(name, data):
    path = os.path.join(run.BENCH, "expected", name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(path, run.ROOT))


def main():
    write("verify.json", record_verify())
    for config, kind, ncolors in sorted(set(
            (w.config, w.kind, w.ncolors) for w in run.WORKLOADS.values())):
        write("session-%s.json" % config, record_session(config, kind, ncolors))


if __name__ == "__main__":
    main()

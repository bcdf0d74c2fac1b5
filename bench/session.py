"""Seeded query streams for an interactive library session.

A session builds one instance and answers queries in a closed loop (one
client; the next query is sent when the previous answer is back).  Queries
are drawn from a fixed pool per instance kind:

* normal-order of an anti-normal word (minus generators, then plus
  generators), the bulk of the stream;
* pair of a minus word with a plus word of the same degree;
* antipode of a one-sided word;
* the Fock matrix of a minus word on inputs of degree <= 3.

The pool does not depend on the seed.  The seed fixes which pool entries are
popular (a random permutation of Zipf ranks, per query kind) and the order of
the draws, so repeated queries hit warm caches the way a user revisiting
expressions does.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import traceback
from collections import namedtuple

from heisdouble import double, expr, hopf

Query = namedtuple("Query", "kind exprs in_degree")

# Share of each query kind in the stream.
MIX = (("normal-order", 0.7), ("pair", 0.1), ("antipode", 0.1), ("fock-matrix", 0.1))
# Zipf exponent of popularity within a kind, and the size of the
# normal-order pool.  The skew is mild on purpose: under a steep Zipf law a
# handful of entries draw most of the stream, so which entries the seed makes
# popular moves the median by 20% and more from seed to seed.  With these
# values a run of about 6000 queries repeats earlier ones about 65% of the
# time and its median and p95 move by a few percent between seeds.
ZIPF_S = 0.3
NORMAL_POOL = 1500
PAIR_POOL = 200
FOCK_IN_DEGREE = 3
MAX_PART = 4
MAX_WORD_DEGREE = 5
POOL_SEED = 0  # fixes the pool subsample; unrelated to the run's seed

LETTERS = {"qheis": (("p'", "h'"), ("p", "h")), "lattice": (("p'",), ("p",))}


def query_text(q):
    """One-line form of a query, as it would be typed at the CLI."""
    tail = " --in-degree %d" % q.in_degree if q.in_degree is not None else ""
    return "%s %s%s" % (q.kind, " ".join("--expr %s" % e for e in q.exprs), tail)


def _words(letters, ncolors):
    """Words of one or two generators of total degree <= MAX_WORD_DEGREE,
    as (text, degree) pairs."""
    gens = [("%s[%d,%d]" % (g, n, i), n) for g in letters
            for n in range(1, MAX_PART + 1) for i in range(1, ncolors + 1)]
    words = list(gens)
    for (g1, d1), (g2, d2) in itertools.product(gens, repeat=2):
        if d1 + d2 <= MAX_WORD_DEGREE:
            words.append((g1 + "*" + g2, d1 + d2))
    return words


def pool(kind, ncolors):
    """The fixed query pool of an instance kind, grouped by query kind."""
    minus_letters, plus_letters = LETTERS[kind]
    minus = _words(minus_letters, ncolors)
    plus = _words(plus_letters, ncolors)
    rng = random.Random(POOL_SEED)
    normal = [Query("normal-order", (x + "*" + a,), None)
              for (x, _), (a, _) in itertools.product(minus, plus)]
    if len(normal) > NORMAL_POOL:
        normal = rng.sample(normal, NORMAL_POOL)
    pairs = [Query("pair", (x, a), None)
             for (x, dx), (a, da) in itertools.product(minus, plus) if dx == da]
    if len(pairs) > PAIR_POOL:
        pairs = rng.sample(pairs, PAIR_POOL)
    return {
        "normal-order": normal,
        "pair": pairs,
        "antipode": [Query("antipode", (w,), None) for w, _ in minus + plus],
        "fock-matrix": [Query("fock-matrix", (x,), FOCK_IN_DEGREE) for x, _ in minus],
    }


def pool_fingerprint(groups):
    """sha256 of the pool, so recorded digests are tied to the pool they cover."""
    h = hashlib.sha256()
    for name, _ in MIX:
        for q in groups[name]:
            h.update(query_text(q).encode() + b"\n")
    return h.hexdigest()


def query_stream(groups, seed):
    """Endless seeded stream of queries drawn from a pool."""
    rng = random.Random(seed)
    kinds = [name for name, _ in MIX]
    kind_cum = list(itertools.accumulate(w for _, w in MIX))
    ranked = {}
    rank_cum = {}
    for name in kinds:
        entries = groups[name]
        ranked[name] = rng.sample(entries, len(entries))
        rank_cum[name] = list(itertools.accumulate(
            1.0 / (r + 1) ** ZIPF_S for r in range(len(entries))))
    while True:
        name = kinds[bisect.bisect(kind_cum, rng.random() * kind_cum[-1])]
        cum = rank_cum[name]
        r = min(bisect.bisect(cum, rng.random() * cum[-1]), len(cum) - 1)
        yield ranked[name][r]


def answer(inst, q):
    """Answer one query on an instance.

    Returns the printed answer and, for answers printed as elements of the
    double (normal forms and antipodes), that element, so the printed form
    can be parsed back and compared.
    """
    D = inst.double
    if q.kind == "normal-order":
        el = expr.evaluate_text(D, q.exprs[0])
        return D.element_str(el), el
    if q.kind == "pair":
        x = expr.pure_minus(D, expr.evaluate_text(D, q.exprs[0]))
        a = expr.pure_plus(D, expr.evaluate_text(D, q.exprs[1]))
        return str(inst.pairing.pair(x, a)), None
    if q.kind == "antipode":
        el = expr.evaluate_text(D, q.exprs[0])
        a = expr.pure_plus(D, el)
        if a is not None:
            s = hopf.antipode(inst.plus, a)
            return hopf.element_str(inst.plus, s), D.embed_plus(s)
        s = hopf.antipode(inst.minus, expr.pure_minus(D, el))
        return hopf.element_str(inst.minus, s), D.embed_minus(s)
    if q.kind == "fock-matrix":
        el = expr.evaluate_text(D, q.exprs[0])
        rows, cols, matrix = double.fock_matrix(D, el, q.in_degree)
        return json.dumps({"rows": [D.plus.label_text(l) for l in rows],
                           "cols": [D.plus.label_text(l) for l in cols],
                           "entries": [[str(v) for v in r] for r in matrix]},
                          separators=(",", ":")), None
    raise ValueError("unknown query kind %r" % (q.kind,))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parses_back(D, text, el):
    """Whether a printed element of the double D parses back to el."""
    try:
        return expr.evaluate_text(D, text) == el
    except Exception:
        traceback.print_exc()
        return False

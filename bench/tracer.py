"""Out-of-program tracing of heisdouble's layers.

The tracer replaces listed functions of the package with wrappers, in
every module namespace that binds them (``from .hopf import multiply`` in
``double`` is patched as well as ``hopf.multiply``), and restores them on
exit.  Nothing inside ``src/`` is changed.

Three kinds of wrapper:

* spanned: each call records a span (function, parent span, start, end);
  the metrics are calls, self time and total time;
* cached: the structure-constant caches of the package, which never evict.
  Each call adds its argument key to a per-(instance, function) set, so
  distinct keys / calls is the miss ratio;
* counted: functions too hot to span; calls only.

Spans are kept in memory in flat arrays and written out by ``write_spans``
when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from importlib import import_module

# (module, attribute path, metric name).  Spans must nest, so generators
# (partitions.mp_sub_multisets) are counted instead: a span around one would
# cover only the creation of the generator.
SPANNED = [
    ("scalars", "laurent_exact_div", "scalars.laurent_exact_div"),
    ("scalars", "RatFunc.__init__", "scalars.RatFunc"),
    ("linalg", "det_bareiss", "linalg.det_bareiss"),
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("partitions", "multipartitions_of", "partitions.multipartitions_of"),
    ("hopf", "check_bialgebra", "hopf.check_bialgebra"),
    ("hopf", "multiply", "hopf.multiply"),
    ("hopf", "twisted_tensor_multiply", "hopf.twisted_tensor_multiply"),
    ("hopf", "antipode", "hopf.antipode"),
    ("pairing", "check_pairing_axioms", "pairing.check_pairing_axioms"),
    ("pairing", "dual_presentation_check", "pairing.dual_presentation_check"),
    ("pairing", "perfectness_check", "pairing.perfectness_check"),
    ("pairing", "TwistedPairing.pair_tensor", "pairing.TwistedPairing.pair_tensor"),
    ("double", "smash_multiply", "double.smash_multiply"),
    ("double", "fock_matrix", "double.fock_matrix"),
    ("double", "verify_commutation", "double.verify_commutation"),
    ("double", "verify_vacuum", "double.verify_vacuum"),
    ("double", "verify_shift_invariance", "double.verify_shift_invariance"),
    ("instances", "load_instance", "instances.load_instance"),
    ("instances", "sym_pair", "instances.sym_pair"),
    ("expr", "evaluate_text", "expr.evaluate_text"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
]

CACHED = [
    ("hopf", "HopfPresentation.product", "hopf.HopfPresentation.product"),
    ("hopf", "HopfPresentation.coproduct", "hopf.HopfPresentation.coproduct"),
    ("pairing", "TwistedPairing.pair_labels", "pairing.TwistedPairing.pair_labels"),
    ("double", "HeisenbergDouble.action_label", "double.HeisenbergDouble.action_label"),
    ("double", "HeisenbergDouble.smash_labels", "double.HeisenbergDouble.smash_labels"),
]

# h_element and nonsingularity_check never run on a lattice instance, so a
# time for them would read 0 there; their call counts carry the signal.
COUNTED = [
    ("twisting", "BiadditiveMap.evaluate", "twisting.BiadditiveMap.evaluate"),
    ("partitions", "mp_sub_multisets", "partitions.mp_sub_multisets"),
    ("instances", "h_element", "instances.h_element"),
    ("instances", "nonsingularity_check", "instances.nonsingularity_check"),
]


def metric_units():
    """Every per-layer metric the tracer reports, name -> unit, in order."""
    out = {}
    for _, _, name in SPANNED:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
        out[name + ".total_s"] = "s"
    out["linalg.det_bareiss.max_n"] = "count"
    for _, _, name in CACHED:
        out[name + ".calls"] = "count"
        out[name + ".miss_ratio"] = "ratio"
    for _, _, name in COUNTED:
        out[name + ".calls"] = "count"
    return out


def span_stats(fids, parents, starts, ends, nfuncs):
    """Calls, self time and total time per function from a span list.

    Spans are numbered in the order they began, so a parent precedes its
    children and a subtree is contiguous.  Self time is a span's duration
    minus the durations of its direct children.  Total time counts only the
    outermost span of a recursion, so nested calls are not counted twice.
    """
    n = len(fids)
    child = [0.0] * n
    for s in range(n):
        p = parents[s]
        if p >= 0:
            child[p] += ends[s] - starts[s]
    calls = [0] * nfuncs
    self_s = [0.0] * nfuncs
    total_s = [0.0] * nfuncs
    path = []
    open_count = [0] * nfuncs
    for s in range(n):
        p = parents[s]
        while path and path[-1] != p:
            open_count[fids[path.pop()]] -= 1
        f = fids[s]
        d = ends[s] - starts[s]
        calls[f] += 1
        self_s[f] += d - child[s]
        if open_count[f] == 0:
            total_s[f] += d
        path.append(s)
        open_count[f] += 1
    return calls, self_s, total_s


class Tracer:
    """Context manager that patches the listed functions while active."""

    def __init__(self):
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.max_det_n = 0
        self.cache_calls = [0] * len(CACHED)
        self.cache_keys = [{} for _ in CACHED]
        self._owners = []  # keeps instances alive so their ids stay unique
        self.counts = [0] * len(COUNTED)
        self.missing = []  # listed functions the program does not have
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _spanned(self, fn, fid):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
        return wrapper

    def _det(self, fn):
        @functools.wraps(fn)
        def wrapper(rows, *args, **kwargs):
            if len(rows) > self.max_det_n:
                self.max_det_n = len(rows)
            return fn(rows, *args, **kwargs)
        return wrapper

    def _cached(self, fn, idx):
        calls = self.cache_calls
        keys = self.cache_keys[idx]
        owners = self._owners

        @functools.wraps(fn)
        def wrapper(obj, *args):
            calls[idx] += 1
            seen = keys.get(id(obj))
            if seen is None:
                seen = keys[id(obj)] = set()
                owners.append(obj)
            seen.add(args)
            return fn(obj, *args)
        return wrapper

    def _counted(self, fn, idx):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, module, path, make):
        try:
            mod = import_module("heisdouble." + module)
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            # the program no longer has it: its metrics stay at 0
            self.missing.append("%s.%s" % (module, path))
            return
        if owner_path:
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
            return
        wrapper = make(orig)
        for name, m in list(sys.modules.items()):
            if not (name == "heisdouble" or name.startswith("heisdouble.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._restore.append((m, key, orig))
                    setattr(m, key, wrapper)

    def __enter__(self):
        import_module("heisdouble.cli")  # loads every module of the package
        try:
            for fid, (module, path, name) in enumerate(SPANNED):
                if name == "linalg.det_bareiss":
                    def make(fn, fid=fid):
                        return self._det(self._spanned(fn, fid))
                else:
                    def make(fn, fid=fid):
                        return self._spanned(fn, fid)
                self._patch(module, path, make)
            for idx, (module, path, _) in enumerate(CACHED):
                self._patch(module, path, lambda fn, idx=idx: self._cached(fn, idx))
            for idx, (module, path, _) in enumerate(COUNTED):
                self._patch(module, path, lambda fn, idx=idx: self._counted(fn, idx))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, name -> value, in the order of metric_units."""
        calls, self_s, total_s = span_stats(
            self.fids, self.parents, self.starts, self.ends, len(SPANNED))
        out = {}
        for fid, (_, _, name) in enumerate(SPANNED):
            out[name + ".calls"] = calls[fid]
            out[name + ".self_s"] = self_s[fid]
            out[name + ".total_s"] = total_s[fid]
        out["linalg.det_bareiss.max_n"] = self.max_det_n
        for idx, (_, _, name) in enumerate(CACHED):
            n = self.cache_calls[idx]
            distinct = sum(len(s) for s in self.cache_keys[idx].values())
            out[name + ".calls"] = n
            out[name + ".miss_ratio"] = distinct / n if n else 0.0
        for idx, (_, _, name) in enumerate(COUNTED):
            out[name + ".calls"] = self.counts[idx]
        return out

    def write_spans(self, path):
        """Write every span as 'id parent function start end' lines, gzipped."""
        names = [name for _, _, name in SPANNED]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# id parent function start_s end_s\n")
            for s in range(len(self.fids)):
                fh.write("%d %d %s %.9f %.9f\n" % (
                    s, self.parents[s], names[self.fids[s]],
                    self.starts[s], self.ends[s]))

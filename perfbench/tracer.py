"""In-memory span tracer for the traced benchmark run.

Tracing works from the outside: `install` swaps each listed public callable
of mukailat for a wrapper in every module namespace that binds it (the
modules import each other's names with `from .x import y`), and patches the
listed methods and constructors on their classes.  A span records its name,
its parent span (the span open when it started) and its start and end; the
index of a span in the arrays is its id, and a span without a parent is one
benchmark operation.  Spans stay in compact arrays until `dump` writes them
out at the end of the run.
"""

import functools
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# public functions timed as spans, by defining module
SPAN_FUNCTIONS = {
    "intmat": ("det", "snf", "hnf_row", "inv_rational", "solve_rational",
               "kernel_int"),
    "isometries": ("ori_char", "reflection", "minus_reflection"),
    "discriminant": ("disc_map", "glue", "extend_isometry"),
    "kernels": ("box_squares",),
    "mukai": ("fm_action", "v_perp", "epsilon_ori", "hodge_ori"),
    "monodromy": ("certify", "eval_phi_tilde", "psi_restrict"),
    "lemsimo": ("solve", "build_targets", "find_companion", "iter_splits",
                "split_off_U"),
}
# methods and constructors timed as spans: (module, class, attribute)
SPAN_METHODS = (
    ("lattices", "IntegerLattice", "saturate"),
    ("lattices", "IntegerLattice", "span"),
    ("lattices", "IntegerLattice", "orth_complement"),
    ("lattices", "IntegerLattice", "from_ambient"),
    ("isometries", "Isometry", "__init__"),
    ("discriminant", "DiscriminantData", "__init__"),
)
# functions too small and frequent to time: calls are counted only
COUNTED_FUNCTIONS = {"intmat": ("mat_vec", "mat_mul")}

MODULES = ("intmat", "lattices", "isometries", "discriminant", "kernels",
           "mukai", "monodromy", "lemsimo", "verify", "cli")


def span_name(module, cls, attr):
    return "%s.%s" % (module, cls if attr == "__init__" else cls + "." + attr)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.enabled = False

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def inside(self, name):
        nid = self._ids.get(name)
        return any(self.name_of[s] == nid for s in self.stack)

    def spans(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def dump(self, path):
        names, parents, starts, ends = self.spans()
        np.savez(path, names=names, parents=parents, starts=starts,
                 ends=ends, name_table=np.array(json.dumps(self.names)))


def self_times(parents, starts, ends):
    """Span duration minus the time covered by its child spans.  Spans of a
    single thread nest, so the children of a span are disjoint and the time
    they cover is the sum of their durations."""
    dur = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def install(tracer, package):
    """Wrap the listed callables of `package` (the imported mukailat)."""
    mods = [getattr(package, m) for m in MODULES]

    def rebind(orig, replacement):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)

    special = {"box_squares": _box_scan, "iter_splits": _split_iterator}
    for mod, names in SPAN_FUNCTIONS.items():
        for name in names:
            orig = getattr(getattr(package, mod), name)
            span = "%s.%s" % (mod, name)
            if name in special:
                rebind(orig, special[name](tracer, span, orig))
            else:
                rebind(orig, tracer.wrap(span, orig))
    for mod, cls, attr in SPAN_METHODS:
        klass = getattr(getattr(package, mod), cls)
        setattr(klass, attr,
                tracer.wrap(span_name(mod, cls, attr), getattr(klass, attr)))
    for mod, names in COUNTED_FUNCTIONS.items():
        for name in names:
            orig = getattr(getattr(package, mod), name)
            rebind(orig, _counted(tracer, "%s.%s.calls" % (mod, name), orig))

    kernels = package.kernels
    rebind(kernels.vectors_with_square,
           _square_search(tracer, kernels.vectors_with_square))
    verify = package.verify
    verify.CHECKS = tuple((name, tracer.wrap("verify." + name, fn))
                          for name, fn in verify.CHECKS)


def _counted(tracer, key, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.enabled:
            counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _box_scan(tracer, span, fn):
    """A span that also counts the box vectors box_squares evaluates."""
    @functools.wraps(fn)
    def scan(gram, bound):
        vecs, squares = fn(gram, bound)
        if tracer.enabled:
            tracer.counts["kernels.box_vectors"] += len(vecs)
        return vecs, squares
    return tracer.wrap(span, scan)


def _square_search(tracer, fn):
    """Count box vectors scanned and hits of vectors_with_square."""
    @functools.wraps(fn)
    def search(gram, bound, target):
        out = fn(gram, bound, target)
        if tracer.enabled:
            tracer.counts["kernels.vectors_with_square.scanned"] += \
                (2 * bound + 1) ** len(gram)
            tracer.counts["kernels.vectors_with_square.hits"] += len(out)
        return out
    return search


def _split_iterator(tracer, span, fn):
    """iter_splits is a generator: time each `next` as one span, and count
    the splits it yields, in total and inside find_companion."""
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def splits(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(nid) if tracer.enabled else None
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if sid is not None:
                    tracer.close(sid)
            if tracer.enabled:
                tracer.counts["lemsimo.iter_splits.yielded"] += 1
                if tracer.inside("lemsimo.find_companion"):
                    tracer.counts["lemsimo.find_companion.splits"] += 1
            yield item
    return splits


def span_names():
    """Every span name `install` creates, in layer order."""
    names = []
    for mod in MODULES:
        names += [span_name(m, c, a) for m, c, a in SPAN_METHODS if m == mod]
        names += ["%s.%s" % (mod, f) for f in SPAN_FUNCTIONS.get(mod, ())]
    return names


def per_layer_specs(checks):
    """(name, unit, better) of every per-layer metric, for the given verify
    check names."""
    specs = []
    for name in span_names():
        specs += [(name + ".calls", "count", "lower"),
                  (name + ".self_ms", "ms", "lower")]
    specs += [("intmat.%s.calls" % f, "count", "lower")
              for f in COUNTED_FUNCTIONS["intmat"]]
    specs += [("kernels.box_vectors", "count", "lower"),
              ("kernels.vectors_with_square.hit_ratio", "ratio", "higher"),
              ("lemsimo.iter_splits.yielded", "count", "lower"),
              ("lemsimo.find_companion.splits_per_call", "splits/call",
               "lower")]
    specs += [("verify.%s.wall_ms" % c, "ms", "lower") for c in checks]
    specs.append(("trace_overhead_share", "ratio", "lower"))
    return specs


def layer_metrics(tracer, checks, overhead_share):
    """Per-layer metric values from the recorded spans and counters."""
    name_ids, parents, starts, ends = tracer.spans()
    own = self_times(parents, starts, ends)
    dur = ends - starts
    calls = np.bincount(name_ids, minlength=len(tracer.names))
    self_ms = np.bincount(name_ids, weights=own,
                          minlength=len(tracer.names)) * 1000.0
    wall_ms = np.bincount(name_ids, weights=dur,
                          minlength=len(tracer.names)) * 1000.0
    counts = tracer.counts
    values = {}
    for name in span_names():
        nid = tracer.name_id(name)
        values[name + ".calls"] = int(calls[nid]) if nid < len(calls) else 0
        values[name + ".self_ms"] = \
            float(self_ms[nid]) if nid < len(self_ms) else 0.0
    for f in COUNTED_FUNCTIONS["intmat"]:
        values["intmat.%s.calls" % f] = counts["intmat.%s.calls" % f]
    values["kernels.box_vectors"] = counts["kernels.box_vectors"]
    values["kernels.vectors_with_square.hit_ratio"] = _ratio(
        counts["kernels.vectors_with_square.hits"],
        counts["kernels.vectors_with_square.scanned"])
    values["lemsimo.iter_splits.yielded"] = \
        counts["lemsimo.iter_splits.yielded"]
    values["lemsimo.find_companion.splits_per_call"] = _ratio(
        counts["lemsimo.find_companion.splits"],
        values["lemsimo.find_companion.calls"])
    for check in checks:
        nid = tracer.name_id("verify." + check)
        values["verify.%s.wall_ms" % check] = \
            float(wall_ms[nid]) if nid < len(wall_ms) else 0.0
    values["trace_overhead_share"] = overhead_share
    return values


def _ratio(num, den):
    return num / den if den else 0.0

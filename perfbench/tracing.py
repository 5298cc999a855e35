"""Per-layer tracing from outside the program.

The tracer wraps the program's public functions by replacing module and
class attributes, so the program's own code is unchanged.  Every wrapped
call records a span (name, start, end, parent span, operation id); a
generator is timed over its whole consumption, one span per resumption, so
the consumer's work between two items is not charged to it.  Spans stay in
memory and are written once, by `write`.

A span's self time is its duration minus the time covered by its child
spans.  Counters (items yielded, instances returned, subsets scanned,
bytes printed or parsed) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

PACKAGE = "arrowforms"


def replace_everywhere(original, replacement):
    """Point every reference the program's modules hold to `original` at
    `replacement`; returns an undo list of (owner, attribute, value)."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index, op id]
        self._stack = []
        self.op = -1
        self.counts = Counter()  # metric name -> count
        self._undo = []
        self.start_sizes = None

    # -- spans ------------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def parent_name(self):
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counts[name + ".matches"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            outer = tracer.parent_name() != name
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result, outer)
            return result

        return wrapper

    # A layer the program no longer has is skipped and its metrics read 0,
    # so a change that merges or renames a function still gets a trace.

    def span(self, module, attr, name, after=None):
        """Record spans for module.attr (a function) under `name`."""
        fn = getattr(module, attr, None)
        if fn is not None:
            self._undo += replace_everywhere(fn, self._wrap(fn, name, after))

    def method(self, cls, attr, name, after=None):
        """Record spans for a method of a class under `name`."""
        fn = vars(cls).get(attr)
        if fn is not None:
            setattr(cls, attr, self._wrap(fn, name, after))
            self._undo.append((cls, attr, fn))

    def count(self, cls, attr, metric):
        """Count calls of a method without a span (for very hot methods)."""
        fn = vars(cls).get(attr)
        if fn is None:
            return
        counts = self.counts

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        setattr(cls, attr, counter)
        self._undo.append((cls, attr, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _nid, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (nid, start, end, _p, _op), cov in zip(self.spans, covered):
            out[self.names[nid]] += end - start - cov
        return out

    def write(self, path):
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "spans": [[nid, round(s, 9), round(e, 9), p, op] for nid, s, e, p, op in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the program's layers


def _count_len(key):
    def after(tracer, _args, result, _outer):
        tracer.counts[key] += len(result)
    return after


def _count_subsets(tracer, args, _result, _outer):
    f, g = args[0], args[1]
    tracer.counts["engine.evaluate.subsets"] += sum(
        comb(g.n, d) for d in f.degrees() if d <= g.n
    )


def _count_gain(tracer, _args, result, _outer):
    tracer.counts["ratlinalg.insert.gains"] += bool(result)


def _printed_bytes(tracer, _args, result, outer):
    if outer:
        tracer.counts["textio.bytes"] += len(result.encode())


def _parsed_bytes(tracer, args, _result, outer):
    if outer and args and isinstance(args[0], str):
        tracer.counts["textio.bytes"] += len(args[0].encode())


def _cache_sizes():
    """(entries of the 6-term marking cache, hits and misses of the triangle
    rewrite cache); zeros where the program has no such cache."""
    from arrowforms import boundary, relations

    info = getattr(getattr(boundary, "_triangle_rewrite", None), "cache_info", None)
    info = info() if info else None
    return (
        len(getattr(relations, "_MARK_CACHE", ())),
        info.hits if info else 0,
        info.misses if info else 0,
    )


def install(tracer):
    """Wrap every layer the per-layer metrics name."""
    from arrowforms import boundary, cli, diagrams, engine, lincomb, maps, ratlinalg, relations, textio

    t = tracer
    # caches may hold set-up work; the metrics count what the operations add
    t.start_sizes = _cache_sizes()
    t.span(diagrams, "canonical_arrows", "diagrams.canonical_arrows")
    t.span(diagrams, "rotation_count", "diagrams.rotation_count")
    t.span(relations, "gen_family", "relations.gen_family",
           _count_len("relations.gen_family.instances"))
    t.span(relations, "enumerate_diagrams", "relations.enumerate_diagrams")
    t.span(relations, "r3_pair_matches", "relations.r3_pair_matches")
    t.span(relations, "_full_matches", "relations.full_matches")
    t.span(relations, "r1_matches", "relations.r1_matches")
    t.span(relations, "apply_R_move", "relations.apply_R_move")
    t.span(engine, "evaluate", "engine.evaluate", _count_subsets)
    t.span(engine, "sample_move", "engine.sample_move")
    t.span(engine, "check_formula", "engine.check_formula")
    t.span(engine, "solve_formula_space", "engine.solve_formula_space")
    t.span(boundary, "boundary_d", "boundary.boundary_d")
    t.span(boundary, "normalize_triangle", "boundary.normalize_triangle")
    t.span(boundary, "triangle_relation", "boundary.triangle_relation")
    t.count(ratlinalg.Echelon, "__init__", "ratlinalg.echelon.builds")
    t.method(ratlinalg.Echelon, "insert", "ratlinalg.insert", _count_gain)
    t.method(ratlinalg.Echelon, "reduce", "ratlinalg.reduce")
    t.span(ratlinalg, "kernel", "ratlinalg.kernel")
    t.method(ratlinalg.DiagramIndexedMatrix, "add_row", "ratlinalg.add_row")
    t.span(maps, "subdiagram_expand_I", "maps.subdiagram_expand_I")
    t.span(maps, "base_expand", "maps.base_expand")
    t.count(lincomb.LinComb, "__add__", "lincomb.add.calls")
    for attr in sorted(vars(textio)):
        if attr.startswith("print_"):
            t.span(textio, attr, "textio.print", _printed_bytes)
        elif attr.startswith("parse_"):
            t.span(textio, attr, "textio.parse", _parsed_bytes)
    t.span(cli, "main", "cli.main")


# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("diagrams.canonical_arrows.calls", "count"),
    ("diagrams.canonical_arrows.self_s", "s"),
    ("diagrams.rotation_count.calls", "count"),
    ("diagrams.rotation_count.self_s", "s"),
    ("relations.gen_family.calls", "count"),
    ("relations.gen_family.self_s", "s"),
    ("relations.gen_family.instances", "count"),
    ("relations.enumerate_diagrams.self_s", "s"),
    ("relations.r3_pair_matches.matches", "count"),
    ("relations.r3_pair_matches.self_s", "s"),
    ("relations.mark_cache.entries", "count"),
    ("relations.full_matches.matches", "count"),
    ("relations.full_matches.self_s", "s"),
    ("relations.r1_matches.self_s", "s"),
    ("relations.apply_R_move.calls", "count"),
    ("relations.apply_R_move.self_s", "s"),
    ("engine.evaluate.calls", "count"),
    ("engine.evaluate.self_s", "s"),
    ("engine.evaluate.subsets", "count"),
    ("engine.sample_move.calls", "count"),
    ("engine.sample_move.self_s", "s"),
    ("engine.check_formula.self_s", "s"),
    ("engine.solve_formula_space.self_s", "s"),
    ("boundary.boundary_d.self_s", "s"),
    ("boundary.normalize_triangle.self_s", "s"),
    ("boundary.triangle_relation.calls", "count"),
    ("boundary.triangle_relation.self_s", "s"),
    ("boundary.rewrite_cache.hit_ratio", "ratio"),
    ("ratlinalg.echelon.builds", "count"),
    ("ratlinalg.insert.calls", "count"),
    ("ratlinalg.insert.self_s", "s"),
    ("ratlinalg.insert.rank_gain_ratio", "ratio"),
    ("ratlinalg.reduce.calls", "count"),
    ("ratlinalg.reduce.self_s", "s"),
    ("ratlinalg.kernel.self_s", "s"),
    ("ratlinalg.add_row.self_s", "s"),
    ("maps.subdiagram_expand_I.self_s", "s"),
    ("maps.base_expand.self_s", "s"),
    ("lincomb.add.calls", "count"),
    ("textio.print.self_s", "s"),
    ("textio.parse.self_s", "s"),
    ("textio.bytes", "bytes"),
    ("cli.main.self_s", "s"),
]


def layer_values(tracer):
    """Every per-layer metric of one traced process, by name."""
    selfs = tracer.self_times()
    counts = tracer.counts
    (marks0, hits0, misses0), (marks1, hits1, misses1) = tracer.start_sizes, _cache_sizes()
    hits = hits1 - hits0
    lookups = hits + misses1 - misses0
    inserts = counts["ratlinalg.insert.calls"]
    out = {}
    for metric, _unit in LAYER_METRICS:
        head, _, quantity = metric.rpartition(".")
        out[metric] = selfs[head] if quantity == "self_s" else counts[metric]
    out["relations.mark_cache.entries"] = marks1 - marks0
    out["boundary.rewrite_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["ratlinalg.insert.rank_gain_ratio"] = (
        counts["ratlinalg.insert.gains"] / inserts if inserts else 0.0
    )
    return out

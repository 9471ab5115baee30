"""Spans recorded from outside the program, and the per-layer metrics
computed from them.

`instrument` replaces each public function of the package's modules with
a wrapper that records a span (name, start, end, parent, op id). Modules
call each other through module attributes, so calls between layers and
inside a layer are caught too. The `FiniteSemigroup` constructor is
wrapped as `core.FiniteSemigroup`. Spans stay in memory; `write_jsonl`
writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "rewriting", "core", "_accel", "green", "ideals", "constructions")

# called m^2 times per table build: a span each would swamp the trace
COUNT_ONLY = ("rewriting.reduce_word",)


def _relation(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("relation", "R")


# extra facts kept on a span: (args, kwargs, result) -> dict
HOOKS = {
    "green.class_poset": lambda a, k, r: {"relation": _relation(a, k), "classes": len(r.classes)},
    "rewriting.critical_pairs": lambda a, k, r: {"pairs": len(r)},
    "rewriting.enumerate_irreducibles": lambda a, k, r: {"words": len(r)},
    "_accel.assoc_witness": lambda a, k, r: {"m": len(a[0])},
    "_accel.sample_assoc_tables": lambda a, k, r: {"tables": len(r)},
    "ideals.is_kind": lambda a, k, r: {"accepted": bool(r)},
}

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder; one span is [name, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []

    def wrap(self, fn, name):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return traced

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def take(self):
        """Hand over the spans and counts so far and start empty."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def instrument(tracer: Tracer):
    """Wrap every public function of each layer module, plus the
    FiniteSemigroup constructor. Returns a function that undoes it."""
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"greenheight.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.counter if name in COUNT_ONLY else tracer.wrap
            setattr(mod, attr, wrapper(obj, name))
            undo.append((mod, attr, obj))
    core = importlib.import_module("greenheight.core")
    init = core.FiniteSemigroup.__init__
    core.FiniteSemigroup.__init__ = tracer.wrap(init, "core.FiniteSemigroup")
    undo.append((core.FiniteSemigroup, "__init__", init))

    def restore():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return restore


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _outermost(spans, same):
    """Indices of spans with no ancestor for which same(ancestor, span)."""
    keep = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        while p >= 0 and not same(spans[p], s):
            p = spans[p][PARENT]
        if p < 0:
            keep.append(i)
    return keep


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass.

    A `_s` metric is the time inside the outermost calls of a function,
    callees included, unless it is named a self time below; then the
    time its child spans cover is subtracted.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
    outer = set(_outermost(spans, lambda a, b: a[NAME] == b[NAME]))

    def incl(name, keep=lambda s: True):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name]
                   if i in outer and keep(spans[i]))

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key, f=lambda v: v):
        return sum(f(spans[i][ATTRS][key]) for i in by_name[name] if spans[i][ATTRS])

    def layer_of(s):
        return s[NAME].split(".", 1)[0]

    kinds = calls("ideals.is_kind")
    m = {
        "rewriting.parse_s": incl("rewriting.parse_presentation"),
        "rewriting.complete_s": incl("rewriting.is_complete"),
        "rewriting.critical_pairs": attr_sum("rewriting.critical_pairs", "pairs"),
        "rewriting.enumerate_s": incl("rewriting.enumerate_irreducibles"),
        "rewriting.words": attr_sum("rewriting.enumerate_irreducibles", "words"),
        "rewriting.table_build_s": self_s("rewriting.semigroup_from_presentation"),
        "rewriting.reduce_calls": counts.get("rewriting.reduce_word", 0),
        "core.parse_table_s": self_s("core.parse_table_text"),
        "core.init_s": self_s("core.FiniteSemigroup"),
        "core.semigroups": calls("core.FiniteSemigroup"),
        "core.closure_s": incl("core.closure_violation"),
        "core.closure_checks": calls("core.closure_violation"),
        "core.restrict_s": incl("core.restrict_to_subsemigroup"),
        "accel.assoc_s": incl("_accel.assoc_witness"),
        "accel.assoc_calls": calls("_accel.assoc_witness"),
        "accel.assoc_triples": attr_sum("_accel.assoc_witness", "m", lambda v: v**3),
        "accel.sample_s": incl("_accel.sample_assoc_tables"),
        "accel.tables_sampled": attr_sum("_accel.sample_assoc_tables", "tables"),
        "accel.enumerate_s": incl("_accel.enumerate_assoc_tables"),
    }
    for rel in "RLJH":
        m[f"green.poset_{rel}_s"] = incl(
            "green.class_poset", lambda s, rel=rel: s[ATTRS] is not None and s[ATTRS]["relation"] == rel)
    m.update({
        "green.poset_calls": calls("green.class_poset"),
        "green.classes": attr_sum("green.class_poset", "classes"),
        "green.kernel_s": incl("green.kernel"),
        "ideals.generate_s": incl("ideals.generate"),
        "ideals.relative_height_s": self_s("ideals.relative_height"),
        "ideals.chain_param_s": self_s("ideals.chain_param"),
        "ideals.bound_report_s": self_s("ideals.bound_report"),
        "ideals.is_kind_calls": kinds,
        "ideals.kind_accept_ratio": attr_sum("ideals.is_kind", "accepted") / kinds if kinds else 0.0,
        "constructions.build_s": sum(
            spans[i][END] - spans[i][START]
            for i in _outermost(spans, lambda a, b: layer_of(a) == layer_of(b))
            if layer_of(spans[i]) == "constructions"),
        "cli.self_s": sum(selfs[i] for i, s in enumerate(spans) if layer_of(s) == "cli"),
    })
    return m


def write_jsonl(f, spans, pass_no):
    """One JSON line per span; ids and parents count within the pass."""
    for i, s in enumerate(spans):
        rec = {"pass": pass_no, "id": i, "name": s[NAME], "start": s[START], "end": s[END],
               "parent": s[PARENT], "op": s[OP]}
        if s[ATTRS]:
            rec.update(s[ATTRS])
        f.write(json.dumps(rec) + "\n")

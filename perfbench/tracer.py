"""Per-layer tracing of kernel_budget from the benchmark side.

`Tracer` patches the public functions of the layer modules, and the metered
methods of `MeteredGram` and `QueryLedger`, at every place the package binds
them (so `from .mog import cluster_mog` in `cli` and calls inside a module,
such as `cluster_mog` calling `sketch_apply_many`, are both caught). Nothing
under src/ changes. Spans stay in memory with a parent id; a span's self
time is its duration minus the time its children cover (children run on one
thread, one after another, so their durations do not overlap). Scalar
`MeteredGram.query` calls are too many to keep one span each: they are
summed per parent span instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

from kernel_budget import cli, instances, kkmc, krr, mog, oracle

LAYER_MODULES = (oracle, instances, krr, kkmc, mog, cli)
METHODS = {
    oracle.MeteredGram: ("query", "query_block", "full", "ledger_report"),
    oracle.QueryLedger: ("charge_block", "charge_full"),
}
AGGREGATED = {"oracle.query"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "agg")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0
        self.agg = {}               # name -> [calls, seconds] of summed children


def _count_block_entries(tracer, args, result):
    tracer.extra["block_entries"] += np.size(args[1]) * np.size(args[2])


def _count_factor(tracer, args, result):
    n = np.shape(args[0])[0]
    tracer.extra["factor_gflop"] += n ** 3 / 3 / 1e9


def _count_points(tracer, args, result):
    tracer.extra["points_mb"] += result.points.nbytes / 1e6


POST_HOOKS = {
    "oracle.query_block": _count_block_entries,
    "krr.solve_exact": _count_factor,
    "krr.indicator_solve": _count_factor,
}


class Tracer:
    """Context manager: patches on entry, restores on exit.

    `layer_metrics()` summarises the spans recorded since the last call and
    starts a new root span.
    """

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = [Span(0, None, "trial")]
        self._next_id = 1
        self.extra = defaultdict(float)
        self._ledgers = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        if name in AGGREGATED:
            return self._summed(name, fn)
        post = POST_HOOKS.get(name)
        if post is None and name.startswith("instances.gen_"):
            post = _count_points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            span = Span(self._next_id, parent.id, name)
            self._next_id += 1
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                parent.child_s += span.end - span.start
                self.spans.append(span)
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def _summed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                parent = self._stack[-1]
                parent.child_s += dt
                entry = parent.agg.get(name)
                if entry is None:
                    parent.agg[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def _record_ledger(self, ledger):
        self.extra["distinct_entries"] += ledger.distinct_entries
        self.extra["total_requests"] += ledger.total_requests

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- install / remove -------------------------------------------------

    def __enter__(self):
        method_names = {(cls.__module__, attr) for cls, attrs in METHODS.items() for attr in attrs}
        wrapped = {}
        for mod in LAYER_MODULES:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                # oracle.ledger_report(gram) only delegates to the method of that name
                if (mod.__name__, attr) in method_names:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("kernel_budget"):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for cls, attrs in METHODS.items():
            for attr in attrs:
                self._patch(cls, attr, self._wrap(f"oracle.{attr}", vars(cls)[attr]))

        init = vars(oracle.MeteredGram)["__init__"]

        @functools.wraps(init)
        def gram_init(gram, *args, **kwargs):
            init(gram, *args, **kwargs)
            # counts are read when the gram dies, or at layer_metrics() if alive
            fin = weakref.finalize(gram, self._record_ledger, gram.ledger)
            fin.atexit = False
            self._ledgers.append(fin)

        self._patch(oracle.MeteredGram, "__init__", gram_init)
        self.reset()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- summary ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        root = self._stack[0]
        root.end = perf_counter()
        for fin in self._ledgers:
            fin()
        totals = {}                     # name -> [calls, seconds, self seconds]
        for span in self.spans:
            tot = totals.setdefault(span.name, [0, 0.0, 0.0])
            dur = span.end - span.start
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - span.child_s
        for span in self.spans + [root]:
            for name, (calls, secs) in span.agg.items():
                tot = totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += calls
                tot[1] += secs
                tot[2] += secs
        # time inside mog entry points, counting nested mog spans once
        by_id = {span.id: span for span in self.spans}
        mog_s = 0.0
        for span in self.spans:
            if not span.name.startswith("mog."):
                continue
            parent = by_id.get(span.parent)
            while parent is not None and not parent.name.startswith("mog."):
                parent = by_id.get(parent.parent)
            if parent is None:
                mog_s += span.end - span.start
        extra = self.extra
        self.reset()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        requests = extra["total_requests"]
        return {
            "oracle.query.calls": calls("oracle.query"),
            "oracle.query.s": secs("oracle.query"),
            "oracle.query.us_per_call": per(secs("oracle.query"), calls("oracle.query"), 1e6),
            "oracle.query_block.calls": calls("oracle.query_block"),
            "oracle.query_block.s": secs("oracle.query_block"),
            "oracle.query_block.ns_per_entry": per(secs("oracle.query_block"),
                                                   extra["block_entries"], 1e9),
            "oracle.charge_block.s": secs("oracle.charge_block"),
            "oracle.full.s": secs("oracle.full"),
            "oracle.ledger_report.calls": calls("oracle.ledger_report"),
            "oracle.ledger_report.s": secs("oracle.ledger_report"),
            "oracle.distinct_entries": int(extra["distinct_entries"]),
            "oracle.total_requests": int(requests),
            "oracle.fresh_ratio": per(extra["distinct_entries"], requests, 1.0),
            "instances.gen.s": sum(secs(name) for name in totals
                                   if name.startswith("instances.gen_")),
            "instances.points_mb": extra["points_mb"],
            "krr.solve_exact.s": secs("krr.solve_exact"),
            "krr.indicator_solve.s": secs("krr.indicator_solve"),
            "krr.factor_gflop": extra["factor_gflop"],
            "kkmc.cost_kernel.s": secs("kkmc.cost_kernel"),
            "kkmc.cost_kernel.self_s": self_s("kkmc.cost_kernel"),
            "kkmc.cost_explicit.s": secs("kkmc.cost_explicit"),
            "mog.bootstrap_extract.self_s": self_s("mog.bootstrap_extract"),
            "mog.build_sketch.s": secs("mog.build_sketch"),
            "mog.sketch_apply_many.self_s": self_s("mog.sketch_apply_many"),
            "mog.assign_by_pair_tests.s": secs("mog.assign_by_pair_tests"),
            "mog.cluster_mog.self_s": self_s("mog.cluster_mog"),
            "mog.s": mog_s,
            "cli.run.self_s": self_s("cli.run"),
            "cli.write_results.s": secs("cli.write_results"),
        }

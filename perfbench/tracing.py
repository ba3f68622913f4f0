"""Per-layer tracing of spanv from outside the library.

The tracer wraps the public functions of each layer and the component
operations of the backend classes.  Each call into a wrapped function
records one span (function, start, end, parent span) in flat arrays held
in memory; self time is a span's duration minus the part its child spans
cover, and is worked out after the traced region ends.  A few functions
also feed computed counters from their arguments or results.

``from .x import f`` copies the binding into the importing module, so a
function is replaced in every ``spanv`` module whose attribute is the
same object, not only where it is defined.
"""

import sys
import time
from array import array

import numpy as np

# module -> functions traced in it; the metric names are
# <module>.<function>.calls and <module>.<function>.self_s
FUNCTIONS = {
    "finset": ("pullback", "product"),
    "span": ("tensor_spans", "match_by_signature", "unique_map_to_monic"),
    "cells": ("compose_cells", "tensor_cells", "tensor_fams", "make_2cell",
              "try_make_2cell", "hcompose_2cells", "cells_equal", "fams_equal"),
    # _canonical_iso_ex is what paste, two_cells_equal and the strict
    # (co)monoid checks call; canonical_cell_iso is its public wrapper
    "pasting": ("paste", "two_cells_equal", "canonical_cell_iso",
                "_canonical_iso_ex", "find_unique_2cell"),
    "structures": ("check_strict_monoid", "check_strict_comonoid", "check_frobenius",
                   "check_oplax_bimonoid", "check_oplax_hopf", "check_oplax_inverse",
                   "infer_unique_structure_cells", "convolution"),
    "hopfcat": ("check_hopf_vcat", "check_semi_hopf_vcat", "check_frobenius_vcat",
                "hopfcat_to_spanv", "frobcat_to_spanv", "groupoid_structures",
                "groupoid_to_hopfcat"),
    "cli": ("load_structure", "run_checks", "build_report"),
}

# where each function is defined, when that is not spanv.<module>
DEFINED_IN = {
    "check_strict_monoid": "spanv.structures.base",
    "check_strict_comonoid": "spanv.structures.base",
    "check_frobenius": "spanv.structures.base",
    "check_oplax_bimonoid": "spanv.structures.bimonoid",
    "infer_unique_structure_cells": "spanv.structures.bimonoid",
    "check_oplax_hopf": "spanv.structures.convolution",
    "check_oplax_inverse": "spanv.structures.convolution",
    "convolution": "spanv.structures.convolution",
}

# functions whose inclusive time is reported as well (.incl_s)
INCLUSIVE = ("check_strict_monoid", "check_strict_comonoid", "check_frobenius",
             "check_oplax_bimonoid", "check_oplax_hopf", "check_oplax_inverse",
             "check_hopf_vcat", "check_semi_hopf_vcat", "check_frobenius_vcat",
             "hopfcat_to_spanv", "frobcat_to_spanv", "groupoid_structures",
             "groupoid_to_hopfcat")

BACKEND_CLASSES = ("TrivialBackend", "FinSetBackend", "MatBackend")
BACKEND_METHODS = ("compose", "tensor_mor", "tensor_obj", "eq_mor", "eq_obj",
                   "mor_key", "id", "braiding")

# computed counters: name -> (unit, how runs combine)
COUNTERS = {
    "finset.pullback.out_elems": ("count", sum),
    "finset.peak_apex": ("count", max),
    "span.match_by_signature.rows": ("count", sum),
    "vbackend.compose.madds": ("count", sum),
    "vbackend.tensor_mor.out_bytes": ("bytes", sum),
    "cells.components_out": ("count", sum),
    "cells.try_make_2cell.rejected": ("count", sum),
}


def traced_names():
    """Every traced function as (module, function)."""
    return ([(mod, fn) for mod, fns in FUNCTIONS.items() for fn in fns]
            + [("vbackend", m) for m in BACKEND_METHODS])


def _module_path(mod, fn):
    return DEFINED_IN.get(fn, "spanv." + mod)


class Tracer:
    """Install wrappers, record spans, and summarise them per function."""

    def __init__(self):
        self.names = traced_names()
        self.fid = {name: i for i, name in enumerate(self.names)}
        self._patched = []
        self.fids = array("i")
        self.parents = array("q")
        self.outer = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = {name: 0 for name in COUNTERS}
        self._stack = [-1]
        self._active = [0] * len(self.names)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fid, fn, after=None):
        fids, parents, outer, t0, t1 = self.fids, self.parents, self.outer, self.t0, self.t1
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(t0)
            fids.append(fid)
            parents.append(stack[-1])
            outer.append(active[fid] == 0)
            t1.append(0.0)
            stack.append(idx)
            active[fid] += 1
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                active[fid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hooks(self):
        c = self.counters
        from spanv.cells import InvalidCell

        def pullback(args, result):
            size = result[0].size
            c["finset.pullback.out_elems"] += size
            if size > c["finset.peak_apex"]:
                c["finset.peak_apex"] = size

        def match(args, result):
            cols = args[0]
            c["span.match_by_signature.rows"] += len(cols[0]) if cols else 0

        def components(args, result):
            if result.alphas is not None:
                c["cells.components_out"] += len(result.alphas)

        def try_make(args, result):
            if isinstance(result, InvalidCell):
                c["cells.try_make_2cell.rejected"] += 1

        return {"pullback": pullback, "match_by_signature": match,
                "compose_cells": components, "tensor_cells": components,
                "try_make_2cell": try_make}

    def _mat_hooks(self):
        c = self.counters

        def compose(args, result):
            f, g = args[1], args[2]
            c["vbackend.compose.madds"] += int(f.shape[0]) * int(f.shape[1]) * int(g.shape[1])

        def tensor_mor(args, result):
            c["vbackend.tensor_mor.out_bytes"] += int(result.nbytes)

        return {"compose": compose, "tensor_mor": tensor_mor}

    def install(self):
        """Replace every traced function and backend method in spanv."""
        import spanv.cli  # noqa: F401  (so its bindings are patched too)
        import spanv.vbackend

        assert not self._patched, "tracer already installed"
        hooks = self._after_hooks()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spanv" or name.startswith("spanv."))]
        for mod, fn in self.names:
            if mod == "vbackend":
                continue
            original = getattr(sys.modules[_module_path(mod, fn)], fn)
            wrapper = self._wrap(self.fid[(mod, fn)], original, hooks.get(fn))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        mat_hooks = self._mat_hooks()
        for cls_name in BACKEND_CLASSES:
            cls = getattr(spanv.vbackend, cls_name)
            for meth in BACKEND_METHODS:
                original = cls.__dict__[meth]
                after = mat_hooks.get(meth) if cls_name == "MatBackend" else None
                setattr(cls, meth, self._wrap(self.fid[("vbackend", meth)], original, after))
                self._patched.append((cls, meth, original))

    def remove(self):
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # ---------------------------------------------------------- summary

    def summary(self):
        """Per function: calls, self seconds and inclusive seconds, plus
        the computed counters.  Inclusive time counts only the outermost
        span of a function, so recursion is not counted twice."""
        n = len(self.names)
        fids = np.frombuffer(self.fids, dtype=np.int32).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(fids, minlength=n)
        self_s = np.bincount(fids, weights=dur - child, minlength=n)
        incl_s = np.bincount(fids[outer], weights=dur[outer], minlength=n)
        out = {}
        for i, (mod, fn) in enumerate(self.names):
            key = "%s.%s" % (mod, fn)
            out[key] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                        "incl_s": float(incl_s[i])}
        return {"functions": out, "counters": dict(self.counters)}


def merge(summaries):
    """Combine summaries of separate runs (for example one per process):
    calls, times and counters add up, peaks take the maximum."""
    functions = {}
    counters = {name: 0 for name in COUNTERS}
    for s in summaries:
        for key, rec in s["functions"].items():
            acc = functions.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        for name, value in s["counters"].items():
            counters[name] = COUNTERS[name][1]((counters[name], value))
    return {"functions": functions, "counters": counters}


def average(summaries):
    """Mean times over repeated runs of the same work; calls and
    counters are taken from the first run (they must repeat exactly)."""
    out = merge(summaries)
    for key, rec in out["functions"].items():
        rec["calls"] = summaries[0]["functions"][key]["calls"]
        rec["self_s"] /= len(summaries)
        rec["incl_s"] /= len(summaries)
    out["counters"] = dict(summaries[0]["counters"])
    return out


def counts_of(summary):
    """The parts of a summary that must repeat exactly: calls and counters."""
    counts = {key + ".calls": rec["calls"] for key, rec in summary["functions"].items()}
    counts.update(summary["counters"])
    return counts


def per_layer_metrics(summary, overhead_s, import_s):
    """Flatten a summary into the benchmark's per-layer metric table."""
    metrics = {}
    for key, rec in summary["functions"].items():
        metrics[key + ".calls"] = (rec["calls"], "count")
        metrics[key + ".self_s"] = (rec["self_s"], "s")
        if key.split(".", 1)[1] in INCLUSIVE:
            metrics[key + ".incl_s"] = (rec["incl_s"], "s")
    c = summary["counters"]
    for name, (unit, _) in COUNTERS.items():
        if name != "cells.try_make_2cell.rejected":
            metrics[name] = (c[name], unit)
    calls = summary["functions"]["cells.try_make_2cell"]["calls"]
    rejected = c["cells.try_make_2cell.rejected"]
    metrics["cells.try_make_2cell.reject_ratio"] = (rejected / calls if calls else 0.0, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics

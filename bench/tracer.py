"""Outside-in tracer for the siltglue package.

The tracer wraps public functions of the siltglue modules without editing
them: every module attribute (in every loaded ``siltglue.*`` module and the
package itself) that is bound to a wrapped function is rebound to a timing
wrapper, so intra-package calls such as ``silting`` -> ``derived_hom_dim``
(imported with ``from .complexes import``) produce spans too.  Spans
(name, start, end, parent) are kept in memory and summarised, or written
out, when the traced pass ends.  Cache counters are read from the original
``lru_cache`` objects, which the wrappers call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# Public functions wrapped per module; the per-layer metrics are named
# "<module>.<function>.calls" and "<module>.<function>.self_s".
WRAPPED = {
    "exactlin": ("rref", "sparse_rank"),
    "kronecker": ("hom_dim", "hom_basis", "explicit_rep", "decompose",
                  "regular_support_points", "ext_cocycle_basis",
                  "bongartz_extension", "is_tilting_module"),
    "complexes": ("derived_hom_dim", "chain_map_basis_shift1",
                  "chain_endo_basis", "universal_extension", "minimize",
                  "hom_complex_to_module", "morphism_basis"),
    "silting": ("glue_kronecker", "identify_summands", "phi_surjective"),
    "tube": ("ext_dim_arcs", "hom_dim_arcs", "is_rigid",
             "enumerate_maximal_rigid"),
    "cyclic_oracle": ("rep_of_arc", "hom_dim_oracle", "ext_dim_oracle"),
    "expansion": ("push_forward", "reduce_left", "reduce_right"),
    "glue": ("glue_left", "glue_right", "choose_seed", "verify_tilting_spec",
             "round_trip", "enumerate_single_tube_specs"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)

# Counters recorded at the wrapped boundaries, besides calls and self time.
COUNTERS = ("exactlin.rref.cells", "exactlin.sparse_rank.nonzeros",
            "kronecker.regular_support_points.candidates",
            "kronecker.regular_support_points.useful")

# lru_cache objects whose counters are reported.
CACHED = ("kronecker.hom_dim", "kronecker.explicit_rep")


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self._names: list = []
        self._name_id: dict = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._originals: dict = {}
        self._rebound: list = []
        self._rsp_by_parent: dict = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED and rebind all of its aliases."""
        wrappers = {}
        for qual in FUNCTIONS:
            mod, fn = qual.rsplit(".", 1)
            orig = getattr(importlib.import_module(f"siltglue.{mod}"), fn)
            self._originals[qual] = orig
            wrappers[id(orig)] = (orig, self._wrap(qual, orig))
        for modname, module in list(sys.modules.items()):
            if modname != "siltglue" and not modname.startswith("siltglue."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, val))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._rebound):
            setattr(module, attr, orig)
        self._rebound.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        if qual not in self._name_id:
            self._name_id[qual] = len(self._names)
            self._names.append(qual)
        nid = self._name_id[qual]
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        stack = self._stack
        clock = time.perf_counter
        pre = {"exactlin.rref": self._pre_rref,
               "exactlin.sparse_rank": self._pre_sparse_rank}.get(qual)
        post = {"kronecker.regular_support_points": self._post_rsp,
                "kronecker.decompose": self._post_decompose}.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if post is not None:
                post(idx, result)
            return result

        return traced

    def _pre_rref(self, args):
        m = args[0]
        self.counters["exactlin.rref.cells"] += m.rows * m.cols
        return args

    def _pre_sparse_rank(self, args):
        counters = self.counters

        def counted(rows):
            for row in rows:
                counters["exactlin.sparse_rank.nonzeros"] += sum(
                    1 for v in row.values() if v != 0)
                yield row

        return (counted(args[0]),) + tuple(args[1:])

    def _post_rsp(self, idx, result):
        self.counters["kronecker.regular_support_points.candidates"] += len(result)
        self._rsp_by_parent.setdefault(self._span_parent[idx], []).extend(result)

    def _post_decompose(self, idx, result):
        cands = self._rsp_by_parent.pop(idx, ())
        regular = {getattr(obj, "point", None) for obj, _ in result
                   if hasattr(obj, "length")}
        self.counters["kronecker.regular_support_points.useful"] += sum(
            1 for p in cands if p in regular)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per wrapped function, counters, cache info."""
        n = len(self._span_name)
        child = [0.0] * n
        dur = [self._span_end[i] - self._span_start[i] for i in range(n)]
        for i in range(n):
            p = self._span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        for i in range(n):
            name = self._names[self._span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        caches = {}
        for qual in CACHED:
            info = self._originals[qual].cache_info()
            caches[qual] = {"hits": info.hits, "misses": info.misses,
                            "entries": info.currsize}
        return {"calls": calls, "self_s": self_s,
                "counters": dict(self.counters), "caches": caches,
                "spans": n}

    def spans(self):
        """(name, start, end, parent index) per span, in start order; the
        parent is -1 for a span no other wrapped call encloses."""
        for i in range(len(self._span_name)):
            yield (self._names[self._span_name[i]], self._span_start[i],
                   self._span_end[i], self._span_parent[i])

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def merge(summaries: list) -> dict:
    """Combine the summaries of several traced processes (one per CLI call):
    calls, self time, counters and cache lookups add up; cache entries are
    the largest any process held."""
    out = {"calls": dict.fromkeys(FUNCTIONS, 0),
           "self_s": dict.fromkeys(FUNCTIONS, 0.0),
           "counters": dict.fromkeys(COUNTERS, 0),
           "caches": {q: {"hits": 0, "misses": 0, "entries": 0} for q in CACHED},
           "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counters"):
            for name, value in s[key].items():
                out[key][name] += value
        for qual, info in s["caches"].items():
            acc = out["caches"][qual]
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["entries"] = max(acc["entries"], info["entries"])
        out["spans"] += s["spans"]
    return out

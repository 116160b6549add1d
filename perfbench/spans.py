"""Span recording around the calls into each boolcube module, from outside.

`Recorder.install()` rebinds every public function of every boolcube module
in each namespace that holds it by name (`transform` is bound in spectral,
coloring, macwilliams and the package itself), so calls made through
re-imported names are recorded too.  Each call records a span: name, start,
end, parent span and op id.  Spans stay in memory until `save()`.
`uninstall()` puts the original functions back.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from time import perf_counter

import numpy as np

# Counts taken from a function's return value at the boundary.
COUNTERS = {
    "search.backtrack_search": lambda r: r.nodes,
    # Work of one transform as computed bytes: n passes, read and write of
    # 2^n coefficients each.
    "spectral.transform": lambda r: r.n * 2 * (1 << r.n) * r.coeffs.itemsize,
}


def _is_public_function(name: str, obj) -> bool:
    return (not name.startswith("_")
            and isinstance(obj, (types.FunctionType,
                                 functools._lru_cache_wrapper))
            and getattr(obj, "__module__", "").startswith("boolcube"))


def boolcube_modules() -> list:
    import boolcube
    mods = [boolcube]
    for info in pkgutil.iter_modules(boolcube.__path__):
        mods.append(importlib.import_module("boolcube." + info.name))
    return mods


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, op, count]
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def _wrap(self, fn):
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in boolcube_modules():
            for name, obj in list(vars(mod).items()):
                if _is_public_function(name, obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj)
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def arrays(self) -> dict:
        s = np.array([sp[:5] for sp in self.spans],
                     dtype=np.float64).reshape(-1, 5)
        return {"name": s[:, 0].astype(np.int64), "start": s[:, 1],
                "end": s[:, 2], "parent": s[:, 3].astype(np.int64),
                "op": s[:, 4].astype(np.int64),
                "count": np.array([sp[5] for sp in self.spans], dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and merged first)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    out = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivs = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


# Per-layer metrics: (metric, unit, better); see README.md for which
# end-to-end metric each should move and on which workload.
SELF = ("spectral.transform", "spectral.weight_table", "coloring.check_perfect",
        "coloring.spectral_support", "cube_core.stats", "cube_core.complement",
        "cube_core.make_set", "cube_core.vertex_index", "cli.parse_document",
        "cli.cmd_analyze", "cli.main",
        "macwilliams.distance_distribution",
        "macwilliams.macwilliams_from_distances", "macwilliams.krawtchouk",
        "cli.build_report", "theorem.verify", "theorem.fdf_bound",
        "theorem.bf_bound", "search.backtrack_search", "theorem.sweep",
        "search.enumerate_perfect", "search.canonical_mask", "search.construct",
        "search.affine_coloring", "search.half_cube", "search.hamming_code")
CALLS = ("spectral.transform", "spectral.cor_order", "coloring.check_perfect",
         "cube_core.stats")
LAYER_METRICS = (
    [(name + ".self_s", "s/op", "lower") for name in SELF]
    + [(name + ".calls", "1/op", "lower") for name in CALLS]
    + [("spectral.transform.per_report", "1/report", "lower"),
       ("spectral.transform.bytes_computed", "B/op", "lower"),
       ("macwilliams.distance_distribution.spectral_route", "1/op", "lower"),
       ("search.backtrack_search.nodes", "1/call", "lower"),
       ("search.nodes_per_s", "1/s", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")])


def layer_metrics(rec: Recorder, n_ops: int, overhead_ratio: float) -> dict:
    """Per-op means over the traced ops of every metric in LAYER_METRICS;
    a layer the workload never calls reads 0."""
    arr = rec.arrays()
    selfs = self_times(arr["start"], arr["end"], arr["parent"])
    names = np.array(rec.names, dtype=object)[arr["name"]]
    dur = arr["end"] - arr["start"]

    def of(name):
        return names == name

    m: dict[str, float] = {}
    for name in SELF:
        m[name + ".self_s"] = float(selfs[of(name)].sum()) / n_ops
    for name in CALLS:
        m[name + ".calls"] = int(of(name).sum()) / n_ops
    tr = of("spectral.transform")
    reports = int(of("cli.build_report").sum())
    m["spectral.transform.per_report"] = (int(tr.sum()) / reports
                                          if reports else 0.0)
    m["spectral.transform.bytes_computed"] = int(arr["count"][tr].sum()) / n_ops
    dd = np.flatnonzero(of("macwilliams.distance_distribution"))
    spectral_parents = set(arr["parent"][tr].tolist())
    m["macwilliams.distance_distribution.spectral_route"] = \
        sum(1 for i in dd if int(i) in spectral_parents) / n_ops
    bt = of("search.backtrack_search")
    nodes = int(arr["count"][bt].sum())
    m["search.backtrack_search.nodes"] = nodes / int(bt.sum()) if bt.any() else 0.0
    bt_time = float(dur[bt].sum())
    m["search.nodes_per_s"] = nodes / bt_time if bt_time > 0 else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m

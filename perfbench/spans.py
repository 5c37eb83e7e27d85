"""Tracing from outside the package: spans around calls into each module.

`instrument(tracer)` replaces every public function of the traced modules,
by name, in every `specshift` namespace that holds it (so calls made within
a module, such as `hermitian.increment_ratio` calling `apply_function`, are
seen too), plus `ScalarFunction.__call__`.  Nothing under `src/` changes.
Each call records a span (name, start, end, parent) in compact in-memory
columns; `layer_metrics` derives inclusive and self times and exact counts
from those columns afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

#: layers are the package modules; each contributes the functions in its
#: `__all__` (cli has none, and is entered through `main`)
LAYERS = ("cli", "serialize", "search", "blocks", "sequences", "hermitian",
          "loewner", "catalog")

F_EVAL = "catalog.ScalarFunction.__call__"
COUNTERS = ("search.evals", "loewner.entries", "serialize.bytes",
            "blocks.refine_depth", "blocks.ok", "blocks.failed", "sequences.levels")


def _trace_norm(m: np.ndarray) -> float:
    # numpy directly: hermitian.schatten_norm is traced while this runs
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _refine_depth(args, result) -> int:
    """Subdivision n of a segment refinement, as ||B-A||_1 / ||B'-A'||_1."""
    (a, b), (left, right) = args[1:3], result
    before = _trace_norm(b.matrix - a.matrix)
    after = _trace_norm(right.matrix - left.matrix)
    return int(round(before / after))


def _levels(result) -> int:
    """Levels found: a full witness, or the levels before a NotFound."""
    return result.length if hasattr(result, "length") else result.levels_found


#: exact counts read from results at the layer boundary:
#: span name -> fn(call args, result) -> {counter: increment}
_RESULT_COUNTS = {
    "search.seminorm_lower_bound": lambda args, r: {"search.evals": r.budget_used},
    "loewner.loewner_matrix": lambda args, r: {"loewner.entries": int(r.entries.size)},
    "serialize.dump_json": lambda args, r: {"serialize.bytes": len(r.encode("utf-8"))},
    "blocks.segment_refine": lambda args, r: {"blocks.refine_depth": _refine_depth(args, r)},
    "blocks.build_divergent_family": lambda args, r: {
        "blocks.ok": len(r.records), "blocks.failed": int(r.failure is not None)},
    "sequences.scalar_ratio_witnesses": lambda args, r: {"sequences.levels": _levels(r)},
}


class Tracer:
    """Span store: one row per call, parent = index of the enclosing span."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = threading.local()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        on_result = _RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._stack, "spans", None)
            if stack is None:
                stack = tracer._stack.spans = [-1]
            with tracer._lock:
                idx = len(tracer.start)
                tracer.name_id.append(nid)
                tracer.parent.append(stack[-1])
                tracer.start.append(0.0)
                tracer.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if on_result is not None:
                found = on_result(args, result)
                with tracer._lock:
                    for key, value in found.items():
                        tracer.counts[key] += value
            return result

        return traced

    def save(self, path: str, executions) -> None:
        """Write the spans; `executions` holds each execution's [lo, hi) rows."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), executions=np.array(executions))


def _targets():
    """(span name, function) for every traced public function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"specshift.{layer}"]
        names = ("main",) if layer == "cli" else mod.__all__
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", obj))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore."""
    from specshift.catalog import ScalarFunction

    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in _targets()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "specshift" and not modname.startswith("specshift."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
    original_call = ScalarFunction.__call__
    ScalarFunction.__call__ = tracer.wrap(F_EVAL, original_call)
    try:
        yield tracer
    finally:
        ScalarFunction.__call__ = original_call
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, lo: int, hi: int, counts: dict) -> dict:
    """Per-layer metrics of the spans recorded in [lo, hi) (one execution).

    A layer's `.s` sums the spans that enter it from another layer (nested
    calls inside the layer are not counted twice); `.calls` counts those
    entries.  A function's `.s` and `.calls` cover all its spans.  Self time
    is a span's duration minus the durations of its child spans.
    """
    nid = np.array(tracer.name_id[lo:hi], dtype=np.intp)
    dur = np.array(tracer.end[lo:hi]) - np.array(tracer.start[lo:hi])
    parent = np.array(tracer.parent[lo:hi], dtype=np.intp) - lo
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names],
                             dtype=np.intp)
    layer = layer_of_name[nid]
    entry = ~has_parent | (layer != layer[np.where(has_parent, parent, 0)])

    def fn_calls(name):
        mask = nid == tracer.name_ids.get(name, -1)
        return int(mask.sum()), float(dur[mask].sum())

    m = {}
    for i, mod in enumerate(LAYERS):
        mask = layer == i
        m[f"{mod}.calls"] = int((mask & entry).sum())
        m[f"{mod}.s"] = float(dur[mask & entry].sum())
        m[f"{mod}.self_s"] = float(self_time[mask].sum())
    pair = np.isin(layer, [LAYERS.index("hermitian"), LAYERS.index("loewner")])
    pair_entry = pair & ~(has_parent & pair[np.where(has_parent, parent, 0)])
    m["hermitian+loewner.s"] = float(dur[pair_entry].sum())
    evals = counts["search.evals"]
    m["search.evals"] = evals
    m["search.us_per_eval"] = 1e6 * m["search.s"] / evals if evals else 0.0

    _, witness_s = fn_calls("sequences.scalar_ratio_witnesses")
    levels = counts["sequences.levels"]
    m["sequences.levels"] = levels
    m["sequences.s_per_level"] = witness_s / levels if levels else 0.0
    m["sequences.bookkeeping_s"] = (fn_calls("sequences.multiplicity_sequence")[1]
                                    + fn_calls("sequences.divergence_check")[1])

    for fn in ("decompose", "apply_function", "schatten_norm", "increment_ratio",
               "trace_transfer_check"):
        m[f"hermitian.{fn}.calls"], m[f"hermitian.{fn}.s"] = fn_calls(f"hermitian.{fn}")
    m["loewner.entries"] = counts["loewner.entries"]
    m["catalog.f_evals"] = fn_calls(F_EVAL)[0]
    m["blocks.refine.calls"], m["blocks.refine.s"] = fn_calls("blocks.segment_refine")
    for key in ("blocks.refine_depth", "blocks.ok", "blocks.failed", "serialize.bytes"):
        m[key] = counts[key]
    return m

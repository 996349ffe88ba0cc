"""Per-module spans for the traced run, recorded from outside the package.

Every public function defined in a measured ``contradapt`` module is wrapped,
and the wrapper is bound in place of the original in every package module
namespace that holds it (so ``trainer``'s and ``discrepancy``'s imported
names are traced too).  Private helpers are not wrapped: their cost shows up
as self time of the public function that calls them, and wrapping them made
a traced moons ``can`` run about 10 % slower.

A span is (function, start, end, parent span).  Spans stay in memory while
the workload runs and are written out once at the end.  A layer's self time
is the sum, over its spans, of span duration minus the durations of the
span's direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("kernels", "discrepancy", "model", "clustering", "sampling", "trainer", "data", "cli")
PACKAGE = "contradapt"


def _kernel_entries(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    if isinstance(result, tuple):  # kernel_matrix_grad: (grad_a, grad_b)
        n_a, n_b = result[0].shape[0], result[1].shape[0]
    else:
        n_a, n_b = result.shape
    counts["kernels.entries"] += n_a * n_b * len(spec.bandwidths)


def _forward_rows(counts, args, kwargs, result):
    counts["model.forward_rows"] += result.inputs.shape[0]


def _generated_rows(counts, args, kwargs, result):
    counts["data.rows"] += result[0].n + result[1].n


def _saved_rows(counts, args, kwargs, result):
    counts["data.rows"] += (args[0] if args else kwargs["dataset"]).n


def _loaded_rows(counts, args, kwargs, result):
    counts["data.rows"] += result.n


def _kmeans(counts, args, kwargs, result):
    counts["clustering.kmeans_iters"] += result.iterations_run


def _filter(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counts["clustering.filtered"] += state.assignments.size
    counts["clustering.kept"] += result.kept_indices.size


# Counters derived from a call's arguments and result, keyed by qualified name.
HOOKS = {
    "kernels.kernel_matrix": _kernel_entries,
    "kernels.kernel_matrix_grad": _kernel_entries,
    "model.forward": _forward_rows,
    "data.gen_blobs": _generated_rows,
    "data.gen_moons": _generated_rows,
    "data.save_csv": _saved_rows,
    "data.load_csv": _loaded_rows,
    "clustering.spherical_kmeans": _kmeans,
    "clustering.filter_targets": _filter,
}


class Tracer:
    """Wraps the package's public functions; ``install``/``uninstall`` swap
    the wrappers in and out so untraced rounds run the original code."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_of: list[int] = []
        self._fid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._bound: list[tuple[object, str, object]] = []
        for layer_idx, layer in enumerate(LAYERS):
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or id(fn) in self._wrappers):
                    continue
                qualified = f"{layer}.{fn.__name__}"
                self.names.append(qualified)
                self._layer_of.append(layer_idx)
                self._wrappers[id(fn)] = self._wrap(len(self.names) - 1, fn, HOOKS.get(qualified))

    def _wrap(self, fid: int, fn, hook):
        fids, parents, starts, ends = self._fid, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def _arrays(self):
        return (np.array(self._fid, dtype=np.int32), np.array(self._parent, dtype=np.int32),
                np.array(self._start, dtype=float), np.array(self._end, dtype=float))

    def summary(self, n_rounds: int, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics, per traced round."""
        fid, parent, start, end = self._arrays()
        n_fn = len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=fid.size)
        self_s = dur - child
        layer = np.asarray(self._layer_of, dtype=np.int64)[fid]
        layer_self = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        fn_total = np.bincount(fid, weights=dur, minlength=n_fn)
        fn_calls = np.bincount(fid, minlength=n_fn)
        layer_calls = np.bincount(layer, minlength=len(LAYERS))
        ix = {name: i for i, name in enumerate(self.names)}

        def fn_s(name):
            return float(fn_total[ix[name]])

        def fn_n(name):
            return int(fn_calls[ix[name]])

        per = {f"{name}.self_s": float(layer_self[i]) for i, name in enumerate(LAYERS)}
        per.update({
            "kernels.calls": int(layer_calls[LAYERS.index("kernels")]),
            "kernels.entries": self.counts["kernels.entries"],
            "discrepancy.calls": int(layer_calls[LAYERS.index("discrepancy")]),
            "model.forward_s": fn_s("model.forward"),
            "model.forward_calls": fn_n("model.forward"),
            "model.forward_rows": self.counts["model.forward_rows"],
            "model.backward_s": fn_s("model.backward"),
            "model.backward_calls": fn_n("model.backward"),
            "model.sgd_step_s": fn_s("model.sgd_step"),
            "model.checkpoint_s": fn_s("model.save_checkpoint") + fn_s("model.load_checkpoint"),
            "clustering.kmeans_calls": fn_n("clustering.spherical_kmeans"),
            "clustering.kmeans_iters": self.counts["clustering.kmeans_iters"],
            "sampling.calls": int(layer_calls[LAYERS.index("sampling")]),
            "trainer.evaluate_s": fn_s("trainer.evaluate"),
            "data.rows": self.counts["data.rows"],
        })
        out = {name: value / n_rounds for name, value in per.items()}
        filtered = self.counts["clustering.filtered"]
        out["clustering.kept_ratio"] = self.counts["clustering.kept"] / filtered if filtered else 0.0
        out["trace.coverage"] = float(layer_self.sum()) / traced_wall_s
        return out

    def write(self, path) -> None:
        fid, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), fid=fid, parent=parent,
                            start=start, end=end)

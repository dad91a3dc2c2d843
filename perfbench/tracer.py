"""In-memory spans around the public functions of the sdrn modules.

The package has no tracing of its own, so the benchmark wraps functions
where their callers look them up: every module attribute of the sdrn
modules that refers to a traced function is replaced by a wrapper, and
methods are wrapped on their class.  A span is (name, start, end,
parent), with ``parent`` the index of the enclosing span (-1 at the
root); spans nest by call order, which is exact because the workloads
run single-threaded (``SDRN_THREADS`` unset).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        # parallel lists of plain values keep the garbage collector's work
        # independent of the number of spans
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self.fits: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, args, out)
            return out

        return wrapper

    def install(self, modules, functions, methods) -> None:
        """Wrap ``functions`` ({(module, name): (span, count)}) at every
        attribute of ``modules`` that holds them, and ``methods``
        ({(class, name): (span, count)}) on their class."""
        for (home, attr), (name, count) in functions.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for (cls, attr), (name, count) in methods.items():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def inclusive(self, name: str) -> float:
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name)

    def self_time(self, name: str) -> float:
        """Duration of ``name``'s spans minus the time their child spans cover."""
        child = [0.0] * len(self.names)
        for s, e, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += e - s
        return sum(
            e - s - c
            for n, s, e, c in zip(self.names, self.starts, self.ends, child)
            if n == name
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), span))) + "\n")


def sdrn_hooks(tracer: Tracer):
    """The traced functions of sdrn, with the counters each one feeds."""
    from sdrn import cli, estimator, evalsuite, losses, relu_product, sparse_grid

    def rows(t, args, out):
        t.add("cli.read_csv_rows", len(out[1]))

    def feature_map(t, args, out):
        n, p = out.shape
        t.add("estimator.feature_map_calls")
        t.add("estimator.feature_map_cells", n * p)
        t.add("estimator.feature_map_bytes", n * p * 8)

    def solver(t, args, out):
        t.add("estimator.solver_iterations", out[1].epochs_run)
        t.fits.append((args[0], args[1], args[2], out[0]))

    def square(t, args, out):
        t.add("relu_product.square_approx_calls")
        t.add("relu_product.square_approx_elems", np.size(out))

    def calls(counter):
        return lambda t, args, out: t.add(counter)

    def ids(t, args, out):
        t.add("sparse_grid.ids_enumerated", len(out))

    modules = (cli, estimator, evalsuite, losses, relu_product, sparse_grid)
    functions = {
        (cli, "read_csv"): ("cli.read_csv", rows),
        (cli, "cmd_fit"): ("cli.cmd_fit", None),
        (cli, "cmd_predict"): ("cli.cmd_predict", None),
        (cli, "cmd_simulate"): ("cli.cmd_simulate", None),
        (cli, "cmd_verify_bounds"): ("cli.cmd_verify_bounds", None),
        (estimator, "fit_sdrn"): ("estimator.fit_sdrn", None),
        (estimator, "adam_fit"): ("estimator.adam_fit", solver),
        (losses, "loss_subgradient"): ("losses.loss_subgradient", None),
        (losses, "loss_value"): ("losses.loss_value", None),
        (relu_product, "square_approx"): ("relu_product.square_approx", square),
        (relu_product, "pair_product"): (
            "relu_product.pair_product", calls("relu_product.pair_product_calls")),
        (relu_product, "approx_basis_eval"): (
            "relu_product.approx_basis_eval", calls("relu_product.approx_basis_eval_calls")),
        (sparse_grid, "enumerate_basis"): ("sparse_grid.enumerate_basis", ids),
        (sparse_grid, "interpolate"): ("sparse_grid.interpolate", None),
        (sparse_grid, "tensor_hat_eval"): ("sparse_grid.tensor_hat_eval", None),
        (evalsuite, "generate"): ("evalsuite.generate", None),
        (evalsuite, "regression_metrics"): ("evalsuite.regression_metrics", None),
        (evalsuite, "run_replications"): ("evalsuite.run_replications", None),
        (evalsuite, "verify_bounds"): ("evalsuite.verify_bounds", None),
    }
    methods = {
        (estimator.FeatureMap, "__call__"): ("estimator.FeatureMap", feature_map),
        (estimator.SdrnModel, "predict"): ("estimator.SdrnModel.predict", None),
        (relu_product.ReluGraph, "eval"): ("relu_product.ReluGraph.eval", None),
    }
    return modules, functions, methods


# Per-layer metric -> (unit, how it is read, what it reads): the inclusive
# or self time of a span name, or a counter.
PER_LAYER = {
    "cli.read_csv_s": ("s", "inclusive", "cli.read_csv"),
    "cli.read_csv_rows": ("count", "counter", "cli.read_csv_rows"),
    "cli.cmd_fit_self_s": ("s", "self", "cli.cmd_fit"),
    "cli.cmd_predict_self_s": ("s", "self", "cli.cmd_predict"),
    "estimator.feature_map_s": ("s", "inclusive", "estimator.FeatureMap"),
    "estimator.feature_map_calls": ("count", "counter", "estimator.feature_map_calls"),
    "estimator.feature_map_cells": ("count", "counter", "estimator.feature_map_cells"),
    "estimator.feature_map_bytes": ("B", "counter", "estimator.feature_map_bytes"),
    "estimator.solver_s": ("s", "inclusive", "estimator.adam_fit"),
    "estimator.solver_iterations": ("count", "counter", "estimator.solver_iterations"),
    "estimator.solver_rel_gap": ("1", "counter", "estimator.solver_rel_gap"),
    "estimator.predict_s": ("s", "inclusive", "estimator.SdrnModel.predict"),
    "losses.subgradient_s": ("s", "inclusive", "losses.loss_subgradient"),
    "relu_product.square_approx_s": ("s", "inclusive", "relu_product.square_approx"),
    "relu_product.square_approx_calls": ("count", "counter", "relu_product.square_approx_calls"),
    "relu_product.square_approx_elems": ("count", "counter", "relu_product.square_approx_elems"),
    "relu_product.pair_product_calls": ("count", "counter", "relu_product.pair_product_calls"),
    "relu_product.approx_basis_eval_s": ("s", "inclusive", "relu_product.approx_basis_eval"),
    "relu_product.approx_basis_eval_calls": (
        "count", "counter", "relu_product.approx_basis_eval_calls"),
    "relu_product.relu_graph_eval_s": ("s", "inclusive", "relu_product.ReluGraph.eval"),
    "sparse_grid.enumerate_basis_s": ("s", "inclusive", "sparse_grid.enumerate_basis"),
    "sparse_grid.ids_enumerated": ("count", "counter", "sparse_grid.ids_enumerated"),
    "sparse_grid.interpolate_s": ("s", "inclusive", "sparse_grid.interpolate"),
    "sparse_grid.tensor_hat_eval_s": ("s", "inclusive", "sparse_grid.tensor_hat_eval"),
    "evalsuite.generate_s": ("s", "inclusive", "evalsuite.generate"),
    "evalsuite.regression_metrics_s": ("s", "inclusive", "evalsuite.regression_metrics"),
    "evalsuite.run_replications_self_s": ("s", "self", "evalsuite.run_replications"),
    "evalsuite.verify_bounds_self_s": ("s", "self", "evalsuite.verify_bounds"),
    "trace.overhead_s": ("s", "counter", "trace.overhead_s"),
    "trace.spans": ("count", "counter", "trace.spans"),
}


def per_layer(tracer: Tracer) -> dict[str, float]:
    read = {
        "inclusive": tracer.inclusive,
        "self": tracer.self_time,
        "counter": lambda key: tracer.counts.get(key, 0),
    }
    tracer.counts["trace.spans"] = len(tracer.names)
    return {metric: read[how](key) for metric, (_, how, key) in PER_LAYER.items()}

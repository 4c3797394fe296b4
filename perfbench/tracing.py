"""Span tracing of maskdg's public functions, installed from outside.

`Tracer` wraps each function in WRAPPED at every binding its callers use:
module attributes in any loaded `maskdg.*` module that refer to the same
function object (so `maskdg.training.grad_tasknet` is wrapped along with
`maskdg.gradients.grad_tasknet`), class attributes for methods, and
`numpy.linalg.eigh`, which `spectral_edges` reaches through `np.linalg`.
Spans (name, start, end, parent span, iteration id) stay in memory until
`write` is called; `layer_metrics` turns them into per-layer figures.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (metric prefix, defining module, attribute path)
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "maskdg.cli", "main"),
    ("graph.load_graph", "maskdg.graph", "load_graph"),
    ("graph.coalesce", "maskdg.graph", "coalesce"),
    ("enrich.knn_edges", "maskdg.enrich", "knn_edges"),
    ("enrich.spectral_edges", "maskdg.enrich", "spectral_edges"),
    ("enrich.Enricher.sample", "maskdg.enrich", "Enricher.sample"),
    ("enrich.eigh", "numpy.linalg", "eigh"),
    ("masknet.mask_forward", "maskdg.masknet", "mask_forward"),
    ("masknet.mask_forward_var", "maskdg.masknet", "mask_forward_var"),
    ("tasknet.tasknet_forward_var", "maskdg.tasknet", "tasknet_forward_var"),
    ("tasknet.cross_entropy_var", "maskdg.tasknet", "cross_entropy_var"),
    ("tasknet.loss_over_masks", "maskdg.tasknet", "loss_over_masks"),
    ("autodiff.Var.backward", "maskdg.autodiff", "Var.backward"),
    ("gradients.grad_tasknet", "maskdg.gradients", "grad_tasknet"),
    ("gradients.grad_masknet", "maskdg.gradients", "grad_masknet"),
    ("optim.adam_step", "maskdg.optim", "adam_step"),
    ("training.train", "maskdg.training", "train"),
    ("training.evaluate", "maskdg.training", "evaluate"),
    ("training.tasknet_descent_step", "maskdg.training",
     "tasknet_descent_step"),
    ("training.masknet_ascent_step", "maskdg.training",
     "masknet_ascent_step"),
    ("theory.dual_upper_bound", "maskdg.theory", "dual_upper_bound"),
)

# Extra per-layer figures: name -> (unit, better)
EXTRAS: Dict[str, Tuple[str, str]] = {
    "enrich.spectral_edges.distinct_share": ("ratio", "higher"),
    "enrich.spectral_edges.peak_mb": ("MB", "lower"),
    "enrich.Enricher.sample.edges": ("count", "lower"),
    "tasknet.tasknet_forward_var.edges": ("count", "lower"),
    "theory.dual_upper_bound.masks": ("count", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    out = []
    for name, _, _ in WRAPPED:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in EXTRAS.items()]
    return out


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(str((arr.dtype.str, arr.shape)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Install with `with tracer:`; set `tracer.iteration` before each
    iteration so spans carry the iteration id."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.values: Dict[str, List[Tuple[int, object]]] = defaultdict(list)
        self.iteration = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._signatures: Dict[Callable, inspect.Signature] = {}
        self._spectral_call: Optional[tuple] = None
        self.spectral_peak_mb = 0.0

    # -- installation -----------------------------------------------------

    def __enter__(self):
        arounds = {
            "enrich.spectral_edges": self._around_spectral,
            "enrich.Enricher.sample": self._around_sample,
            "tasknet.tasknet_forward_var": self._around_forward,
            "theory.dual_upper_bound": self._around_dual,
        }
        for name, module, path in WRAPPED:
            mod = importlib.import_module(module)
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, arounds.get(name))
            if owner is mod:
                targets = [m for key, m in list(sys.modules.items())
                           if m is not None and (key == "maskdg"
                                                 or key.startswith("maskdg."))]
                targets.append(mod)
            else:
                targets = [owner]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, original))
                        setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)
        return False

    def _wrap(self, name: str, fn: Callable, around: Optional[Callable]):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, args, kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.iteration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _bind(self, fn, args, kwargs) -> inspect.BoundArguments:
        if fn not in self._signatures:
            self._signatures[fn] = inspect.signature(fn)
        return self._signatures[fn].bind(*args, **kwargs)

    def _record(self, name: str, value) -> None:
        self.values[name].append((self.iteration, value))

    # -- extras -----------------------------------------------------------

    def _around_spectral(self, fn, args, kwargs):
        bound = self._bind(fn, args, kwargs)
        bound.apply_defaults()
        rng = bound.arguments["rng"]
        key = (_digest(np.asarray(bound.arguments["X"])),
               bound.arguments["clusters"],
               repr(bound.arguments["bandwidth"]),
               None if rng is None else json.dumps(rng.bit_generator.state,
                                                   sort_keys=True))
        self._record("enrich.spectral_edges.key", key)
        if self._spectral_call is None:
            self._spectral_call = (fn, copy.deepcopy(args),
                                   copy.deepcopy(kwargs))
        return fn(*args, **kwargs)

    def measure_spectral_peak(self) -> None:
        """Replay the first traced spectral_edges call (same inputs, same rng
        state) with tracemalloc on around it alone, untimed: tracemalloc
        slows the call by a third, which would skew the traced split."""
        if self._spectral_call is None:
            return
        fn, args, kwargs = self._spectral_call
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.spectral_peak_mb = peak / 2 ** 20

    def _around_sample(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self._record("enrich.Enricher.sample.edges",
                     int(out.enriched_edges.shape[0]))
        return out

    def _around_forward(self, fn, args, kwargs):
        bound = self._bind(fn, args, kwargs)
        edges = np.asarray(bound.arguments["edges"]).reshape(-1, 3)
        self._record("tasknet.tasknet_forward_var.edges", int(edges.shape[0]))
        return fn(*args, **kwargs)

    def _around_dual(self, fn, args, kwargs):
        bound = self._bind(fn, args, kwargs)
        loss_fn = bound.arguments["loss_fn"]
        counted = [0]

        def counting(batch):
            counted[0] += np.atleast_2d(batch).shape[0]
            return loss_fn(batch)

        bound.arguments["loss_fn"] = counting
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            self._record("theory.dual_upper_bound.masks", counted[0])

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, iterations: List[int]) -> Dict[str, float]:
        """Per-iteration means over the given iteration ids (calls, inclusive
        and self seconds), plus the extras. Functions never called read 0."""
        wanted = set(iterations)
        n = max(len(wanted), 1)
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, it) in enumerate(self.spans):
            if it in wanted:
                calls[name] += 1
                incl[name] += end - start
                self_s[name] += (end - start) - child[idx]
        out: Dict[str, float] = {}
        for name, _, _ in WRAPPED:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.s"] = incl[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        out.update(self._extras(wanted))
        return out

    def _extras(self, wanted) -> Dict[str, float]:
        def vals(name):
            return [v for it, v in self.values.get(name, []) if it in wanted]

        keys = defaultdict(list)
        for it, key in self.values.get("enrich.spectral_edges.key", []):
            if it in wanted:
                keys[it].append(key)
        shares = [len(set(k)) / len(k) for k in keys.values()]
        out = {
            "enrich.spectral_edges.distinct_share":
                float(np.mean(shares)) if shares else 0.0,
            "enrich.spectral_edges.peak_mb": self.spectral_peak_mb,
        }
        for name in ("enrich.Enricher.sample.edges",
                     "tasknet.tasknet_forward_var.edges",
                     "theory.dual_upper_bound.masks"):
            v = vals(name)
            out[name] = float(np.mean(v)) if v else 0.0
        return out

    def root_seconds(self, iteration: int) -> float:
        """Wall time covered by top-level spans of one iteration."""
        return sum(end - start for name, start, end, parent, it in self.spans
                   if parent < 0 and it == iteration)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, it) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "iteration": it}) + "\n")

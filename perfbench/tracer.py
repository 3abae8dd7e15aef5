"""Span tracer that times credbond's layers from outside the package.

``Tracer.install`` replaces every module-level public function of the six
layers, plus ``GridSolution.interpolate``, with a wrapper that records a span
(name, parent span, start, end) and so counts the call.  It patches every
``credbond`` namespace that binds the function, which covers
``from .bond import survival_curve, d_fn`` in ``options`` and the re-exports
in ``credbond``.  ``uninstall`` puts the originals back.  Spans live in flat
arrays until ``write`` saves them, once, at the end of the run.

The tracer assumes one thread: Monte-Carlo engines run with ``workers=1``.
"""

from __future__ import annotations

import collections
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("analytics", "model", "bond", "options", "oracles", "cli")
# the quadrature branch of binorm_cdf that costs about twice the other
HIGH_RHO = 0.925


def _count_root_evals(counters, args, kwargs):
    """find_root hook: count evaluations of the function being solved."""
    f = args[0]

    def counted(u):
        counters["analytics.find_root.evals"] += 1
        return f(u)

    return (counted,) + args[1:], kwargs


def _count_high_rho(counters, args, kwargs):
    rho = args[2] if len(args) > 2 else kwargs["rho"]
    if HIGH_RHO <= abs(rho) < 1.0:
        counters["analytics.binorm_cdf.high_rho"] += 1
    return args, kwargs


HOOKS = {
    "analytics.find_root": _count_root_evals,
    "analytics.binorm_cdf": _count_high_rho,
}


def traced_functions() -> dict:
    """span name -> (owner, attribute, function) of everything the tracer wraps."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"credbond.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[f"{layer}.{attr}"] = (module, attr, obj)
    grid = sys.modules["credbond.oracles"].GridSolution
    found["oracles.interpolate"] = (grid, "interpolate", grid.interpolate)
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(span)
            if hook is not None:
                args, kwargs = hook(counters, args, kwargs)
            starts[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        targets = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, (_, _, fn) in targets.items()}
        namespaces = [vars(mod) for name, mod in list(sys.modules.items())
                      if name == "credbond" or name.startswith("credbond.")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]
        for owner, attr, fn in targets.values():
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._restore.clear()

    # --- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) ns and self ns.

        Also the duration of each root span, in call order, and their sum.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        per_name = {n: {"calls": int(calls[i]), "total_ns": float(total[i]),
                        "self_ns": float(own[i])}
                    for i, n in enumerate(self.names)}
        roots = dur[~nested]
        return {"names": per_name, "root_ns": float(roots.sum()),
                "roots_ns": roots.tolist()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]},{self.span_end[i]}\n")

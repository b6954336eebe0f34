"""Spans around calls into the llot layers, recorded from outside the package.

The tracer replaces every binding of each traced public function with one
wrapper: the home-module attribute, each ``from .x import f`` copy in another
``llot`` module, and the package re-export.  Classes are traced through their
``__init__`` and methods on the class, so every instance is covered.  Spans
are kept in memory as ``[name, start, end, parent, count]`` and written out
by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from typing import Callable, Optional

# (home module, attribute path, counter name, counter) for each traced layer.
# A counter maps the call's return value to a number summed per op.  A layer
# that a later version of llot removes is skipped and reads 0.
TRACED = (
    ("semiclassics", "trial_energy", None, None),
    ("semiclassics", "optimize_eps", None, None),
    ("regularizer", "build_regularized", None, None),
    ("regularizer", "integrate_observable", None, None),
    ("regularizer", "RegularizedPlan.tensor", "entries", lambda r: getattr(r, "size", 0)),
    ("regularizer", "kinetic_of_sqrt", None, None),
    ("regularizer", "potential_error", None, None),
    ("regularizer", "density_of", None, None),
    ("grids", "Grid.index_of", None, None),
    ("grids", "snap_to_grid", None, None),
    ("grids", "is_symmetric", None, None),
    ("grids", "marginal", None, None),
    ("mollifier", "GridKernel", None, None),
    ("mollifier", "convolve_sq", None, None),
    ("mmot", "solve_lp", "iterations", lambda r: getattr(r, "iterations", 0)),
    ("mmot", "solve_sinkhorn", "iterations", lambda r: getattr(r, "iterations", 0)),
    ("mmot", "check_dual", None, None),
    ("simplex", "solve_standard_form", None, None),
    ("quantum", "MixedStateKernel", None, None),
    ("quantum", "kernel_eval", None, None),
    ("quantum", "quadratic_form", None, None),
    ("quantum", "kinetic_trace", None, None),
    ("quantum", "trace", None, None),
    ("quantum", "one_particle_density", None, None),
    ("fileio", "read_density", None, None),
    ("fileio", "read_plan", None, None),
    ("fileio", "write_report", None, None),
    ("cli", "main", None, None),
)

PACKAGE = "llot"


class Tracer:
    """Installs span-recording wrappers into the imported ``llot`` package."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _exit(self, record: list):
        record[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        record = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(record)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if counter is not None:
                record[4] = counter(result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of every traced function and method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for home, path, _, counter in TRACED:
            name = f"{home}.{path}"
            parts = path.split(".")
            target = getattr(by_name.get(f"{PACKAGE}.{home}"), parts[0], None)
            attr = (parts[1] if len(parts) == 2
                    else "__init__" if isinstance(target, type) else None)
            if target is None or (attr is not None and attr not in vars(target)):
                self.missing.append(name)
            elif attr is not None:
                self._patch(target, attr, self._wrap(name, vars(target)[attr], counter))
            else:
                wrapper = self._wrap(name, target, counter)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is target:
                            self._patch(module, binding, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list:
        """``(owner name, attribute)`` of every binding currently wrapped."""
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _ in self._patches]

    # -- analysis -------------------------------------------------------------

    def per_op(self) -> list:
        """Per traced op: ``{name: {"calls", "s", "count"}}`` with self times.

        A span's self time is its duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: list = []
        root_of = [-1] * len(self.spans)
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            if parent < 0:
                root_of[i] = len(ops)
                ops.append({})
            else:
                root_of[i] = root_of[parent]
            stats = ops[root_of[i]].setdefault(name, {"calls": 0, "s": 0.0, "count": 0})
            stats["calls"] += 1
            stats["s"] += (end - start) - child_time[i]
            stats["count"] += count
        return ops

    def check_nesting(self) -> bool:
        """Every span lies inside its parent's interval."""
        for name, start, end, parent, _ in self.spans:
            if end < start:
                return False
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    return False
        return True

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


def layer_metrics(ops: list) -> dict:
    """Median over traced ops of ``<layer>.calls``, ``<layer>.s`` and counters.

    Every traced layer gets its metrics; a layer an op never calls reads 0.
    """
    out = {}
    for home, path, counter_name, _ in TRACED:
        name = f"{home}.{path}"
        stats = [op.get(name, {"calls": 0, "s": 0.0, "count": 0}) for op in ops]
        out[f"{name}.calls"] = statistics.median(s["calls"] for s in stats)
        out[f"{name}.s"] = statistics.median(s["s"] for s in stats)
        if counter_name:
            out[f"{name}.{counter_name}"] = statistics.median(s["count"] for s in stats)
    return out

"""Spans around khessian's public functions, installed from outside the package.

install() replaces every public function of every khessian module, and
the save methods of RadialProfile, with a timing wrapper.  A function is
replaced in its defining module and in every khessian module that imported
it by name (khessian.eigen.first_integral_solve, khessian.cli.main, ...),
so calls between modules are timed as well.  Spans carry a parent id and
are kept in flat arrays until the run ends; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("symfun", "cones", "radial", "dirichlet", "eigen", "geometry", "cli")
METHODS = (("radial", "RadialProfile", "save_csv"), ("radial", "RadialProfile", "save_json"))
PUBLIC = {"cli": ("main", "write_manifest")}  # modules without an __all__


def _span_name(qualname: str, args, kwargs) -> str:
    """Name of one call; two public functions are split by what they were asked."""
    if qualname == "dirichlet.solve_radial_dirichlet":
        r_inner = kwargs.get("r_inner", args[5] if len(args) > 5 else 0.0)
        return "dirichlet.annulus_solve" if r_inner > 0 else qualname
    if qualname == "cli.main":
        argv = list(args[0] if args else kwargs.get("argv") or [])
        sub = argv[0] if argv else "?"
        if sub == "verify" and len(argv) > 1:
            sub = f"verify-{argv[1]}"
        return f"cli.main.{sub}"
    return qualname


def _count_result(qualname: str, fn, args, kwargs, result, counts) -> None:
    """Counts read off public return values and arguments of a few functions."""
    if qualname == "eigen.iterate_fixed_lambda":
        counts["eigen.probes"] += 1
        counts["eigen.probe_solves"] += result.n_iter
        if result.reason in ("fixed-point", "sup-cap"):
            counts["eigen.decided_solves"] += result.n_iter
    elif qualname == "dirichlet.solve_radial_dirichlet":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["cfg"].grid_size
        counts["dirichlet.grid_refinements"] += math.log2((result.r.size - 1) / grid)
    elif qualname == "dirichlet.holder_seminorm":
        n = args[0].r.size
        # computed, not measured: |h_i - h_j| and |r_i - r_j| in float64
        # and the bool mask dr > 0, each n x n
        counts["dirichlet.holder_seminorm.bytes"] = max(
            counts["dirichlet.holder_seminorm.bytes"], 17.0 * n * n)
    elif qualname == "geometry.verify_exp_boundary_barrier":
        counts["geometry.cells"] += result["samples"] * result["depth_nodes"]
    elif qualname == "geometry.verify_log_boundary_barrier":
        # two passes over the cells: one sizes M, one certifies it
        counts["geometry.cells"] += 2 * result[1]["samples"] * result[1]["depth_nodes"]


COUNTED = ("eigen.iterate_fixed_lambda", "dirichlet.solve_radial_dirichlet",
           "dirichlet.holder_seminorm", "geometry.verify_exp_boundary_barrier",
           "geometry.verify_log_boundary_barrier")


class Spans:
    """Finished spans as arrays: name, parent's name, duration and self time."""

    def __init__(self, tracer: "Tracer"):
        sid = np.frombuffer(tracer.sid, dtype=np.int64)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.labels = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.dur = np.frombuffer(tracer.t1) - np.frombuffer(tracer.t0)
        pos = np.full(int(sid.max()) + 1 if sid.size else 1, -1, dtype=np.int64)
        pos[sid] = np.arange(sid.size)
        ppos = np.where(parent >= 0, pos[np.maximum(parent, 0)], -1)
        self.parent_name = np.where(ppos >= 0, self.name[np.maximum(ppos, 0)], -1)
        child_sum = np.zeros(sid.size)
        np.add.at(child_sum, ppos[ppos >= 0], self.dur[ppos >= 0])
        self.self_time = self.dur - child_sum

    def _sel(self, label: str, under: str = None) -> np.ndarray:
        if label not in self.labels:
            return np.zeros(self.name.size, dtype=bool)
        sel = self.name == self.labels.index(label)
        if under is not None:
            pid = self.labels.index(under) if under in self.labels else -2
            sel &= self.parent_name == pid
        return sel

    def calls(self, label: str, under: str = None) -> int:
        return int(np.count_nonzero(self._sel(label, under)))

    def durations(self, label: str) -> np.ndarray:
        return self.dur[self._sel(label)]

    def self_total(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with prefix."""
        ids = [i for i, lab in enumerate(self.labels) if lab.startswith(prefix)]
        return float(self.self_time[np.isin(self.name, ids)].sum())


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._lock = threading.Lock()
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.counts: dict = defaultdict(float)
        self.root = -1  # parent of spans opened by a worker thread
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = self._name_ids[name] = len(self.names)
                    self.names.append(name)
        return nid

    def _wrap(self, fn, qualname: str):
        tracer = self
        counted = qualname in COUNTED

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counted:
                    with tracer._lock:
                        _count_result(qualname, fn, args, kwargs, result, tracer.counts)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                nid = tracer._name_id(_span_name(qualname, args, kwargs))
                with tracer._lock:
                    tracer.sid.append(sid)
                    tracer.parent.append(parent)
                    tracer.name.append(nid)
                    tracer.t0.append(t0)
                    tracer.t1.append(t1)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {short: importlib.import_module(f"khessian.{short}") for short in MODULES}
        pkg = [m for n, m in list(sys.modules.items())
               if n == "khessian" or n.startswith("khessian.")]
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", PUBLIC.get(short, ())):
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for m in pkg:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._saved.append((m, name, fn))
                            setattr(m, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{meth}"))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def begin_op(self) -> None:
        """Start a benchmark operation: a fresh span stack in this thread."""
        self.root = next(self._ids)
        self._local.stack = [self.root]

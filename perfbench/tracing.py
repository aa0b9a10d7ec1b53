"""Span tracing of the ``ncpde`` layers from outside the package.

``Tracer.install`` replaces every public function defined in a traced
module by a timing wrapper, on every ``ncpde`` module namespace that binds
that function object: ``gradient`` and ``right_act`` are imported by name
into ``cli``, ``elliptic`` and ``evolution``, so patching only ``calculus``
would miss those calls.  Each call records a span (name, start, end, parent
span, run id) into typed arrays that stay in memory until ``arrays`` hands
them over at the end.  ``AlgebraElement`` construction is counted, not
spanned, because it is too frequent to time.  ``reports`` holds only
containers and is not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "backends", "dirichlet", "calculus", "elliptic",
          "evolution", "coords")
# namespaces that may bind a traced function
NAMESPACES = ("ncpde",) + tuple(f"ncpde.{m}" for m in LAYERS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.functions: dict = {}            # traced name -> original function
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.outer = array("b")      # 1 when no enclosing span has the same name
        self.run_id = -1
        self.created: Counter = Counter()   # AlgebraElement constructions per run id
        self._stack: list[int] = []
        self._active: list[int] = []        # open spans per name id
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.functions[name] = fn
        self._active.append(0)
        stack, active = self._stack, self._active
        name_id, start, end, parent, run, outer = (
            self.name_id, self.start, self.end, self.parent, self.run, self.outer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
                active[nid] -= 1

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for layer in LAYERS:
            module = importlib.import_module(f"ncpde.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patches.append((ns, bound, fn, wrapper))
        element = importlib.import_module("ncpde.backends").AlgebraElement
        post_init = element.__post_init__
        created = self.created

        def counted(obj):
            created[self.run_id] += 1
            post_init(obj)

        self._patches.append((element, "__post_init__", post_init, counted))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.  Calls
    are single-threaded, so children never overlap each other."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_stats(spans: dict[str, np.ndarray], names: list[str],
                runs: np.ndarray | None = None) -> dict[str, dict[str, float]]:
    """Totals per traced function over the spans of ``runs`` (all when
    None): calls, busy seconds (outermost spans of that name only, so
    recursion is not double counted) and self seconds."""
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    mask = np.ones(dur.size, bool) if runs is None else np.isin(spans["run"], runs)
    nid = spans["name_id"][mask]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    busy = np.bincount(nid, weights=np.where(spans["outer"][mask], dur[mask], 0.0), minlength=k)
    self_ = np.bincount(nid, weights=selfs[mask], minlength=k)
    return {n: {"calls": float(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_[i])}
            for i, n in enumerate(names)}

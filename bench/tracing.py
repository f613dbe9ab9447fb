"""Span tracer for the codim benchmark, installed from outside the package.

``Tracer.install`` wraps every public function of the given codim modules at
every module attribute that binds it (so ``codim.trainers.semi_loss`` and
``codim.mixmatch.semi_loss`` both record), plus the public methods of the
classes in ``TRACED_CLASSES``. Nothing under ``src/`` is edited, and the
wrappers only record: they pass arguments and results through untouched.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end. A span's self time is its duration minus the
time its child spans cover; calls are strictly nested in this single-threaded
program, so that is the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

# Classes whose public methods are traced. Tensor, SGD, ModelTriple and
# CodimTrainer carry the autodiff, optimizer, model and co-divide layers;
# Dataset.with_noise is the noise-injection entry point of the data layer.
TRACED_CLASSES = ("Tensor", "SGD", "ModelTriple", "CodimTrainer", "Dataset")

# Tail percentiles tried from the highest down; a tail is reported at the
# highest one that still has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records one span per call of a wrapped codim function while active."""

    def __init__(self, modules, observers=None):
        self.modules = list(modules)
        # span name -> f(args, kwargs, result) whose value is kept per call
        self.observers = dict(observers or {})
        self.observations: dict[str, list] = defaultdict(list)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.active = False
        self.nodes_built = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = self.observers.get(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                self.observations[name].append(observe(args, kwargs, result))
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function at each module attribute binding it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and attr in TRACED_CLASSES:
                    for meth, member in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, meth,
                                        self._wrap(member, f"{short}.{attr}.{meth}"))
                    if attr == "Tensor":
                        self._patch(obj, "__init__", self._counting_init(obj.__init__))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

    def _counting_init(self, init):
        def counting_init(node, *args, **kwargs):
            if self.active:
                self.nodes_built += 1
            init(node, *args, **kwargs)
        return counting_init

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unbound_originals(self) -> list[str]:
        """Module attributes still bound to an unwrapped public function.

        Empty after ``install``; a non-empty list names a binding site the
        tracer would silently miss.
        """
        missed = []
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and getattr(obj, "__module__", "").startswith("codim")
                        and not hasattr(obj, "__wrapped__")):
                    missed.append(f"{mod.__name__}.{attr}")
        return missed

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (benchmark output checks) record no spans."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # ------------------------------------------------------------ analysis

    def arrays(self):
        """(name_ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_ids, dtype=np.int32).astype(np.intp),
                np.frombuffer(self.parents, dtype=np.int32).astype(np.intp),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def summary(self) -> "SpanSummary":
        ids, parents, starts, ends = self.arrays()
        return SpanSummary(self.names, ids, parents, starts, ends)

    def save(self, path):
        ids, parents, starts, ends = self.arrays()
        np.savez(path, names=np.array(self.names), name_ids=ids, parents=parents,
                 starts=starts, ends=ends)


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Duration minus the summed duration of each span's direct children."""
    parents = np.asarray(parents, dtype=np.intp)
    durations = np.asarray(durations, dtype=np.float64)
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    k = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return float(sorted_values[k - 1])


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the highest ladder percentile
    with at least ``TAIL_MIN_BEYOND`` samples beyond it; percentile 0 and
    value 0 when there are too few samples for any."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, float(ordered[rank - 1]), n
    return 0.0, 0.0, n


class SpanSummary:
    """Per-name self time and call counts over a set of recorded spans."""

    def __init__(self, names, name_ids, parents, starts, ends):
        self.names = list(names)
        self.name_ids = np.asarray(name_ids, dtype=np.intp)
        self.parents = np.asarray(parents, dtype=np.intp)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.durations = self.ends - self.starts
        self.self_s = self_times(self.parents, self.durations)
        width = len(self.names)
        self._self_by_name = np.bincount(self.name_ids, weights=self.self_s,
                                         minlength=width)
        self._calls_by_name = np.bincount(self.name_ids, minlength=width)
        self._index = {name: i for i, name in enumerate(self.names)}

    def self_seconds(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._self_by_name[i])

    def calls(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self._calls_by_name[i])

    def spans_of(self, name: str) -> np.ndarray:
        i = self._index.get(name)
        if i is None:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero(self.name_ids == i)

    def nearest_ancestor(self, span: int, names) -> int:
        """Closest enclosing span whose name is in ``names`` (-1 if none)."""
        wanted = {self._index[n] for n in names if n in self._index}
        p = self.parents[span]
        while p >= 0 and self.name_ids[p] not in wanted:
            p = self.parents[p]
        return int(p)

"""Spans around the calls into each of the program's layers.

The tracer wraps the public functions of the program's modules from the
outside: every module attribute bound to a wrapped function (for example
``posterior_bank`` is bound in ``inference``, ``onearm`` and ``hybrid``)
is replaced by one wrapper, and restored afterwards. Each call records a
span: name, start, end, thread, parent span and an optional work amount
(elements, draws, bytes). A call made from a pool thread with no open span
is attached to the span of the job that is running. Spans stay in memory
until the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover (children from pool threads may overlap each other, so the
union of their intervals is subtracted).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _elements(args, kwargs, result):
    log_weights = kwargs.get("log_weights", args[2] if len(args) > 2 else None)
    ybar = kwargs.get("ybar", args[3] if len(args) > 3 else None)
    return np.size(log_weights) * np.size(ybar)


def _draws(args, kwargs, result):
    return np.size(kwargs.get("ybar", args[2] if len(args) > 2 else None))


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result)


# (module, function, work amount recorded per call). The order is the
# order of the per-layer report.
LAYERS = (
    ("config", "normalize_config", None),
    ("scenarios", "base_normals", None),
    ("scenarios", "base_uniforms", None),
    ("inference", "posterior_bank", _elements),
    ("inference", "posterior", None),
    ("inference", "exact_t_tail_oracle", None),
    ("onearm", "posterior_stats", _draws),
    ("onearm", "one_arm_tie", None),
    ("onearm", "one_arm_power", None),
    ("onearm", "one_arm_rmse", None),
    ("onearm", "mean_posterior_weight", None),
    ("onearm", "one_arm_rejection_region", None),
    ("onearm", "one_arm_tie_exact", None),
    ("hybrid", "hybrid_tie", None),
    ("hybrid", "hybrid_power", None),
    ("hybrid", "average_tie", None),
    ("hybrid", "average_power", None),
    ("hybrid", "hybrid_tie_exact", None),
    ("hybrid", "hybrid_power_exact", None),
    ("hybrid", "sweet_spot", None),
    ("diagnostics", "find_modes", None),
    ("sweep", "run_config", None),
    ("sweep", "write_outputs", _bytes_written),
)
CACHED = ("scenarios.base_normals", "scenarios.base_uniforms")
GH_ROUTES = ("hybrid.hybrid_tie_exact", "hybrid.hybrid_power_exact")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    amount: float
    key: str | None = None  # cost-model key of a route call
    size: float = 0.0  # cost-model size of a route call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replace every binding of a function across the program's modules."""

    def __init__(self, package: str = "borrowsim"):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def modules(self):
        """The package and every one of its modules, imported now so that
        a module imported later cannot bind an unwrapped function."""
        package = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def original(self, module: str, name: str):
        try:
            mod = importlib.import_module(f"{self.package}.{module}")
        except ImportError:
            return None
        return getattr(mod, name, None)

    def replace(self, original, replacement) -> None:
        for mod in self.modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class Tracer:
    """Records spans for the layer functions while installed.

    ``features(name, args, kwargs)`` may return a (cost key, size) pair for
    a call; the first call seen for each key is kept in ``first_calls``.
    """

    def __init__(self, features=None):
        self.features = features
        self.first_calls: dict[str, tuple] = {}
        self.originals: dict[str, object] = {}
        self.spans: list[Span] = []
        self.jobs: list[tuple[str, Span]] = []
        self.cache_stats: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_sid: int | None = None
        self._main = threading.get_ident()
        self._patcher = Patcher()
        self._caches: dict[str, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, amount):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._job_sid
            sid = next(tracer._ids)
            misses = cache_info().misses if cache_info else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if cache_info is not None:
                # Bytes generated, for calls that missed the cache.
                work = result.nbytes if cache_info().misses > misses else 0
            else:
                work = amount(args, kwargs, result) if amount else 0
            key, size = None, 0.0
            if tracer.features is not None:
                key, size = tracer.features(name, args, kwargs) or (None, 0.0)
                if key is not None:
                    tracer.first_calls.setdefault(key, (args, kwargs))
            tracer.spans.append(Span(
                sid, parent, name, start, end, threading.get_ident(), float(work), key, size
            ))
            return result

        return wrapper

    def install(self) -> None:
        for module, name, amount in LAYERS:
            fn = self._patcher.original(module, name)
            if fn is None:
                continue
            full = f"{module}.{name}"
            self.originals[full] = fn
            if hasattr(fn, "cache_info"):
                self._caches[full] = fn
            self._patcher.replace(fn, self._wrap(full, fn, amount))

    def uninstall(self) -> None:
        self._patcher.restore()

    @contextmanager
    def job(self, name: str):
        """Span covering one job; pool-thread spans attach to it."""
        sid = next(self._ids)
        self._job_sid = sid
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._job_sid = None
            self.jobs.append((name, Span(sid, None, "job", start, end, self._main, 0.0)))
            for cname, fn in self._caches.items():
                info = fn.cache_info()
                self.cache_stats[cname][0] += info.hits
                self.cache_stats[cname][1] += info.misses


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from one traced pass: name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    parents = {s.sid: s.parent for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, tuple[float, str]] = {}
    for module, name, _ in LAYERS:
        full = f"{module}.{name}"
        group = by_name.get(full, [])
        if full in CACHED:
            hits, misses = tracer.cache_stats.get(full, (0, 0))
            held = defaultdict(float)
            for s in group:
                held[_job_of(s, parents)] += s.amount
            out[f"{full}.hits"] = (hits, "count")
            out[f"{full}.misses"] = (misses, "count")
            out[f"{full}.gen_s"] = (sum(s.duration for s in group if s.amount), "s")
            out[f"{full}.bytes_held"] = (max(held.values(), default=0.0), "B")
            continue
        busy = sum(s.duration for s in group)
        out[f"{full}.calls"] = (len(group), "count")
        out[f"{full}.busy_s"] = (busy, "s")
        out[f"{full}.self_s"] = (sum(own[s.sid] for s in group), "s")
        if full == "inference.posterior_bank":
            elements = sum(s.amount for s in group)
            out[f"{full}.elements"] = (elements, "count")
            out[f"{full}.elements_per_s"] = (elements / busy if busy else 0.0, "1/s")
        elif full == "onearm.posterior_stats":
            out[f"{full}.draws"] = (sum(s.amount for s in group), "count")
        elif full == "sweep.write_outputs":
            out[f"{full}.bytes"] = (sum(s.amount for s in group), "B")
        elif full == "hybrid.sweet_spot":
            out[f"{full}.gh_evals"] = (_descendants(spans, parents, group, GH_ROUTES), "count")
    return out


def _job_of(span: Span, parents: dict) -> int | None:
    """Id of the outermost ancestor of ``span`` (its job span)."""
    sid = span.parent
    while sid in parents and parents[sid] is not None:
        sid = parents[sid]
    return sid


def _descendants(spans: list[Span], parents: dict, roots: list[Span], names) -> int:
    """How many spans named in ``names`` sit below any of ``roots``."""
    root_ids = {r.sid for r in roots}
    count = 0
    for s in spans:
        if s.name not in names:
            continue
        sid = s.parent
        while sid is not None:
            if sid in root_ids:
                count += 1
                break
            sid = parents.get(sid)
    return count


def worker_cells(tracer: Tracer) -> list[Span]:
    """Top-level layer calls made from pool threads (one per sweep cell)."""
    job_ids = {span.sid for _, span in tracer.jobs}
    return [s for s in tracer.spans if s.thread != tracer._main and s.parent in job_ids]

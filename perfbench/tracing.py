"""Span tracing of the carmahf modules from outside the package.

:func:`install` replaces functions on their defining modules (for example
``carmahf.core.matrix_exp``) with wrappers.  Calls inside a module resolve
through the module dict, so the wrappers see them too; the re-exports in
``carmahf/__init__`` are separate bindings, so callers must go through the
defining module.  Spans (name, start, end, parent) stay in memory; counts,
self times, errors, tracemalloc peaks and ``lru_cache`` statistics are derived
from them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc

MODULES = ("poly", "core", "sampling", "factorization", "asymptotics", "simulate", "cli")
#: Prefix of the stderr line on which a traced CLI child reports its summary.
TRACE_MARK = "perfbench-trace: "


class Tracer:
    """Wrappers, spans and cache statistics for one traced run.

    :meth:`install` and :meth:`uninstall` may alternate; spans and cache
    statistics add up over the stretches in which the wrappers were
    installed.  With ``track_peaks`` every span also records its tracemalloc
    peak above the allocation level at entry.
    """

    def __init__(self, track_peaks: bool):
        self.spans = []  # [name, start, end, parent, error, peak_bytes]
        self.stack = []  # indices into spans of the open calls
        self._peak_stack = []  # [entry_current, max_peak] per open call
        self.cached = {}  # name -> lru_cache object
        self.cache_base = {}
        self.cache_totals = {}  # name -> [hits, misses] harvested so far
        self.track_peaks = track_peaks
        self._originals = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"carmahf.{short}")
            for attr, obj in list(vars(mod).items()):
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._originals.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(name, obj))
                if hasattr(obj, "cache_info"):
                    self.cached[name] = obj
        self.cache_base = {n: f.cache_info() for n, f in self.cached.items()}
        for n in self.cached:
            self.cache_totals.setdefault(n, [0, 0])
        if self.track_peaks and not tracemalloc.is_tracing():
            tracemalloc.start()

    def uninstall(self) -> None:
        self.harvest_caches()
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _wrap(self, name, fn):
        spans, stack, peaks = self.spans, self.stack, self._peak_stack
        tracked = self.track_peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracked:
                cur, peak = tracemalloc.get_traced_memory()
                if peaks:
                    peaks[-1][1] = max(peaks[-1][1], peak)
                tracemalloc.reset_peak()
                peaks.append([cur, cur])
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False, 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if tracked:
                    entry, top = peaks.pop()
                    top = max(top, tracemalloc.get_traced_memory()[1])
                    span[5] = top - entry
                    if peaks:
                        peaks[-1][1] = max(peaks[-1][1], top)

        return wrapper

    def harvest_caches(self, clear: bool = False) -> None:
        """Add the cache hits and misses since the last harvest; optionally clear."""
        for name, fn in self.cached.items():
            info, base = fn.cache_info(), self.cache_base[name]
            tot = self.cache_totals[name]
            tot[0] += info.hits - base.hits
            tot[1] += info.misses - base.misses
            if clear:
                fn.cache_clear()
            self.cache_base[name] = fn.cache_info()

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, errors, total/self ms, peak_alloc_mb, cache stats."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, err, peak) in enumerate(self.spans):
            s = out.setdefault(name, _blank())
            s["calls"] += 1
            s["errors"] += int(err)
            s["total_ms"] += (t1 - t0) * 1e3
            s["self_ms"] += (t1 - t0 - child[i]) * 1e3
            s["peak_alloc_mb"] = max(s["peak_alloc_mb"], peak / 2**20)
        if self._originals:  # installed: take the statistics since the last harvest
            self.harvest_caches()
        for name, (hits, misses) in self.cache_totals.items():
            s = out.setdefault(name, _blank())
            s["cache_hits"], s["cache_lookups"] = hits, hits + misses
        return out


def clear_caches(tracer: Tracer | None = None) -> None:
    """Empty every lru_cache in the package's modules, keeping traced statistics."""
    if tracer is not None:
        tracer.harvest_caches(clear=True)
    for short in MODULES:
        mod = importlib.import_module(f"carmahf.{short}")
        for obj in vars(mod).values():
            # An lru_cache is either the attribute itself or, while traced,
            # the function a wrapper wraps.
            for target in (obj, getattr(obj, "__wrapped__", None)):
                if hasattr(target, "cache_clear"):
                    target.cache_clear()


def _blank() -> dict:
    return {"calls": 0, "errors": 0, "total_ms": 0.0, "self_ms": 0.0, "peak_alloc_mb": 0.0}


class ChildTraces:
    """Merges the summaries that traced CLI children print on stderr.

    Also keeps each child's ``-X importtime`` figures and ``cli.main`` time.
    """

    def __init__(self):
        self.functions = {}
        self.main_ms = {}  # subcommand -> [ms, ...]
        self.imports = []  # per child: {module: cumulative microseconds}

    @staticmethod
    def parse_importtime(stderr: str) -> dict:
        """Cumulative microseconds per module from ``-X importtime`` lines."""
        times = {}
        for line in stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                parts = line[len("import time:") :].split("|")
                if parts[1].strip().isdigit():
                    times[parts[2].strip()] = int(parts[1])
        return times

    def absorb(self, stderr: str) -> None:
        times = self.parse_importtime(stderr)
        for line in stderr.splitlines():
            if line.startswith(TRACE_MARK):
                doc = json.loads(line[len(TRACE_MARK) :])
                self.main_ms.setdefault(doc["command"], []).append(doc["main_ms"])
                for name, s in doc["functions"].items():
                    t = self.functions.setdefault(name, _blank())
                    for key, val in s.items():
                        t[key] = max(t.get(key, 0), val) if key == "peak_alloc_mb" else t.get(key, 0) + val
        if times:
            self.imports.append(times)

    def summary(self) -> dict:
        return self.functions

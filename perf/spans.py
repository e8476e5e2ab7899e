"""Tracing from outside the engine: spans, a cProfile pass, a GC watch.

Nothing here imports ``repro``.  The harness calls the engine's public
functions and wraps each call in ``tracer.span(name)``; which tracer it
passes decides what a repetition records:

* :class:`NullTracer`   — nothing (the timed, untraced repetitions);
* :class:`SpanTracer`   — name, start, end, parent of every span;
* :class:`ProfileTracer` — ``cProfile`` enabled only inside
  ``runtime.execute`` spans, giving per-module self time and exact call
  counts.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import os
import pstats
import time
from typing import Dict, Iterator, List, Optional, Tuple


class NullTracer:
    """Tracing off: every span is the same shared no-op context manager."""

    _off = contextlib.nullcontext()

    def span(self, name: str):
        return self._off


class SpanTracer:
    """Keeps spans in memory; :meth:`self_seconds` subtracts children."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "cpu_start": time.process_time(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            self._open.pop()

    def cpu_seconds(self, name: str) -> List[float]:
        """CPU duration of every span called ``name``, in order."""
        return [s["cpu_end"] - s["cpu_start"]
                for s in self.spans if s["name"] == name]

    def self_seconds(self) -> Dict[str, float]:
        """CPU self time per span name: duration minus the part of it the
        span's direct children cover."""
        children: Dict[Optional[int], float] = {}
        for s in self.spans:
            children[s["parent"]] = (children.get(s["parent"], 0.0)
                                     + s["cpu_end"] - s["cpu_start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["cpu_end"] - s["cpu_start"] - children.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


class ProfileTracer:
    """Runs ``cProfile`` inside ``runtime.execute`` spans only, so the
    shares it reports are shares of execute time."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if name != "runtime.execute":
            yield
            return
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def functions(self) -> List[Tuple[str, str, int, float]]:
        """(file, function, primitive+recursive calls, self seconds)."""
        stats = pstats.Stats(self.profile).stats
        return [(filename, func, ncalls, tottime)
                for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers)
                in stats.items()]


# Module share names, matched against the path below ``src/repro/``.
# First match wins; files of the benchmark itself are the user handlers
# of the two workloads that define their own, so they count as algorithms.
SHARE_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("operators.exchange.share", ("operators/exchange.py",)),
    ("operators.groupby.share", ("operators/groupby.py",)),
    ("operators.join.share", ("operators/join.py",)),
    ("operators.fixpoint.share", ("operators/fixpoint.py",)),
    ("operators.stateless.share", ("operators/stateless.py", "operators/fused.py",
                                   "operators/blocks.py",
                                   "operators/expressions.py")),
    ("operators.base.share", ("operators/",)),
    ("net.network.share", ("net/",)),
    ("common.deltas.share", ("common/",)),
    ("cluster.accounting.share", ("cluster/", "storage/")),
    ("udf.share", ("udf/",)),
    ("algorithms.share", ("algorithms/",)),
    ("runtime.executor.share", ("runtime/",)),
    ("analysis.share", ("analysis/", "optimizer/", "obs/")),
)
SHARE_NAMES: Tuple[str, ...] = tuple(n for n, _ in SHARE_RULES) + (
    "python.other.share",)


def _share_of(filename: str, engine_root: str, bench_root: str) -> str:
    path = filename.replace(os.sep, "/")
    if path.startswith(bench_root):
        return "algorithms.share"
    if path.startswith(engine_root):
        rel = path[len(engine_root):]
        for name, prefixes in SHARE_RULES:
            if rel.startswith(prefixes):
                return name
    return "python.other.share"


def module_shares(functions, engine_root: str, bench_root: str
                  ) -> Dict[str, float]:
    """Self time by module group as fractions that sum to 1."""
    totals = dict.fromkeys(SHARE_NAMES, 0.0)
    for filename, _func, _ncalls, tottime in functions:
        totals[_share_of(filename, engine_root, bench_root)] += tottime
    whole = sum(totals.values())
    return {name: (t / whole if whole else 0.0) for name, t in totals.items()}


def call_count(functions, engine_root: str, rel_prefix: str,
               names: Tuple[str, ...]) -> int:
    """Calls of functions named in ``names`` defined under
    ``src/repro/<rel_prefix>``."""
    prefix = engine_root + rel_prefix
    return sum(ncalls for filename, func, ncalls, _t in functions
               if func in names
               and filename.replace(os.sep, "/").startswith(prefix))


class GcWatch:
    """Counts collections and the CPU seconds spent in them."""

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
        else:
            self.seconds += time.process_time() - self._started
            self.collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

"""Runs one workload through its whole lifecycle, repeatedly, and checks it.

One lifecycle is what a user pays for one query from cold tables: a fresh
``Cluster`` with the tables loaded, the plan built, ``QueryExecutor.execute``
with default ``ExecOptions``, rows collected.  Timings are process CPU time
(see README.md, "Clock"); the reference is computed once outside the timed
region and every comparison runs after the timer has stopped.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.analysis.absint import infer
from repro.analysis.lineage import infer_lineage
from repro.optimizer.fusion import fuse_plan
from repro.optimizer.rewrite import rewrite_plan
from repro.runtime import ExecOptions

import spans
from workloads import BY_NAME, Executed, Workload, load

HERE = os.path.dirname(os.path.abspath(__file__))
ENGINE_ROOT = os.path.join(os.path.dirname(HERE), "src", "repro", "").replace(
    os.sep, "/")
BENCH_ROOT = os.path.join(HERE, "").replace(os.sep, "/")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 7
SMOKE_SCALE = 0.05
#: Builds per run and the fewest timed repetitions a run may report.
BUILD_REPEATS = 2
MIN_REPS = 3
#: Share of ``--seconds`` the traced run spends on untraced repetitions
#: (its baseline for trace.overhead_ratio and host.steal_ratio).
TRACED_BASELINE_SHARE = 0.4

#: QueryMetrics totals that golden.json pins at the default seed.
GOLDEN_KEYS = ("strata", "tuples_processed", "bytes_sent", "result_rows",
               "sim_s")

cpu = time.process_time
wall = time.perf_counter


def steady(samples: List[float]) -> float:
    """The lower quartile: the statistic every reported time uses.

    Interference on the shared box only ever adds CPU time (a busy sibling
    hyperthread, evicted caches), so repetitions scatter upward from a
    floor.  Over ten runs the lower quartile of 8 repetitions spread 3%
    where their median spread 8% (README.md, "Clock").
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def summary(samples: List[float]) -> Dict[str, Any]:
    """n, min, quartiles, max and the samples themselves."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4,
                                              method="inclusive")
    return {"n": len(ordered), "min": ordered[0], "q1": q1,
            "median": median, "q3": q3, "max": ordered[-1],
            "samples": samples}


def parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    """``key=value`` strings -> ExecOptions fields, typed by the default."""
    fields = {f.name: f for f in dataclasses.fields(ExecOptions)}
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or key not in fields:
            raise ValueError(f"--options wants ExecOptions key=value, "
                             f"got {pair!r}")
        default = fields[key].default
        if isinstance(default, bool):
            if text.lower() not in ("true", "false"):
                raise ValueError(f"{key} is a flag: true or false")
            out[key] = text.lower() == "true"
        elif isinstance(default, int):
            out[key] = int(text)
        elif isinstance(default, str):
            out[key] = text
        else:
            raise ValueError(f"{key} cannot be set from the command line")
    return out


@dataclasses.dataclass
class Lifecycle:
    setup_cpu: float
    query_cpu: float
    query_wall: float
    executed: List[Executed]
    cluster: Any


def lifecycle(workload: Workload, inputs, make_options, tracer) -> Lifecycle:
    with tracer.span("lifecycle"):
        c0 = cpu()
        with tracer.span("cluster.load"):
            cluster = load(inputs)
        c1, w1 = cpu(), wall()
        executed = workload.run(cluster, inputs, make_options, tracer)
        c2, w2 = cpu(), wall()
    return Lifecycle(c1 - c0, c2 - c1, w2 - w1, executed, cluster)


def observe(done: Lifecycle) -> Dict[str, Any]:
    """Everything about a finished lifecycle that must repeat exactly."""
    metrics = [e.result.metrics for e in done.executed]
    digest = hashlib.sha256()
    for e in done.executed:
        digest.update(repr(e.result.metrics.fingerprint()).encode())
        digest.update(repr(sorted(e.result.rows, key=repr)).encode())
    return {
        "fingerprint": digest.hexdigest(),
        "strata": sum(m.num_iterations for m in metrics),
        "tuples_processed": sum(m.total_tuples() for m in metrics),
        "delta_admitted": sum(sum(m.delta_series()) for m in metrics),
        "bytes_sent": sum(m.total_bytes() for m in metrics),
        "result_rows": sum(len(e.result.rows) for e in done.executed),
        "sim_s": math.fsum(m.total_seconds() for m in metrics),
        "messages": sum(link.messages
                        for link in done.cluster.network.links.values()),
    }


def golden_mismatch(seen: Dict[str, Any], golden: Dict[str, Any]
                    ) -> Optional[str]:
    for key in GOLDEN_KEYS:
        want, got = golden[key], seen[key]
        same = (math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
                if key == "sim_s" else got == want)
        if not same:
            return f"golden.json {key}: expected {want!r}, got {got!r}"
    return None


class Checker:
    """Runs lifecycles and judges each: reference, repeatability, golden
    values.  Every query is one operation, attempted and maybe failed."""

    def __init__(self, workload: Workload, reference, golden):
        self.workload = workload
        self.reference = reference
        self.golden = golden
        self.first: Optional[Dict[str, Any]] = None
        self.notes: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _record(self, errors: List[Optional[str]]) -> None:
        self.attempted += len(errors)
        self.failures += [e for e in errors if e is not None]
        self.failed = len(self.failures)

    def run(self, inputs, make_options, tracer) -> Optional[Lifecycle]:
        """One lifecycle; None (and failed operations) if it raised."""
        # The collector stays on inside the lifecycle (users pay it), but
        # each one starts from a heap without its predecessors' garbage.
        gc.collect()
        try:
            done = lifecycle(self.workload, inputs, make_options, tracer)
        except Exception as exc:  # the benchmark must report, not die
            self._record(
                [f"{type(exc).__name__}: {exc}"] * self.workload.queries)
            return None
        self._judge(done)
        return done

    def _judge(self, done: Lifecycle) -> None:
        errors, notes = self.workload.check(
            [e.result for e in done.executed], self.reference)
        self.notes.update(notes)
        seen = observe(done)
        whole = None
        if self.first is None:
            self.first = seen
            if self.golden is not None:
                whole = golden_mismatch(seen, self.golden)
        elif seen != self.first:
            changed = sorted(k for k in seen if seen[k] != self.first[k])
            whole = f"repetition differs from the first in {changed}"
        if whole is not None:
            errors = [e if e is not None else whole for e in errors]
        self._record(errors)


def load_golden(name: str, seed: int, smoke: bool, overrides) -> Optional[dict]:
    """golden.json holds for default-seed, full-size, default-option runs."""
    if seed != DEFAULT_SEED or smoke or overrides:
        return None
    with open(GOLDEN_PATH) as handle:
        return json.load(handle).get(name)


def timed_repetitions(checker: Checker, inputs, make_options,
                      seconds: float) -> List[Lifecycle]:
    """Closed loop, one client: repeat until another repetition would
    overrun ``seconds`` (but at least MIN_REPS times)."""
    done: List[Lifecycle] = []
    attempts = 0
    started = wall()
    while True:
        attempts += 1
        result = checker.run(inputs, make_options, spans.NullTracer())
        if result is not None:
            # Keep the timings only: a retained cluster would grow the
            # heap, and the collector's work, with every repetition.
            done.append(dataclasses.replace(result, executed=[],
                                            cluster=None))
        elapsed = wall() - started
        if attempts >= MIN_REPS and elapsed + elapsed / attempts > seconds:
            return done


def _standalone_passes(outer: spans.SpanTracer, done: Lifecycle) -> None:
    """The plan-time passes the executor runs inside execute, called on
    the same plans on their own so each gets a span."""
    catalog = done.cluster.catalog
    arity = {name: len(catalog.get(name).schema.fields)
             for name in catalog.names()}
    for e in done.executed:
        root = e.plan.root
        with outer.span("optimizer.rewrite"):
            root, _ = rewrite_plan(root, table_arity=arity)
        with outer.span("optimizer.fuse"):
            root, _ = fuse_plan(root)
        with outer.span("analysis.absint"):
            infer(root)
        with outer.span("analysis.lineage"):
            infer_lineage(e.plan.root, table_arity=arity)


#: Spans reported as ``<name>_s`` per-layer metrics (CPU self time).
SPAN_NAMES = (
    "datasets.build", "cluster.load", "rql.parse", "rql.compile",
    "optimizer.optimize", "analysis.logical", "optimizer.lower",
    "algorithms.plan", "runtime.execute", "python.import",
    "optimizer.rewrite", "optimizer.fuse", "analysis.absint",
    "analysis.lineage",
)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            overrides: Dict[str, Any], outer: spans.SpanTracer,
            check_golden: bool = True) -> Dict[str, Any]:
    """Run one workload; returns the report run.py prints and stores
    (``metrics`` maps each name to its value; BENCHMARK.json has the units).

    ``outer`` already holds the ``python.import`` span; dataset builds and
    the standalone passes are added to it.
    """
    workload = BY_NAME[name]
    scale = SMOKE_SCALE if smoke else 1.0
    for _ in range(BUILD_REPEATS):
        with outer.span("datasets.build"):
            inputs = workload.build(seed, scale)
    reference = workload.reference(inputs)
    golden = (load_golden(name, seed, smoke, overrides)
              if check_golden else None)
    checker = Checker(workload, reference, golden)

    def make_options() -> ExecOptions:
        return ExecOptions(**{**workload.exec_defaults, **overrides})

    checker.run(inputs, make_options, spans.NullTracer())  # warm-up
    budget = seconds * (TRACED_BASELINE_SHARE if trace else 1.0)
    reps = timed_repetitions(checker, inputs, make_options, budget)
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "options": {k: repr(v) for k, v in sorted(overrides.items())},
    }
    if not reps or checker.first is None:
        report.update(attempted=checker.attempted, failed=checker.failed,
                      failures=checker.failures, metrics={}, detail={})
        return report

    query_s = steady([r.query_cpu for r in reps])
    build_s = steady(outer.cpu_seconds("datasets.build"))
    first = checker.first
    detail: Dict[str, Any] = {
        "query_cpu_s": summary([r.query_cpu for r in reps]),
        "load_cpu_s": summary([r.setup_cpu for r in reps]),
        "query_wall_s": summary([r.query_wall for r in reps]),
        "build_cpu_s": summary(outer.cpu_seconds("datasets.build")),
        "observed": first,
        "golden": {key: first[key] for key in GOLDEN_KEYS},
        "notes": checker.notes,
    }
    if not trace:
        metrics = {
            "setup_s": build_s + steady([r.setup_cpu for r in reps]),
            "query_s": query_s,
            "throughput_tuples_s": first["tuples_processed"] / query_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_s": first["sim_s"],
        }
    else:
        metrics = _traced_passes(checker, inputs, make_options, outer,
                                 reps, query_s, build_s, detail)
    report.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures, metrics=metrics, detail=detail)
    return report


def _traced_passes(checker: Checker, inputs, make_options,
                   outer: spans.SpanTracer, reps: List[Lifecycle],
                   query_s: float, build_s: float, detail: Dict[str, Any]
                   ) -> Dict[str, float]:
    """One repetition recording spans (and GC), one under cProfile; both
    are checked like any other repetition, so a traced pass that does not
    reproduce the untraced counts is a failed operation."""
    first = checker.first
    tracer = spans.SpanTracer()
    with spans.GcWatch() as gc_watch:
        spanned = checker.run(inputs, make_options, tracer)
    profiler = spans.ProfileTracer()
    profiled = checker.run(inputs, make_options, profiler)
    if spanned is None or profiled is None:
        return {}
    _standalone_passes(outer, spanned)

    own = {**tracer.self_seconds(), **outer.self_seconds(),
           "datasets.build": build_s}
    metrics = {f"{span}_s": own.get(span, 0.0) for span in SPAN_NAMES}

    functions = profiler.functions()
    metrics.update(spans.module_shares(functions, ENGINE_ROOT, BENCH_ROOT))

    constructed = spans.call_count(functions, ENGINE_ROOT,
                                   "common/deltas.py", ("__init__",))
    pushes = spans.call_count(functions, ENGINE_ROOT, "operators/",
                              ("receive", "push_batch", "push_block"))
    tuples = first["tuples_processed"]
    metrics.update({
        "common.deltas.constructed": constructed,
        "common.deltas.per_tuple": constructed / tuples,
        "net.network.messages": first["messages"],
        "operators.push_calls": pushes,
        "operators.tuples_per_push": tuples / pushes,
        "runtime.strata": first["strata"],
        "runtime.tuples_processed": tuples,
        "runtime.delta_admitted": first["delta_admitted"],
        "net.bytes_sent": first["bytes_sent"],
        "runtime.result_rows": first["result_rows"],
    })

    query_wall = steady([r.query_wall for r in reps])
    metrics.update({
        "python.gc_s": gc_watch.seconds,
        "python.gc_collections": gc_watch.collections,
        "host.query_wall_s": query_wall,
        "host.steal_ratio": query_wall / query_s,
        "trace.overhead_ratio": spanned.query_cpu / query_s,
    })

    detail["spans"] = tracer.spans
    detail["outer_spans"] = outer.spans
    detail["profile_overhead_ratio"] = profiled.query_cpu / query_s
    return metrics

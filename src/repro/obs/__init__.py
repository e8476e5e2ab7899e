"""Observability for the delta engine: tracing, metrics, EXPLAIN ANALYZE.

Attach an :class:`ObsContext` to a run via ``ExecOptions(obs=...)``::

    from repro.obs import ObsContext, explain_analyze

    obs = ObsContext()
    result = executor.execute(plan)   # with ExecOptions(obs=obs)
    print(explain_analyze(obs, result.metrics))

See docs/observability.md for the tracer API, sink zoo, Perfetto how-to,
and the registry naming scheme.
"""

from repro.obs.context import KIND_LABELS, ObsContext, OperatorStats
from repro.obs.export import openmetrics, registry_json, sparkline
from repro.obs.flight import FlightRecorder, load_bundle
from repro.obs.registry import Counter, Gauge, MetricsRegistry, Series
from repro.obs.report import explain_analyze
from repro.obs.trace import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    Tracer,
    chrome_trace,
    validate_jsonl,
)

__all__ = [
    "ObsContext",
    "OperatorStats",
    "KIND_LABELS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Series",
    "Tracer",
    "TraceEvent",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "chrome_trace",
    "validate_jsonl",
    "explain_analyze",
    "FlightRecorder",
    "load_bundle",
    "openmetrics",
    "registry_json",
    "sparkline",
]

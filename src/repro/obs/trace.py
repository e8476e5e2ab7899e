"""Structured event tracing for the delta engine.

A :class:`Tracer` emits :class:`TraceEvent` records to pluggable sinks.
Event categories mirror the engine's moving parts:

* ``operator`` — one record per ``receive``/``push_batch`` call, carrying
  the operator id, input port, delta counts by annotation kind, and the
  call's wall-clock duration;
* ``exchange`` — one record per network send/delivery with exchange id,
  endpoints, delta count and wire bytes;
* ``stratum`` — begin/end of each fixpoint stratum with its simulated
  seconds, Δ-set size and bytes shuffled;
* ``checkpoint`` — Δ-set replication writes and recovery restores.

Timestamps are wall-clock seconds from the tracer's epoch
(``time.perf_counter`` based); simulated time never appears in ``ts`` —
it travels in ``args`` so the two clocks cannot be confused.

The Chrome trace-event export (:func:`chrome_trace`) renders the same
records as ``{"traceEvents": [...]}`` JSON that loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, one process row per
simulated node.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: JSON-lines schema: keys every serialized event must carry.
REQUIRED_KEYS = ("name", "cat", "ph", "ts", "node")


@dataclass(slots=True)
class TraceEvent:
    """One structured record.

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"X"`` for a
    complete span (with ``dur``), ``"i"`` for an instant event.
    """

    name: str
    cat: str
    ph: str
    ts: float
    node: int
    dur: float = 0.0
    stratum: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts, "node": self.node,
        }
        if self.ph == "X":
            d["dur"] = self.dur
        if self.stratum is not None:
            d["stratum"] = self.stratum
        if self.args:
            d["args"] = self.args
        return d


class TraceSink:
    """Receives events; subclasses override :meth:`emit`."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release any underlying resource (idempotent)."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: Optional[int] = None):
        self.buffer: deque = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if (self.buffer.maxlen is not None
                and len(self.buffer) == self.buffer.maxlen):
            self.dropped += 1
        self.buffer.append(event)

    def events(self) -> List[TraceEvent]:
        return list(self.buffer)


class JsonlSink(TraceSink):
    """Streams each event as one JSON object per line."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns = True

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True,
                                  default=str))
        self._fh.write("\n")

    def close(self) -> None:
        """Flush buffered lines (idempotent) so error-path dumps — flight
        bundles, ``--trace`` files on a crashed run — are never truncated;
        borrowed file objects are flushed but left open."""
        if getattr(self._fh, "closed", False):
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()


class Tracer:
    """Front-end the instrumentation layer writes through.

    ``enabled=False`` turns every emit into a no-op while the observability
    context keeps counting and attributing.  A run without an observability
    context has no probe (see :mod:`repro.obs.context`) and never reaches
    the tracer at all.
    """

    def __init__(self, sinks: Iterable[TraceSink] = (), enabled: bool = True,
                 clock=time.perf_counter):
        self.sinks: List[TraceSink] = list(sinks)
        self.enabled = enabled
        self.closed = False
        self._clock = clock
        self._epoch = clock()

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._epoch

    def emit(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.emit(event)

    def instant(self, name: str, cat: str, node: int,
                stratum: Optional[int] = None, **args) -> None:
        if not self.enabled:
            return
        self.emit(TraceEvent(name, cat, "i", self.now(), node,
                             stratum=stratum, args=args))

    def complete(self, name: str, cat: str, node: int, ts: float, dur: float,
                 stratum: Optional[int] = None, **args) -> None:
        if not self.enabled:
            return
        self.emit(TraceEvent(name, cat, "X", ts, node, dur=dur,
                             stratum=stratum, args=args))

    def events(self) -> List[TraceEvent]:
        """Events from the first ring-buffer sink (convenience)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events()
        return []

    def close(self) -> None:
        """Close every sink exactly once; later calls are no-ops and later
        emits are dropped (the tracer is disabled on close)."""
        if self.closed:
            return
        self.closed = True
        self.enabled = False
        for sink in self.sinks:
            sink.close()


def chrome_trace(events: Iterable[TraceEvent],
                 process_name: str = "rex-node") -> Dict[str, Any]:
    """Render events as a Chrome trace-event / Perfetto JSON object.

    Each simulated node becomes one process (pid = node id); the requestor
    (node -1) is mapped to its own row.  Timestamps are converted from
    seconds to the format's microseconds.
    """
    trace_events: List[Dict[str, Any]] = []
    nodes_seen = set()
    for ev in events:
        pid = ev.node
        if pid not in nodes_seen:
            nodes_seen.add(pid)
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{process_name} {pid}" if pid >= 0
                         else f"{process_name} requestor"},
            })
        record: Dict[str, Any] = {
            "name": ev.name, "cat": ev.cat, "ph": ev.ph,
            "ts": ev.ts * 1e6, "pid": pid, "tid": 0,
        }
        if ev.ph == "X":
            record["dur"] = ev.dur * 1e6
        args = dict(ev.args)
        if ev.stratum is not None:
            args["stratum"] = ev.stratum
        if args:
            record["args"] = args
        if ev.ph == "i":
            record["s"] = "t"  # instant scope: thread
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_jsonl(lines: Iterable[str]) -> int:
    """Validate a JSON-lines trace stream; returns the event count.

    Raises ``ValueError`` on the first malformed line (bad JSON, missing
    required keys, or a complete span without a duration).
    """
    count = 0
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {i}: invalid JSON: {exc}") from None
        for key in REQUIRED_KEYS:
            if key not in record:
                raise ValueError(f"line {i}: missing key {key!r}")
        if record["ph"] not in ("X", "i", "M"):
            raise ValueError(f"line {i}: unknown phase {record['ph']!r}")
        if record["ph"] == "X" and "dur" not in record:
            raise ValueError(f"line {i}: complete event without dur")
        count += 1
    return count

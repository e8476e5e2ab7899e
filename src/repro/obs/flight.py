"""Flight recorder: always-on post-mortem capture for query runs.

A query that dies mid-fixpoint — an operator exception, a REX2xx
sanitizer trip, a determinism race — used to leave nothing behind unless
the run happened to have tracing attached.  The :class:`FlightRecorder`
fixes that: the executor keeps one in every run, feeding it a bounded
ring of cheap breadcrumb *notes* (one per stratum boundary, plus
failure/recovery/checkpoint events).  On a
trigger it assembles a **self-contained JSON bundle**: the note ring, the
most recent trace events and the published metrics registry when an
:class:`~repro.obs.ObsContext` is attached, the triggering error or
diagnostics, and enough environment detail to read the bundle cold.

The recorder is deliberately lighter than the obs layer: it installs no
operator hooks and never touches a hot loop, so it is on in every run
(including benchmarks) at well under the 5% overhead bar.

Bundles are written to the first of: an explicit ``path``, the recorder's
``directory`` (``ExecOptions.flight_dir``), or the ``REX_FLIGHT_DIR``
environment variable.  With none set the bundle is still assembled and
kept on ``recorder.last_bundle`` (and attached to the raising exception
as ``rex_flight_bundle``) — nothing is silently written to disk.

Inspect bundles with ``python -m repro.cli flight BUNDLE.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional

#: Bundle schema tag; bump on incompatible layout changes.
FORMAT = "rex-flight/1"

#: Environment variable naming a default bundle directory.
ENV_DIR = "REX_FLIGHT_DIR"

#: Most recent trace events included in a bundle.
MAX_TRACE_EVENTS = 400


def gc_state() -> Dict[str, Any]:
    """The cyclic collector's state, for the ``query_start`` note and
    every bundle's ``env``.  The executor suspends the collector for a
    query's span: a memory post-mortem needs to see that, and how many
    allocations were pending collection when the record was taken."""
    return {"gc_enabled": gc.isenabled(), "gc_count": list(gc.get_count())}


class FlightRecorder:
    """Bounded breadcrumb ring + bundle assembly for one query run."""

    def __init__(self, capacity: int = 512,
                 directory: Optional[str] = None,
                 clock=time.time):
        self.capacity = capacity
        self.directory = directory
        self.notes: deque = deque(maxlen=capacity)
        self.dropped = 0
        self.obs = None
        self.sanitizer = None
        self.last_bundle: Optional[Dict[str, Any]] = None
        self.last_path: Optional[str] = None
        self.dumps = 0
        self._clock = clock
        self._seq = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attach(self, obs=None, sanitizer=None) -> None:
        """Point the recorder at the run's obs context / sanitizer so
        bundles can include their state."""
        if obs is not None:
            self.obs = obs
        if sanitizer is not None:
            self.sanitizer = sanitizer

    def note(self, kind: str, **fields) -> None:
        """Append one breadcrumb; O(1), no I/O."""
        if len(self.notes) == self.notes.maxlen:
            self.dropped += 1
        seq = self._seq
        self._seq = seq + 1
        record = {"seq": seq, "kind": kind}
        if fields:
            record.update(fields)
        self.notes.append(record)

    def on_stratum(self, it) -> None:
        """Breadcrumb for stratum ``it`` (its
        :class:`~repro.cluster.metrics.IterationMetrics`)."""
        self.note("stratum", stratum=it.stratum, seconds=it.seconds,
                  bytes=it.bytes_sent, deltas=it.delta_count,
                  mutable=it.mutable_size, tuples=it.tuples_processed)

    def record_exception(self, exc: BaseException) -> None:
        self.note("exception", type=type(exc).__name__, message=str(exc))

    # ------------------------------------------------------------------
    # Bundle assembly
    # ------------------------------------------------------------------
    def bundle(self, reason: str, error: Optional[BaseException] = None,
               diagnostics=None) -> Dict[str, Any]:
        """Assemble a self-contained post-mortem dict (JSON-safe)."""
        doc: Dict[str, Any] = {
            "format": FORMAT,
            "created_unix": self._clock(),
            "reason": reason,
            "notes": list(self.notes),
            "notes_dropped": self.dropped,
            "env": {
                "python": sys.version.split()[0],
                "platform": platform.platform(),
                "pid": os.getpid(),
                **gc_state(),
            },
        }
        if error is not None:
            doc["error"] = {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exception(
                    type(error), error, error.__traceback__),
            }
        if diagnostics is not None:
            doc["diagnostics"] = _diagnostics_json(diagnostics)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            doc["sanitizer"] = {
                "level": sanitizer.level,
                "checks": sanitizer.checks,
                "violations": sanitizer.violations,
            }
            if "diagnostics" not in doc and sanitizer.report:
                doc["diagnostics"] = _diagnostics_json(sanitizer.report)
        obs = self.obs
        if obs is not None:
            try:
                obs.publish()
                doc["metrics"] = obs.registry.snapshot()
            except Exception as exc:  # a broken run must still bundle
                doc["metrics_error"] = repr(exc)
            try:
                events = obs.tracer.events()
                doc["trace_events"] = [
                    ev.to_dict() for ev in events[-MAX_TRACE_EVENTS:]]
                doc["trace_events_total"] = len(events)
            except Exception as exc:
                doc["trace_events_error"] = repr(exc)
        return doc

    def dump(self, reason: str, error: Optional[BaseException] = None,
             diagnostics=None, path: Optional[str] = None) -> Optional[str]:
        """Assemble a bundle and, if a destination resolves, write it.

        Returns the written path (``None`` when no directory/path is
        configured — the bundle is still kept on ``last_bundle``).
        """
        doc = self.bundle(reason, error=error, diagnostics=diagnostics)
        self.last_bundle = doc
        self.dumps += 1
        if path is None:
            directory = self.directory or os.environ.get(ENV_DIR)
            if directory:
                path = bundle_path(directory, reason)
        if path is not None:
            write_bundle(doc, path)
            self.last_path = path
        return path


def _diagnostics_json(report) -> Any:
    try:
        return json.loads(report.to_json())
    except Exception:
        return {"unrenderable": repr(report)}


def bundle_path(directory: str, reason: str) -> str:
    """A collision-resistant bundle filename under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    stamp = int(time.time() * 1000)  # noqa: REX102 — genuine timestamp
    pid = os.getpid()
    path = os.path.join(directory, f"flight-{stamp}-{pid}-{reason}.json")
    n = 1
    while os.path.exists(path):
        path = os.path.join(directory,
                            f"flight-{stamp}-{pid}-{reason}.{n}.json")
        n += 1
    return path


def write_bundle(doc: Dict[str, Any], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def load_bundle(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not a flight bundle (format="
            f"{doc.get('format')!r}, expected {FORMAT!r})")
    return doc


# ---------------------------------------------------------------------------
# Bundle inspection (repro.cli flight)
# ---------------------------------------------------------------------------

def summarize(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A compact, JSON-safe digest of a bundle."""
    notes: List[dict] = doc.get("notes", [])
    by_kind: Dict[str, int] = {}
    for n in notes:
        kind = n.get("kind", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
    strata = [n for n in notes if n.get("kind") == "stratum"]
    diagnostics = doc.get("diagnostics") or {}
    diags = diagnostics.get("diagnostics", [])
    summary: Dict[str, Any] = {
        "reason": doc.get("reason"),
        "created_unix": doc.get("created_unix"),
        "notes": len(notes),
        "notes_by_kind": by_kind,
        "strata_recorded": len(strata),
        "diagnostics": len(diags),
        "diagnostic_codes": sorted({d.get("code") for d in diags
                                    if d.get("code")}),
        "metrics": len(doc.get("metrics", {}) or {}),
        "trace_events": doc.get("trace_events_total",
                                len(doc.get("trace_events", []) or [])),
    }
    if strata:
        last = strata[-1]
        summary["last_stratum"] = last.get("stratum")
        summary["last_delta_count"] = last.get("deltas")
        summary["delta_series"] = [n.get("deltas") for n in strata]
    error = doc.get("error")
    if error:
        summary["error"] = {"type": error.get("type"),
                            "message": error.get("message")}
    sanitizer = doc.get("sanitizer")
    if sanitizer:
        summary["sanitizer"] = sanitizer
    return summary


def format_summary(doc: Dict[str, Any], events: int = 8) -> str:
    """Human-readable bundle digest for the CLI."""
    from repro.obs.export import sparkline

    s = summarize(doc)
    created = time.strftime("%Y-%m-%d %H:%M:%S",
                            time.localtime(s["created_unix"] or 0))
    lines = [f"flight bundle — reason: {s['reason']} ({created})"]
    if "error" in s:
        lines.append(f"  error: {s['error']['type']}: "
                     f"{s['error']['message']}")
    if "sanitizer" in s:
        sz = s["sanitizer"]
        lines.append(f"  sanitizer: level={sz.get('level')} "
                     f"checks={sz.get('checks')} "
                     f"violations={sz.get('violations')}")
    if s["diagnostics"]:
        codes = ", ".join(s["diagnostic_codes"]) or "?"
        lines.append(f"  diagnostics: {s['diagnostics']} ({codes})")
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(
        s["notes_by_kind"].items()))
    lines.append(f"  notes: {s['notes']} ({kinds}); "
                 f"trace events: {s['trace_events']}; "
                 f"metrics: {s['metrics']}")
    if s.get("delta_series"):
        series = [v for v in s["delta_series"] if v is not None]
        lines.append(f"  Δ-set over recorded strata: {sparkline(series)} "
                     f"(last stratum {s['last_stratum']}, "
                     f"Δ={s['last_delta_count']})")
    tail = doc.get("notes", [])[-events:]
    if tail:
        lines.append(f"  last {len(tail)} note(s):")
        for n in tail:
            fields = {k: v for k, v in n.items()
                      if k not in ("seq", "kind")}
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"    #{n.get('seq')} {n.get('kind')} {detail}")
    return "\n".join(lines)

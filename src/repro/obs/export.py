"""Metrics export: OpenMetrics text exposition, JSON dumps, sparklines.

The registry's instruments map onto the OpenMetrics / Prometheus text
format (https://openmetrics.io) as:

* :class:`~repro.obs.registry.Counter` → ``counter`` with the mandated
  ``_total`` sample suffix;
* :class:`~repro.obs.registry.Gauge` → ``gauge``;
* :class:`~repro.obs.registry.Series` → ``gauge`` samples labelled with
  their index (``{index="<stratum>"}``), i.e. the whole ring is exposed,
  not just the last point.

Dotted registry names are sanitized to the exposition charset
(``[a-zA-Z_][a-zA-Z0-9_]*``) by mapping every illegal rune to ``_``:
``stratum.delta_count`` → ``stratum_delta_count``.  The text ends with
the mandatory ``# EOF`` terminator, so the output of
``python -m repro.cli telemetry`` can be served to a scraper or fed to
``promtool check metrics`` unchanged.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, List, Optional

from repro.obs.registry import Counter, Gauge, MetricsRegistry, Series

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_]")

#: Unicode eighth-block ramp used by :func:`sparkline`.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def metric_name(name: str) -> str:
    """Sanitize a dotted registry name to the exposition charset."""
    sanitized = _ILLEGAL.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: Any) -> str:
    """Render a sample value; integers stay integral for readability."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def openmetrics(registry: MetricsRegistry, prefix: str = "") -> str:
    """Render instruments under ``prefix`` as OpenMetrics text."""
    lines: List[str] = []
    for name in registry.names(prefix):
        inst = registry.get(name)
        m = metric_name(name)
        if isinstance(inst, Counter):
            lines.append(f"# TYPE {m} counter")
            lines.append(f"{m}_total {_fmt(inst.value)}")
        elif isinstance(inst, Gauge):
            lines.append(f"# TYPE {m} gauge")
            lines.append(f"{m} {_fmt(inst.value)}")
        elif isinstance(inst, Series):
            lines.append(f"# TYPE {m} gauge")
            for index, value in inst.points:
                lines.append(f'{m}{{index="{index}"}} {_fmt(value)}')
        else:  # pragma: no cover - registry only stores the three kinds
            continue
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def registry_json(registry: MetricsRegistry, prefix: str = "") -> str:
    """The registry snapshot as pretty-printed JSON text."""
    return json.dumps(registry.snapshot(prefix), indent=2, sort_keys=True,
                      default=str)


def sparkline(values: Iterable[float], width: Optional[int] = None) -> str:
    """Render values as a unicode sparkline (``▁▂▃▄▅▆▇█``).

    With ``width`` set, long inputs are downsampled by bucket-maxing so
    spikes survive compression.  Empty input renders as ``""``.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        # Bucket-max downsample: ceil-partition into `width` buckets.
        out: List[float] = []
        n = len(vals)
        for b in range(width):
            lo = b * n // width
            hi = max((b + 1) * n // width, lo + 1)
            out.append(max(vals[lo:hi]))
        vals = out
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(vals)
    top = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int((v - lo) / span * top + 0.5)]
                   for v in vals)

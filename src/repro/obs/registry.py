"""Named metrics registry: counters, gauges, histograms, and series.

Every instrument is identified by a dotted lowercase path following the
naming scheme (see docs/observability.md):

``<component>.<instance>.<metric>``

* ``op.n<node>.<Operator#k>.tuples_in`` — per-operator dataflow counters;
* ``net.exchange.<exchange>.bytes`` — per-channel traffic;
* ``fixpoint.n<node>.delta_out`` — Δ-set sizes over strata (a series);
* ``stratum.seconds`` — per-stratum simulated wall time (a series).

The registry is get-or-create: asking for the same name twice returns the
same instrument; asking for an existing name with a different instrument
type is an error (names are globally unique).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A streaming summary of observed values with fixed log2 buckets.

    The cheap count/sum/min/max summary is unchanged; additionally every
    positive value lands in the bucket whose upper bound is the smallest
    power of two at or above it (``v in (2^(e-1), 2^e]``), and non-positive
    values land in a dedicated underflow bucket.  The buckets make the
    histogram quantile-capable: ``quantile(q)`` walks the cumulative
    bucket counts and reports the matched bucket's upper bound, clamped
    into ``[min, max]`` — the standard exposition-histogram estimate,
    exact to within one power of two.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "underflow")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}  # exponent e -> count, le = 2**e
        self.underflow = 0                 # values <= 0

    def record(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0:
            mantissa, e = math.frexp(value)
            if mantissa == 0.5:  # exact power of two: 2**(e-1) is its le
                e -= 1
            self.buckets[e] = self.buckets.get(e, 0) + 1
        else:
            self.underflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets."""
        if not self.count:
            return None
        target = q * self.count
        seen = self.underflow
        if seen >= target and self.underflow:
            return self.min
        estimate = self.max
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if seen >= target:
                estimate = float(2.0 ** e)
                break
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def bucket_bounds(self) -> List[Tuple[float, int]]:
        """``(le, count)`` pairs in ascending bound order (underflow at
        ``le=0.0``), cumulative-ready for OpenMetrics exposition."""
        out: List[Tuple[float, int]] = []
        if self.underflow:
            out.append((0.0, self.underflow))
        out.extend((float(2.0 ** e), self.buckets[e])
                   for e in sorted(self.buckets))
        return out

    def snapshot(self):
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "buckets": self.bucket_bounds()}

    def __repr__(self):
        return (f"Histogram({self.name}: n={self.count} "
                f"mean={self.mean:.4g})")


class Series:
    """An ordered (index, value) time series — sizes over strata.

    With ``capacity`` set the series is a ring: it keeps the most recent
    ``capacity`` points and counts the rest in ``dropped``, so long-lived
    sessions (many queries, hundreds of strata) hold bounded memory.
    """

    __slots__ = ("name", "points", "capacity", "dropped")

    def __init__(self, name: str, capacity: Optional[int] = None):
        self.name = name
        self.points: List[Tuple[int, float]] = []
        self.capacity = capacity
        self.dropped = 0

    def append(self, index: int, value) -> None:
        points = self.points
        cap = self.capacity
        if cap is not None and len(points) >= cap:
            # O(capacity) shift; fine at stratum/sample cadence with the
            # small ring capacities telemetry uses.
            excess = len(points) - cap + 1
            del points[:excess]
            self.dropped += excess
        points.append((index, value))

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def snapshot(self):
        return list(self.points)

    def __repr__(self):
        return f"Series({self.name}: {len(self.points)} points)"


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif type(inst) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str, capacity: Optional[int] = None) -> Series:
        """Get or create a series; ``capacity`` bounds it as a ring.

        The capacity applies on creation only — asking for an existing
        series returns it with whatever bound it was created with."""
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = Series(name, capacity=capacity)
        elif type(inst) is not Series:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not Series")
        return inst

    def get(self, name: str):
        """Look up an instrument without creating it (None if absent)."""
        return self._instruments.get(name)

    def reset(self) -> None:
        """Drop every instrument — reuse one registry across queries."""
        self._instruments.clear()

    def remove(self, prefix: str) -> int:
        """Drop every instrument whose name starts with ``prefix``;
        returns how many were removed."""
        doomed = [n for n in self._instruments if n.startswith(prefix)]
        for n in doomed:
            del self._instruments[n]
        return len(doomed)

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """A plain-data dump of every instrument under ``prefix``."""
        return {n: self._instruments[n].snapshot()
                for n in self.names(prefix)}

    def __len__(self):
        return len(self._instruments)

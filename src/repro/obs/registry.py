"""Named metrics registry: counters, gauges and series.

Every instrument is identified by a dotted lowercase path following the
naming scheme (see docs/observability.md):

``<component>[.<instance>].<metric>``

* ``op.n<node>.<Operator#k>.tuples_in`` — per-operator dataflow counters;
* ``net.exchange.<exchange>.bytes`` — per-channel traffic;
* ``fixpoint.n<node>.delta_out`` — per-worker Δ-set sizes (a series);
* ``stratum.<metric>`` — one series per number of a stratum's
  :class:`~repro.cluster.metrics.IterationMetrics` (``seconds``,
  ``bytes_sent``, ``delta_count``, ``mutable_size``,
  ``tuples_processed``) plus the fabric's ``inflight_peak``;
* ``node.n<node>.stratum_seconds`` — each node's own simulated seconds
  per stratum (a series: the skew view);
* ``checkpoint.*`` / ``sanitizer.*`` — checkpoint and sanitizer counters.

Series are indexed by stratum.

The registry is get-or-create: asking for the same name twice returns the
same instrument; asking for an existing name with a different instrument
type is an error (names are globally unique).
"""

from __future__ import annotations

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
            # O(capacity) shift; fine at stratum cadence with small rings.
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

"""Live telemetry: time-series sampling of a running fixpoint.

PR 2's registry records what a query did *after* it finishes; this module
watches it *while it runs*.  A :class:`TelemetrySampler` is attached to an
:class:`~repro.obs.context.ObsContext` (on by default) and is driven by
the runtime driver at every stratum boundary — the only points where the
simulated clock advances, since strata are barriers.  Each sample
snapshots the engine's moving parts into ring-bounded ``telemetry.*``
series in the metrics registry:

* ``telemetry.stratum.*`` — Δ-set cardinality decay, per-stratum simulated
  seconds, bytes shuffled, mutable-set growth, tuples processed;
* ``telemetry.node.n<K>.stratum_seconds`` — per-node simulated wall time,
  the skew view the paper's iterative cost estimation consumes;
* ``telemetry.net.*`` — cumulative exchange traffic plus the fabric's
  peak in-flight message depth per stratum (queue pressure);
* ``telemetry.clock.*`` — the same cardinalities resampled on a fixed
  *simulated-time* grid (every ``interval`` simulated seconds), so runs
  with different stratum counts line up on one time axis.

Sampling is charge-neutral by construction: the sampler only reads values
the engine already computed and writes to its own instruments, so
``QueryMetrics.fingerprint`` is bit-identical with sampling on or off
(pinned by ``tests/test_equivalence.py``).

All series are rings (default 256 points) and the simulated-clock
resampler emits at most ``max_ticks_per_sample`` ticks per stratum
(counting the rest in ``ticks_dropped``), so a pathological stratum that
advances the clock by hours cannot flood the registry.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry

#: Default simulated seconds between clock-grid samples.
DEFAULT_INTERVAL = 0.25

#: Default ring capacity for every ``telemetry.*`` series.
DEFAULT_CAPACITY = 256

#: Upper bound on clock-grid ticks emitted for one stratum.
MAX_TICKS_PER_SAMPLE = 64


class TelemetrySampler:
    """Samples engine state into bounded ``telemetry.*`` time series."""

    def __init__(self, registry: MetricsRegistry,
                 interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY,
                 max_ticks_per_sample: int = MAX_TICKS_PER_SAMPLE):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.max_ticks_per_sample = max_ticks_per_sample
        self.samples = 0
        self.ticks = 0
        self.ticks_dropped = 0
        self.sim_seconds = 0.0        # cumulative simulated clock
        self._next_tick = interval

    # ------------------------------------------------------------------
    def _series(self, name: str):
        return self.registry.series(name, capacity=self.capacity)

    def sample_stratum(self, obs, stratum: int, seconds: float,
                       bytes_sent: int, delta_count: int, mutable_size: int,
                       tuples_processed: int,
                       node_seconds: Optional[Dict[int, float]] = None
                       ) -> None:
        """One sample at a stratum boundary.

        ``obs`` is the owning :class:`~repro.obs.context.ObsContext`; the
        sampler reads its exchange tallies and in-flight message peak —
        both values the context already tracks.
        """
        self.samples += 1
        self.sim_seconds += seconds
        ser = self._series
        ser("telemetry.stratum.seconds").append(stratum, seconds)
        ser("telemetry.stratum.delta_count").append(stratum, delta_count)
        ser("telemetry.stratum.mutable_size").append(stratum, mutable_size)
        ser("telemetry.stratum.bytes_sent").append(stratum, bytes_sent)
        ser("telemetry.stratum.tuples").append(stratum, tuples_processed)
        self.registry.histogram("telemetry.stratum.seconds_hist").record(
            seconds)

        if node_seconds:
            for node in sorted(node_seconds):
                ser(f"telemetry.node.n{node}.stratum_seconds").append(
                    stratum, node_seconds[node])

        # Fabric pressure: cumulative wire traffic and the stratum's peak
        # in-flight (sent, not yet delivered) message count.
        msgs = nbytes = deltas = 0
        for m, b, d in obs._exchange_stats.values():
            msgs += m
            nbytes += b
            deltas += d
        ser("telemetry.net.messages_total").append(stratum, msgs)
        ser("telemetry.net.bytes_total").append(stratum, nbytes)
        ser("telemetry.net.deltas_total").append(stratum, deltas)
        ser("telemetry.net.inflight_peak").append(
            stratum, obs.take_inflight_peak())

        # Simulated-clock grid: emit one sample per interval boundary the
        # stratum's seconds advanced the clock across.
        emitted = 0
        while self.sim_seconds >= self._next_tick:
            if emitted >= self.max_ticks_per_sample:
                skipped = int((self.sim_seconds - self._next_tick)
                              / self.interval) + 1
                self.ticks_dropped += skipped
                self._next_tick += skipped * self.interval
                break
            tick = self.ticks
            ser("telemetry.clock.delta_count").append(tick, delta_count)
            ser("telemetry.clock.mutable_size").append(tick, mutable_size)
            ser("telemetry.clock.stratum").append(tick, stratum)
            self.ticks += 1
            emitted += 1
            self._next_tick += self.interval

        # Sampler health, for the exposition endpoints.
        reg = self.registry
        reg.counter("telemetry.sampler.samples").value = self.samples
        reg.counter("telemetry.sampler.ticks").value = self.ticks
        reg.counter("telemetry.sampler.ticks_dropped").value = (
            self.ticks_dropped)
        reg.gauge("telemetry.sampler.sim_seconds").set(self.sim_seconds)

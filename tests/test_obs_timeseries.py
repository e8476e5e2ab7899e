"""Live-telemetry sampler: cadence, clock grid, rings, registry hygiene."""

import pytest

from repro.cluster import Cluster
from repro.datasets import dbpedia_like
from repro.algorithms import run_pagerank
from repro.obs import ObsContext, explain_analyze
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TelemetrySampler
from repro.runtime import ExecOptions


class FakeObs:
    """The slice of ObsContext the sampler reads."""

    def __init__(self):
        self._exchange_stats = {"x0": [2, 100, 5], "x1": [1, 50, 3]}
        self.peak = 0

    def take_inflight_peak(self):
        return self.peak


class TestSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetrySampler(MetricsRegistry(), interval=0)
        with pytest.raises(ValueError):
            TelemetrySampler(MetricsRegistry(), interval=-1.0)

    def test_sample_populates_stratum_series(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg)
        s.sample_stratum(FakeObs(), stratum=0, seconds=0.5, bytes_sent=256,
                         delta_count=7, mutable_size=21,
                         tuples_processed=100)
        assert reg.series("telemetry.stratum.seconds").points == [(0, 0.5)]
        assert reg.series("telemetry.stratum.delta_count").points == [(0, 7)]
        assert reg.series("telemetry.stratum.mutable_size").points == [(0, 21)]
        assert reg.series("telemetry.stratum.bytes_sent").points == [(0, 256)]
        assert reg.series("telemetry.stratum.tuples").points == [(0, 100)]
        # Exchange tallies are summed across channels.
        assert reg.series("telemetry.net.messages_total").points == [(0, 3)]
        assert reg.series("telemetry.net.bytes_total").points == [(0, 150)]
        assert reg.series("telemetry.net.deltas_total").points == [(0, 8)]
        assert reg.histogram("telemetry.stratum.seconds_hist").count == 1
        assert reg.counter("telemetry.sampler.samples").value == 1

    def test_one_sample_per_stratum_cadence(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg)
        for k in range(5):
            s.sample_stratum(FakeObs(), stratum=k, seconds=0.1,
                             bytes_sent=0, delta_count=10 - k,
                             mutable_size=10, tuples_processed=1)
        assert s.samples == 5
        assert reg.series("telemetry.stratum.delta_count").points == [
            (0, 10), (1, 9), (2, 8), (3, 7), (4, 6)]

    def test_clock_grid_emits_one_tick_per_interval(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg, interval=1.0)
        s.sample_stratum(FakeObs(), 0, seconds=2.5, bytes_sent=0,
                         delta_count=5, mutable_size=5, tuples_processed=0)
        # Crossed t=1.0 and t=2.0.
        assert s.ticks == 2
        assert reg.series("telemetry.clock.delta_count").points == [
            (0, 5), (1, 5)]
        s.sample_stratum(FakeObs(), 1, seconds=1.0, bytes_sent=0,
                         delta_count=3, mutable_size=5, tuples_processed=0)
        # Now at 3.5: crossed t=3.0 only.
        assert s.ticks == 3
        assert reg.series("telemetry.clock.stratum").points == [
            (0, 0), (1, 0), (2, 1)]

    def test_clock_grid_flood_is_bounded(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg, interval=1.0, max_ticks_per_sample=4)
        s.sample_stratum(FakeObs(), 0, seconds=100.0, bytes_sent=0,
                         delta_count=1, mutable_size=1, tuples_processed=0)
        assert s.ticks == 4
        assert s.ticks_dropped == 96
        # The grid stays aligned: the next boundary is past sim_seconds.
        assert s._next_tick > s.sim_seconds
        s.sample_stratum(FakeObs(), 1, seconds=1.0, bytes_sent=0,
                         delta_count=1, mutable_size=1, tuples_processed=0)
        assert s.ticks == 5
        assert s.ticks_dropped == 96

    def test_series_are_rings(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg, capacity=8)
        for k in range(20):
            s.sample_stratum(FakeObs(), k, seconds=0.1, bytes_sent=0,
                             delta_count=k, mutable_size=0,
                             tuples_processed=0)
        series = reg.series("telemetry.stratum.delta_count")
        assert len(series.points) == 8
        assert series.dropped == 12
        assert series.points[0] == (12, 12)
        assert series.points[-1] == (19, 19)

    def test_inflight_peak_series(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg)
        obs = FakeObs()
        obs.peak = 17
        s.sample_stratum(obs, 0, seconds=0.1, bytes_sent=0, delta_count=0,
                         mutable_size=0, tuples_processed=0)
        assert reg.series("telemetry.net.inflight_peak").points == [(0, 17)]

    def test_node_seconds_series(self):
        reg = MetricsRegistry()
        s = TelemetrySampler(reg)
        s.sample_stratum(FakeObs(), 0, seconds=0.2, bytes_sent=0,
                         delta_count=0, mutable_size=0, tuples_processed=0,
                         node_seconds={1: 0.2, 0: 0.1})
        assert reg.series("telemetry.node.n0.stratum_seconds").points == [
            (0, 0.1)]
        assert reg.series("telemetry.node.n1.stratum_seconds").points == [
            (0, 0.2)]


class TestRegistryHygiene:
    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.series("b").append(0, 1)
        reg.reset()
        assert len(reg) == 0

    def test_remove_by_prefix(self):
        reg = MetricsRegistry()
        reg.counter("telemetry.sampler.samples").inc()
        reg.series("telemetry.stratum.seconds").append(0, 1)
        reg.counter("op.n0.tuples_in").inc()
        assert reg.remove("telemetry.") == 2
        assert reg.names() == ["op.n0.tuples_in"]
        assert reg.remove("nothing.") == 0

    def test_series_capacity_on_creation_only(self):
        reg = MetricsRegistry()
        s = reg.series("ring", capacity=2)
        assert reg.series("ring") is s
        for k in range(5):
            s.append(k, k)
        assert s.points == [(3, 3), (4, 4)]
        assert s.dropped == 3
        with pytest.raises(ValueError):
            reg.counter("ring")


class TestHistogramQuantiles:
    def test_quantiles_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [0.3, 0.6, 1.5, 3.0, 100.0]:
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.3 and snap["max"] == 100.0
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["min"] <= snap["p50"] <= snap["max"]
        # p50: the third value sits in the (1, 2] bucket.
        assert snap["p50"] == 2.0
        # The bucket list is (le, count) ascending.
        les = [le for le, _ in snap["buckets"]]
        assert les == sorted(les)
        assert sum(n for _, n in snap["buckets"]) == 5

    def test_quantiles_empty_and_nonpositive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.quantile(0.5) is None
        h.record(0.0)
        h.record(-2.0)
        assert h.underflow == 2
        assert h.quantile(0.5) == h.min
        assert h.bucket_bounds()[0] == (0.0, 2)

    def test_exact_powers_of_two_land_in_their_own_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.record(4.0)   # le=4 bucket: (2, 4]
        h.record(4.1)   # le=8 bucket: (4, 8]
        assert h.bucket_bounds() == [(4.0, 1), (8.0, 1)]


class TestEndToEnd:
    def _run(self, **obs_kwargs):
        cluster = Cluster(4)
        edges = dbpedia_like(120, avg_out_degree=4.0, seed=3)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId")
        obs = ObsContext(**obs_kwargs)
        _, metrics = run_pagerank(
            cluster, mode="delta", tol=0.01,
            options=ExecOptions(max_strata=60, obs=obs))
        return obs, metrics

    def test_sampler_runs_at_stratum_cadence(self):
        obs, metrics = self._run()
        assert obs.telemetry is not None
        assert obs.telemetry.samples == metrics.num_iterations
        series = obs.registry.series("telemetry.stratum.delta_count")
        assert len(series.points) == metrics.num_iterations
        # Per-node skew series exist for every node.
        for node in range(4):
            pts = obs.registry.series(
                f"telemetry.node.n{node}.stratum_seconds").points
            assert len(pts) == metrics.num_iterations
        # The sampler's simulated clock integrates per-stratum seconds.
        total = sum(v for _, v in obs.registry.series(
            "telemetry.stratum.seconds").points)
        assert obs.telemetry.sim_seconds == pytest.approx(total)

    def test_telemetry_off_keeps_registry_clean(self):
        obs, _ = self._run(telemetry=False)
        assert obs.telemetry is None
        assert obs.registry.names("telemetry.") == []

    def test_explain_analyze_shows_sparklines(self):
        obs, metrics = self._run()
        text = explain_analyze(obs, metrics)
        assert "live telemetry" in text
        assert "Δ-set" in text
        assert "sampler:" in text

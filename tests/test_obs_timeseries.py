"""The per-stratum sampler, folded into ``ObsContext.end_stratum``: one
``stratum.*`` family plus per-node seconds, rings, registry hygiene."""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.cluster.metrics import IterationMetrics
from repro.datasets import dbpedia_like
from repro.algorithms import run_pagerank
from repro.obs import ObsContext, Tracer, explain_analyze
from repro.obs.context import STRATUM_SERIES_CAPACITY
from repro.obs.registry import MetricsRegistry
from repro.runtime import ExecOptions

FAMILY = ("seconds", "bytes_sent", "delta_count", "mutable_size",
          "tuples_processed", "inflight_peak")


def _obs():
    return ObsContext(tracer=Tracer(enabled=False))


def _msg():
    return SimpleNamespace(exchange="x0", src=0, dst=1, deltas=[],
                           punct=None)


class TestSampler:
    """``end_stratum`` samples one stratum's record into the registry."""

    def test_sample_populates_stratum_series(self):
        obs = _obs()
        obs.end_stratum(IterationMetrics(
            0, seconds=0.5, bytes_sent=256, tuples_processed=100,
            delta_count=7, mutable_size=21), {})
        reg = obs.registry
        assert reg.names() == sorted(f"stratum.{m}" for m in FAMILY)
        assert reg.series("stratum.seconds").points == [(0, 0.5)]
        assert reg.series("stratum.bytes_sent").points == [(0, 256)]
        assert reg.series("stratum.delta_count").points == [(0, 7)]
        assert reg.series("stratum.mutable_size").points == [(0, 21)]
        assert reg.series("stratum.tuples_processed").points == [(0, 100)]
        assert reg.series("stratum.inflight_peak").points == [(0, 0)]

    def test_one_sample_per_stratum_cadence(self):
        obs = _obs()
        for k in range(5):
            obs.end_stratum(IterationMetrics(k, delta_count=10 - k), {})
        assert obs.registry.series("stratum.delta_count").points == [
            (0, 10), (1, 9), (2, 8), (3, 7), (4, 6)]

    def test_series_are_rings(self):
        obs = _obs()
        n = STRATUM_SERIES_CAPACITY + 12
        for k in range(n):
            obs.end_stratum(IterationMetrics(k, delta_count=k), {0: 0.1})
        for name in ("stratum.delta_count", "node.n0.stratum_seconds"):
            series = obs.registry.series(name)
            assert len(series.points) == STRATUM_SERIES_CAPACITY
            assert series.dropped == 12
        assert obs.registry.series("stratum.delta_count").points[0] == (
            12, 12)

    def test_inflight_peak_series(self):
        obs = _obs()
        for _ in range(3):
            obs.on_send(_msg(), 10)
        obs.on_deliver(_msg())
        obs.end_stratum(IterationMetrics(0), {})
        # The next stratum's peak starts from the depth still in flight.
        obs.on_drop(_msg())
        obs.end_stratum(IterationMetrics(1), {})
        assert obs.registry.series("stratum.inflight_peak").points == [
            (0, 3), (1, 2)]

    def test_node_seconds_series(self):
        obs = _obs()
        obs.end_stratum(IterationMetrics(0, seconds=0.2), {1: 0.2, 0: 0.1})
        assert obs.registry.series("node.n0.stratum_seconds").points == [
            (0, 0.1)]
        assert obs.registry.series("node.n1.stratum_seconds").points == [
            (0, 0.2)]


class TestRegistryHygiene:
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


class TestEndToEnd:
    def _run(self):
        cluster = Cluster(4)
        edges = dbpedia_like(120, avg_out_degree=4.0, seed=3)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId")
        obs = ObsContext()
        _, metrics = run_pagerank(
            cluster, mode="delta", tol=0.01,
            options=ExecOptions(max_strata=60, obs=obs))
        return cluster, obs, metrics

    def test_sampler_runs_at_stratum_cadence(self):
        cluster, obs, metrics = self._run()
        reg = obs.registry
        strata = list(range(metrics.num_iterations))
        for name in FAMILY:
            assert [i for i, _ in reg.series(f"stratum.{name}").points] == \
                strata, name
        # A stratum's wall time is its slowest node's, plus the barrier.
        nodes = [reg.series(f"node.n{node}.stratum_seconds").values()
                 for node in range(4)]
        overhead = cluster.cost.rex_stratum_overhead
        assert reg.series("stratum.seconds").values() == [
            max(per_node) + overhead for per_node in zip(*nodes)]

    def test_telemetry_off_keeps_registry_clean(self):
        # The sampler's ``telemetry.*`` copies are off for good: every name
        # an observed run leaves belongs to one of the documented families,
        # so nothing is written twice under another prefix.
        _, obs, _ = self._run()
        reg = obs.registry
        assert reg.names("telemetry.") == []
        families = ("op.", "net.", "stratum.", "node.", "sanitizer.")
        assert reg.names() and all(
            name.startswith(families) for name in reg.names())
        assert [n for n in reg.names() if n.startswith("node.")] == [
            f"node.n{node}.stratum_seconds" for node in range(4)]

    def test_explain_analyze_shows_sparklines(self):
        _, obs, metrics = self._run()
        text = explain_analyze(obs, metrics)
        assert "per-stratum sparklines" in text
        assert "Δ-set" in text
        assert "inflight" in text
        assert "sampler:" not in text

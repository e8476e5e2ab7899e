"""Metrics registry primitives and naming scheme."""

import pytest

from repro.obs import MetricsRegistry, ObsContext

from workloads import pagerank_delta, run


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.value = 5
        assert reg.counter("a.b") is c  # get-or-create returns same
        assert reg.counter("a.b").value == 5

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.5)
        assert reg.gauge("g").value == 3.5

    def test_series_preserves_order(self):
        reg = MetricsRegistry()
        s = reg.series("s")
        s.append(0, 10)
        s.append(1, 7)
        assert s.points == [(0, 10), (1, 7)]

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_names_and_snapshot_by_prefix(self):
        reg = MetricsRegistry()
        reg.counter("op.n0.Scan#0.calls").value = 1
        reg.counter("net.exchange.x.bytes").value = 64
        assert reg.names("op.") == ["op.n0.Scan#0.calls"]
        snap = reg.snapshot("net.")
        assert snap == {"net.exchange.x.bytes": 64}


class TestNamingScheme:
    def test_query_populates_expected_namespaces(self):
        obs = ObsContext()
        run(pagerank_delta(80), obs=obs)
        names = obs.registry.names()
        prefixes = {"op.", "net.exchange.", "stratum.", "node."}
        for prefix in prefixes:
            assert any(n.startswith(prefix) for n in names), prefix
        # per-operator metrics carry node and instance ids
        assert any(n.startswith("op.n0.") and n.endswith(".sim_seconds")
                   for n in names)
        # stratum series have one point per stratum
        seconds = obs.registry.series("stratum.seconds")
        assert [i for i, _ in seconds.points] == list(
            range(len(seconds.points)))

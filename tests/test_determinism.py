"""The schedule-perturbation determinism checker (REX205/REX206).

The benchmark workloads are supposed to be deterministic functions of
their inputs — K perturbed re-executions must agree with the baseline.
The corpus's first-arrival-wins UDA is the positive control: the checker
must flag it and minimize the race to the exchange feeding the group-by.
"""

import hashlib
from collections import deque

from repro.algorithms.kmeans import kmeans_plan
from repro.algorithms.pagerank import pagerank_plan
from repro.algorithms.sssp import make_start_table, sssp_plan
from repro.analysis.determinism import (
    Perturbation,
    canonical_rows,
    canonical_value,
    check_determinism,
    exchange_base,
)
from repro.cluster import Cluster
from repro.common import insert
from repro.datasets import dbpedia_like, geo_points, sample_centroids
from repro.net import Message, SimulatedNetwork
from repro.runtime import ExecOptions, QueryExecutor

from sanitizer_corpus import _first_value_plan
from workloads import build, run

EDGES = dbpedia_like(120, avg_out_degree=4.0, seed=9)


def _graph_cluster():
    cluster = Cluster(4)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         EDGES, "srcId", replication=2)
    return cluster


class TestBenchmarkWorkloadsAreDeterministic:
    def test_pagerank_no_races(self):
        def run_query(perturb):
            opts = ExecOptions(max_strata=60, feedback_mode="delta",
                               perturb=perturb)
            return QueryExecutor(_graph_cluster(), opts).execute(
                pagerank_plan(mode="delta", tol=0.01))

        outcome = check_determinism(run_query, perturbations=3, seed=0)
        assert not outcome.has_races, outcome.report.format()
        assert outcome.runs == 3
        assert not any(o.rows_diverged for o in outcome.outcomes)

    def test_sssp_no_races(self):
        def run_query(perturb):
            cluster = _graph_cluster()
            make_start_table(cluster, EDGES[0][0])
            opts = ExecOptions(max_strata=200, perturb=perturb)
            return QueryExecutor(cluster, opts).execute(sssp_plan())

        outcome = check_determinism(run_query, perturbations=3, seed=0)
        assert not outcome.has_races, outcome.report.format()

    def test_kmeans_result_rows_stable(self):
        """k-means rows must be schedule-independent; per-stratum delta
        accounting may legitimately vary (REX206 is warning-level)."""
        points = geo_points(120, n_clusters=3, seed=12, spread=0.6)
        centroids = sample_centroids(points, 3, seed=13)

        def run_query(perturb):
            cluster = Cluster(4)
            cluster.create_table("points",
                                 ["pid:Integer", "x:Double", "y:Double"],
                                 points, "pid", replication=2)
            cluster.create_table("centroids0",
                                 ["cid:Integer", "x:Double", "y:Double"],
                                 centroids, "cid")
            opts = ExecOptions(max_strata=120, perturb=perturb)
            return QueryExecutor(cluster, opts).execute(kmeans_plan())

        outcome = check_determinism(run_query, perturbations=3, seed=0)
        assert not outcome.has_races, outcome.report.format()
        assert not any(o.rows_diverged for o in outcome.outcomes)


class TestRaceDetectionAndMinimization:
    def test_order_dependent_uda_flagged_and_minimized(self):
        rows = [(i % 10, i) for i in range(200)]

        def run_query(perturb):
            cluster = Cluster(4)
            cluster.create_table("obs", ["g:Integer", "v:Integer"],
                                 rows, "v")
            opts = ExecOptions(perturb=perturb)
            return QueryExecutor(cluster, opts).execute(_first_value_plan())

        outcome = check_determinism(run_query, perturbations=3, seed=0)
        assert outcome.has_races
        assert "REX205" in outcome.report.codes()
        assert outcome.suspects, "minimization should name the exchange"
        payload = outcome.to_json()
        assert payload["races"] is True
        assert payload["suspects"] == outcome.suspects
        assert isinstance(payload["diagnostics"], dict)


class TestPerturbationPrimitives:
    def test_exchange_base_strips_attempt_suffix(self):
        assert exchange_base("x0.a7") == "x0"
        assert exchange_base("x3") == "x3"

    def test_canonical_value_tolerates_summation_noise(self):
        a = 0.1 + 0.2
        b = 0.3
        assert a != b
        assert canonical_value(a) == canonical_value(b)
        assert canonical_value(float("nan")) == "nan"

    def test_canonical_rows_is_order_insensitive(self):
        rows1 = [(1, 2.0), (3, 4.0)]
        rows2 = [(3, 4.0), (1, 2.0)]
        assert canonical_rows(rows1) == canonical_rows(rows2)

    def test_perturbation_preserves_per_link_fifo(self):
        """Messages on the same (src, dst) link are never reordered."""
        net = SimulatedNetwork()
        delivered = []
        net.register(1, "x0", delivered.append)
        for tag in range(5):
            for src in (0, 2):
                net.send(Message(src=src, dst=1, exchange="x0",
                                 deltas=[insert((tag,))]))
        perturb = Perturbation(seed=3)
        perturb.install(net)
        assert net.drain() == 10
        assert perturb.choices > 0
        seen = {}
        for msg in delivered:
            tag = msg.deltas[0].row[0]
            last = seen.get((msg.src, msg.dst), -1)
            assert tag > last, "per-link FIFO violated"
            seen[(msg.src, msg.dst)] = tag
        perturb.uninstall(net)
        assert type(net._queue) is deque

    def test_seeded_delivery_order_is_pinned(self, monkeypatch):
        """One seed, one schedule: the delivery order of a perturbed SSSP
        run through a node crash (dead-node drops, checkpoint restore)
        hashes to the value recorded when the perturbation still re-bound
        the network's ``pop``.  A changed hash means a changed rng stream
        or a changed fabric order."""
        log = []
        register = SimulatedNetwork.register

        def recording(net, node, exchange, handler):
            def deliver(msg):
                log.append((msg.src, msg.dst, exchange_base(msg.exchange),
                            repr(msg.punct) if msg.deltas is None else
                            [(d.op.value, d.row) for d in msg.deltas]))
                handler(msg)
            register(net, node, exchange, deliver)

        monkeypatch.setattr(SimulatedNetwork, "register", recording)
        perturb = Perturbation(seed=5)
        workload = build("sssp_failure")
        run(workload, perturb=perturb)
        # The run leaves plain FIFO delivery behind for the next query.
        assert type(workload[0].network._queue) is deque
        digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
        assert (digest, len(log), perturb.choices) == (
            "2a798931b20f2d86", 696, 691)

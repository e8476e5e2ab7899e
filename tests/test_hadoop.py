"""Tests for the Hadoop/HaLoop simulator and the REX wrap mode."""

import pytest

from repro.algorithms import (
    kmeans_reference,
    pagerank_reference,
    run_pagerank,
    sssp_reference,
)
from repro.cluster import Cluster
from repro.datasets import (
    dbpedia_like,
    geo_points,
    lineitem,
    sample_centroids,
)
from repro.hadoop import (
    DFSDataset,
    HadoopEngine,
    hadoop_kmeans,
    hadoop_pagerank,
    hadoop_simple_agg,
    hadoop_sssp,
    rex_wrap_pagerank,
    rex_wrap_simple_agg,
    simple_agg_job,
)

EDGES = dbpedia_like(250, avg_out_degree=5, seed=23)


class TestDFSDataset:
    def test_from_records_by_key_consistent(self):
        ds = DFSDataset.from_records("t", [(i, i) for i in range(50)],
                                     [0, 1, 2])
        assert ds.num_records() == 50
        again = DFSDataset.from_records("t", [(i, i) for i in range(50)],
                                        [0, 1, 2])
        assert ds.partitions == again.partitions

    def test_round_robin_blocks(self):
        ds = DFSDataset.from_records("t", [(i, i) for i in range(9)],
                                     [0, 1, 2], by_key=False)
        assert all(len(ds.partition(n)) == 3 for n in (0, 1, 2))

    def test_as_dict(self):
        ds = DFSDataset.from_records("t", [(1, "a"), (2, "b")], [0])
        assert ds.as_dict() == {1: "a", 2: "b"}


class TestSimpleAggJob:
    def test_matches_direct_computation(self):
        rows = lineitem(500)
        cluster = Cluster(4)
        (total, count), metrics = hadoop_simple_agg(cluster, rows)
        kept = [r for r in rows if r[1] > 1]
        assert count == len(kept)
        assert total == pytest.approx(sum(r[5] for r in kept))
        assert metrics.total_seconds() > cluster.cost.hadoop_job_startup

    def test_rex_wrap_same_answer(self):
        rows = lineitem(500)
        cluster = Cluster(4)
        cluster.create_table(
            "lineitem",
            ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
             "extendedprice:Double", "discount:Double", "tax:Double"],
            [(r[0], r[1], r[2], r[3], r[4], r[5]) for r in rows], None)
        # The wrap plan consumes columns (orderkey, linenumber, tax) via
        # the arg extractor matching the mapper's expectations.
        wrap_cluster = Cluster(4)
        wrap_cluster.create_table(
            "lineitem",
            ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
             "extendedprice:Double", "discount:Double", "tax:Double"],
            rows, None)
        (total, count), wrap_m = rex_wrap_simple_agg(wrap_cluster)
        kept = [r for r in rows if r[1] > 1]
        assert count == len(kept)
        assert total == pytest.approx(sum(r[5] for r in kept))

    def test_wrap_faster_than_hadoop(self):
        """Figure 4: REX wrap beats Hadoop (no startup, no sort-shuffle)."""
        rows = lineitem(2000)
        h_cluster = Cluster(4)
        _, hadoop_m = hadoop_simple_agg(h_cluster, rows)
        w_cluster = Cluster(4)
        w_cluster.create_table(
            "lineitem",
            ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
             "extendedprice:Double", "discount:Double", "tax:Double"],
            rows, None)
        _, wrap_m = rex_wrap_simple_agg(w_cluster)
        assert wrap_m.total_seconds() < hadoop_m.total_seconds()


class TestHadoopPageRank:
    def test_matches_reference(self):
        cluster = Cluster(3)
        scores, _ = hadoop_pagerank(cluster, EDGES, iterations=40)
        expected = pagerank_reference(EDGES)
        for v in expected:
            assert scores[v] == pytest.approx(expected[v], rel=1e-3), v

    def test_haloop_same_answer_less_time(self):
        c1 = Cluster(3)
        s1, m1 = hadoop_pagerank(c1, EDGES, iterations=10, haloop=False)
        c2 = Cluster(3)
        s2, m2 = hadoop_pagerank(c2, EDGES, iterations=10, haloop=True)
        assert s1 == s2
        assert m2.total_seconds() < m1.total_seconds()

    def test_first_iteration_not_discounted_for_haloop(self):
        cluster = Cluster(3)
        _, m = hadoop_pagerank(cluster, EDGES, iterations=5, haloop=True)
        per_iter = m.per_iteration_seconds()
        assert per_iter[0] > per_iter[1]  # cache built during iteration 1

    def test_per_iteration_time_flat_for_hadoop(self):
        """Hadoop re-processes everything: late iterations cost like early
        ones (Figure 6b's flat lines)."""
        cluster = Cluster(3)
        _, m = hadoop_pagerank(cluster, EDGES, iterations=8)
        per_iter = m.per_iteration_seconds()
        assert per_iter[-1] == pytest.approx(per_iter[1], rel=0.25)


class TestHadoopSSSP:
    def test_matches_bfs(self):
        cluster = Cluster(3)
        dists, _ = hadoop_sssp(cluster, EDGES, source=0)
        assert dists == {v: float(d)
                         for v, d in sssp_reference(EDGES, 0).items()}

    def test_haloop_cheaper(self):
        c1 = Cluster(3)
        _, m1 = hadoop_sssp(c1, EDGES, source=0, haloop=False)
        c2 = Cluster(3)
        _, m2 = hadoop_sssp(c2, EDGES, source=0, haloop=True)
        assert m2.total_seconds() < m1.total_seconds()

    def test_frontier_tracked_as_delta(self):
        cluster = Cluster(3)
        _, m = hadoop_sssp(cluster, EDGES, source=0)
        assert m.delta_series()[-1] == 0  # frontier empties


class TestHadoopKMeans:
    def test_matches_lloyd(self):
        points = geo_points(200, n_clusters=3, seed=31, spread=0.6)
        centroids = sample_centroids(points, 3, seed=32)
        cluster = Cluster(3)
        got, _ = hadoop_kmeans(cluster, points, centroids)
        expected, _, _ = kmeans_reference(points, centroids)
        for cid, (x, y) in got.items():
            assert x == pytest.approx(expected[cid][0], abs=1e-6)
            assert y == pytest.approx(expected[cid][1], abs=1e-6)

    def test_haloop_no_advantage_for_kmeans(self):
        """The paper: no immutable relation -> HaLoop ~ Hadoop."""
        points = geo_points(150, n_clusters=3, seed=33)
        centroids = sample_centroids(points, 3, seed=34)
        c1 = Cluster(3)
        _, m1 = hadoop_kmeans(c1, points, centroids, haloop=False)
        c2 = Cluster(3)
        _, m2 = hadoop_kmeans(c2, points, centroids, haloop=True)
        assert m2.total_seconds() == pytest.approx(m1.total_seconds(),
                                                   rel=0.01)


class TestRexWrapPageRank:
    def test_same_scores_as_native_rex(self):
        iterations = 12
        c1 = Cluster(3)
        c1.create_table("graph", ["srcId:Integer", "destId:Integer"],
                        EDGES, "srcId")
        wrap_scores, wrap_m = rex_wrap_pagerank(c1, iterations)
        c2 = Cluster(3)
        c2.create_table("graph", ["srcId:Integer", "destId:Integer"],
                        EDGES, "srcId")
        native_scores, _ = run_pagerank(c2, mode="nodelta",
                                        max_strata=iterations)
        for v in native_scores:
            assert wrap_scores[v] == pytest.approx(native_scores[v], rel=1e-9)

    def test_wrap_slower_than_delta_but_faster_than_hadoop(self):
        """Figure 6a ordering: Hadoop > wrap > ... > REX Δ."""
        c3 = Cluster(3)
        c3.create_table("graph", ["srcId:Integer", "destId:Integer"],
                        EDGES, "srcId")
        _, delta_m = run_pagerank(c3, mode="delta", tol=0.01)
        iterations = delta_m.num_iterations
        c1 = Cluster(3)
        c1.create_table("graph", ["srcId:Integer", "destId:Integer"],
                        EDGES, "srcId")
        _, wrap_m = rex_wrap_pagerank(c1, iterations)
        c2 = Cluster(3)
        _, hadoop_m = hadoop_pagerank(c2, EDGES, iterations=iterations)
        # At unit-test scale stratum overhead dominates seconds, so the
        # delta-vs-wrap claim is asserted on work done; Figure 6's full-size
        # run (repro.bench.fig06_pagerank_dbpedia) compares simulated seconds.
        assert delta_m.total_tuples() < wrap_m.total_tuples()
        assert wrap_m.total_seconds() < hadoop_m.total_seconds()

"""End-to-end RQL: the paper's listings through parse/compile/optimize/run."""

import pytest

from repro.algorithms import (
    MonotoneMinDist,
    PRAgg,
    SPAgg,
    kmeans_reference,
    pagerank_reference,
    sssp_reference,
)
from repro.algorithms.kmeans import CentroidAvg, KMAgg
from repro.cluster import Cluster
from repro.common.errors import TypeCheckError
from repro.datasets import dbpedia_like, geo_points, lineitem, sample_centroids
from repro.rql import RQLSession
from repro.udf import udf

EDGES = dbpedia_like(300, avg_out_degree=5, seed=51)


def graph_session(n=3):
    cluster = Cluster(n)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         EDGES, "srcId")
    return RQLSession(cluster)


class TestSimpleQueries:
    def make_lineitem_session(self, n_rows=400):
        cluster = Cluster(3)
        cluster.create_table(
            "lineitem",
            ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
             "extendedprice:Double", "discount:Double", "tax:Double"],
            lineitem(n_rows), None)
        return RQLSession(cluster), lineitem(n_rows)

    def test_figure4_aggregation_query(self):
        session, rows = self.make_lineitem_session()
        result = session.execute(
            "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1")
        kept = [r for r in rows if r[1] > 1]
        assert len(result.rows) == 1
        total, count = result.rows[0]
        assert count == len(kept)
        assert total == pytest.approx(sum(r[5] for r in kept))

    def test_projection_and_arithmetic(self):
        session, rows = self.make_lineitem_session(50)
        result = session.execute(
            "SELECT orderkey, quantity * 2 AS dbl FROM lineitem "
            "WHERE quantity > 25")
        expected = sorted((r[0], r[2] * 2) for r in rows if r[2] > 25)
        assert sorted(result.rows) == expected

    def test_group_by_query(self):
        session, rows = self.make_lineitem_session(300)
        result = session.execute(
            "SELECT linenumber, count(*), avg(tax) FROM lineitem "
            "GROUP BY linenumber")
        by_line = {}
        for r in rows:
            by_line.setdefault(r[1], []).append(r[5])
        expected = {ln: (len(ts), sum(ts) / len(ts))
                    for ln, ts in by_line.items()}
        assert len(result.rows) == len(expected)
        for ln, count, avg_tax in result.rows:
            assert count == expected[ln][0]
            assert avg_tax == pytest.approx(expected[ln][1])

    def test_argmin_argmax_and_collect_skip_nulls(self):
        """Like min, they ignore NULL values; an all-NULL group is NULL."""
        cluster = Cluster(3)
        cluster.create_table("t", ["g:Integer", "id:Integer", "v:Integer"],
                             [(0, 1, 5), (0, 2, None), (0, 3, 2),
                              (1, 4, None), (2, 6, 7), (2, 7, 7)], None)
        session = RQLSession(cluster)

        def run(select):
            return sorted(session.execute(
                f"SELECT g, {select} FROM t GROUP BY g").rows)

        assert run("ArgMin(id, v).{id, d}") == [
            (0, 3, 2), (1, None, None), (2, 6, 7)]
        assert run("ArgMax(id, v).{id, d}") == [
            (0, 1, 5), (1, None, None), (2, 6, 7)]
        assert run("collect(v)") == [(0, (2, 5)), (1, None), (2, (7, 7))]

    def test_scalar_udf_in_query(self):
        session, rows = self.make_lineitem_session(50)

        @udf(in_types=["Double"], out_types=["Double"])
        def taxed(price):
            return price * 1.05

        session.register(taxed)
        result = session.execute(
            "SELECT orderkey, taxed(extendedprice) FROM lineitem")
        got = sorted(result.rows)
        expected = sorted((r[0], r[3] * 1.05) for r in rows)
        assert [g[0] for g in got] == [e[0] for e in expected]
        assert [g[1] for g in got] == pytest.approx([e[1] for e in expected])

    def test_join_query(self):
        cluster = Cluster(3)
        cluster.create_table("r", ["a:Integer", "x:Integer"],
                             [(i, i * 2) for i in range(20)], "a")
        cluster.create_table("s", ["b:Integer", "y:Integer"],
                             [(i % 5, i) for i in range(15)], "b")
        session = RQLSession(cluster)
        result = session.execute(
            "SELECT a, x, y FROM r, s WHERE r.a = s.b")
        expected = sorted((i % 5, (i % 5) * 2, i) for i in range(15))
        assert sorted(result.rows) == expected

    def test_unknown_table_rejected(self):
        session = graph_session()
        with pytest.raises(TypeCheckError):
            session.execute("SELECT x FROM missing")

    def test_unknown_column_rejected(self):
        session = graph_session()
        with pytest.raises(TypeCheckError):
            session.execute("SELECT nope FROM graph")


PAGERANK_RQL = """
    WITH PR (srcId, pr) AS                 -- Base case initializes
    ( SELECT srcId, 1.0 AS pr FROM graph   -- PageRank to 1
    ) UNION UNTIL FIXPOINT BY srcId (      -- Recursive case produces deltas
      SELECT nbr, 0.15 + 0.85 * sum(prDiff)
      FROM ( SELECT PRAgg(srcId, pr).{nbr, prDiff}
             FROM graph, PR                -- deltas from prev. iteration
             WHERE graph.srcId = PR.srcId GROUP BY srcId)
      GROUP BY nbr)
"""

SSSP_RQL = """
    WITH SP (srcId, parent, dist) AS (
      SELECT v, parent, dist FROM start
    ) UNION ALL UNTIL FIXPOINT BY srcId (
      SELECT nbr, ArgMin(parent, distOut).{id, dist}
      FROM ( SELECT SPAgg(nbrId, dist).{nbr, parent, distOut}
             FROM graph, SP WHERE graph.srcId = SP.srcId
             GROUP BY srcId) GROUP BY nbr)
"""

KMEANS_RQL = """
    WITH KM (cid, x, y) AS (
      SELECT cid, x, y FROM centroids0
    ) UNION ALL UNTIL FIXPOINT BY cid (
      SELECT cid, CentroidAvg(xDiff, yDiff).{x, y}
      FROM ( SELECT cid, KMAgg(cid, cx, cy).{cid, xDiff, yDiff}
             FROM points, KM GROUP BY cid ) GROUP BY cid)
"""


class TestPageRankRQL:
    def test_listing1_matches_reference(self):
        session = graph_session()
        session.register(PRAgg(tol=0.0))
        result = session.execute(PAGERANK_RQL)
        scores = dict(result.rows)
        expected = pagerank_reference(EDGES)
        assert set(scores) == set(expected)
        for v in expected:
            assert scores[v] == pytest.approx(expected[v], rel=1e-6)

    def test_convergence_metrics(self):
        session = graph_session()
        session.register(PRAgg(tol=0.01))
        result = session.execute(PAGERANK_RQL)
        assert result.metrics.delta_series()[-1] == 0
        assert result.metrics.num_iterations > 3

    def test_explain_shows_figure1_structure(self):
        session = graph_session()
        session.register(PRAgg(tol=0.01))
        text = session.explain(PAGERANK_RQL)
        assert "Fixpoint(PR BY srcId)" in text
        assert "Join[PRAgg]" in text
        assert "FixpointReceiver(PR)" in text
        assert "Scan(graph)" in text
        assert "GroupBy" in text


class TestSSSPRQL:
    def test_listing2_matches_bfs(self):
        session = graph_session()
        session.cluster.create_table(
            "start", ["v:Integer", "parent:Integer", "dist:Double"],
            [(0, -1, 0.0)], "v")
        session.register(SPAgg())
        session.register(MonotoneMinDist)
        result = session.execute(SSSP_RQL,
                                 fixpoint_handler="MonotoneMinDist")
        dists = {r[0]: r[2] for r in result.rows}
        expected = {v: float(d) for v, d in sssp_reference(EDGES, 0).items()}
        assert dists == expected

    def test_parent_pointers_valid(self):
        session = graph_session()
        session.cluster.create_table(
            "start", ["v:Integer", "parent:Integer", "dist:Double"],
            [(0, -1, 0.0)], "v")
        session.register(SPAgg())
        session.register(MonotoneMinDist)
        result = session.execute(SSSP_RQL,
                                 fixpoint_handler="MonotoneMinDist")
        dists = {r[0]: r[2] for r in result.rows}
        for v, parent, d in result.rows:
            if v != 0:
                assert dists[parent] == d - 1


class TestKMeansRQL:
    def test_listing3_matches_lloyd(self):
        points = geo_points(200, n_clusters=3, seed=55, spread=0.7)
        centroids = sample_centroids(points, 3, seed=56)
        cluster = Cluster(3)
        cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                             points, None)
        cluster.create_table("centroids0",
                             ["cid:Integer", "x:Double", "y:Double"],
                             centroids, "cid")
        session = RQLSession(cluster)
        session.register(KMAgg)
        session.register(CentroidAvg, name="CentroidAvg")
        result = session.execute(KMEANS_RQL)
        got = {r[0]: (r[1], r[2]) for r in result.rows}
        expected, _, _ = kmeans_reference(points, centroids)
        for cid, (x, y) in expected.items():
            if got.get(cid, (None, None)) != (None, None):
                assert got[cid][0] == pytest.approx(x, abs=1e-6)
                assert got[cid][1] == pytest.approx(y, abs=1e-6)

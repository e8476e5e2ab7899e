"""Unit tests for RQL semantic analysis (AST -> logical plan shapes)."""

import pytest

from repro.algorithms import PRAgg
from repro.algorithms.kmeans import KMAgg
from repro.cluster import Cluster
from repro.common.errors import TypeCheckError
from repro.common.schema import SQLType
from repro.optimizer.logical import (
    LFeedback,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LProject,
    LRehash,
    LScan,
)
from repro.rql import RQLSession, compile_query, parse
from repro.udf import UDFRegistry


def make_env():
    cluster = Cluster(2)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         [(0, 1)], "srcId")
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         [(0, 1.0, 2.0)], None)
    registry = UDFRegistry()
    registry.register(PRAgg())
    registry.register(KMAgg)
    return cluster.catalog, registry


def compile_text(text):
    catalog, registry = make_env()
    return compile_query(parse(text), catalog, registry)


class TestSelectShapes:
    def test_projection_only(self):
        node = compile_text("SELECT srcId FROM graph")
        assert isinstance(node, LProject)
        assert isinstance(node.children[0], LScan)
        assert [f.name for f in node.schema] == ["srcId"]

    def test_filter_between(self):
        node = compile_text("SELECT srcId FROM graph WHERE destId > 0")
        assert isinstance(node.children[0], LFilter)

    def test_groupby_shape(self):
        node = compile_text(
            "SELECT srcId, count(*) FROM graph GROUP BY srcId")
        assert isinstance(node, LProject)
        gb = node.children[0]
        assert isinstance(gb, LGroupBy)
        assert gb.keys == (0,)
        assert gb.aggs[0].name == "count"

    def test_aggregate_inside_arithmetic_lifted(self):
        node = compile_text(
            "SELECT srcId, 2 * count(*) + 1 FROM graph GROUP BY srcId")
        gb = node.children[0]
        assert isinstance(gb, LGroupBy)
        assert len(gb.aggs) == 1
        # The projection references the synthetic aggregate column.
        out_type = node.schema[1].type
        assert out_type in (SQLType.INTEGER, SQLType.ANY)

    def test_output_types_inferred(self):
        node = compile_text("SELECT srcId, destId * 2.0 FROM graph")
        assert node.schema[0].type is SQLType.INTEGER
        assert node.schema[1].type is SQLType.DOUBLE

    def test_global_aggregate_has_empty_keys(self):
        node = compile_text("SELECT count(*) FROM graph")
        gb = node.children[0]
        assert isinstance(gb, LGroupBy)
        assert gb.keys == ()


class TestHandlerJoinShapes:
    PR_INNER = ("SELECT PRAgg(srcId, pr).{nbr, prDiff} "
                "FROM graph, PR WHERE graph.srcId = PR.srcId "
                "GROUP BY srcId")

    def with_query(self, inner):
        return (f"WITH PR (srcId, pr) AS (SELECT srcId, 1.0 FROM graph) "
                f"UNION UNTIL FIXPOINT BY srcId "
                f"(SELECT nbr, sum(prDiff) FROM ({inner}) GROUP BY nbr)")

    def test_handler_join_detected(self):
        node = compile_text(self.with_query(self.PR_INNER))
        assert isinstance(node, LFixpoint)
        joins = [n for n in node.walk() if isinstance(n, LJoin)]
        assert len(joins) == 1
        assert joins[0].handler_factory is not None
        # The immutable graph is the left input; the feedback the right.
        assert isinstance(joins[0].left, LScan)
        assert isinstance(joins[0].right, LFeedback)

    def test_handler_schema_from_expansion(self):
        node = compile_text(self.with_query(self.PR_INNER))
        join = next(n for n in node.walk() if isinstance(n, LJoin))
        assert [f.name for f in join.schema] == ["nbr", "prDiff"]

    def test_broadcast_handler_join_without_where(self):
        text = ("WITH KM (cid, x, y) AS (SELECT pid, x, y FROM points) "
                "UNION ALL UNTIL FIXPOINT BY cid "
                "(SELECT cid, KMAgg(cid, x, y).{cid, xDiff, yDiff} "
                "FROM points, KM GROUP BY cid)")
        node = compile_text(text)
        join = next(n for n in node.walk() if isinstance(n, LJoin))
        assert join.condition is None

    def test_top_level_handler_select_rejected(self):
        # The handler's prDiff column rides as a δ payload, so a collected
        # result would hold rows narrower than the declared schema.
        cluster = Cluster(2)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             [(0, 1), (0, 3), (1, 3), (1, 2)], "srcId")
        cluster.create_table("PR", ["srcId:Integer", "pr:Double"],
                             [(0, 1.0), (1, 1.0)], "srcId")
        session = RQLSession(cluster)
        session.register(PRAgg(tol=0.0))
        with pytest.raises(TypeCheckError,
                           match="must feed a GROUP BY or a recursive case"):
            session.execute("SELECT PRAgg(srcId, pr).{nbr, prDiff} "
                            "FROM graph, PR WHERE graph.srcId = PR.srcId")
        grouped = session.execute(
            "SELECT nbr, sum(prDiff) FROM (SELECT PRAgg(srcId, pr)"
            ".{nbr, prDiff} FROM graph, PR WHERE graph.srcId = PR.srcId "
            "GROUP BY srcId) GROUP BY nbr")
        assert all(len(row) == 2 for row in grouped.rows)

    def test_three_relations_with_handler_rejected(self):
        text = self.with_query(
            "SELECT PRAgg(srcId, pr).{nbr, prDiff} FROM graph, graph g2, PR "
            "WHERE graph.srcId = PR.srcId GROUP BY srcId")
        with pytest.raises(TypeCheckError):
            compile_text(text)


class TestWithRecursive:
    def test_cte_columns_override_base_names(self):
        node = compile_text(
            "WITH R (vertex, score) AS (SELECT srcId, 1.0 FROM graph) "
            "UNION UNTIL FIXPOINT BY vertex "
            "(SELECT vertex, score FROM R)")
        assert isinstance(node, LFixpoint)
        assert [f.name for f in node.schema] == ["vertex", "score"]
        feedback = next(n for n in node.walk() if isinstance(n, LFeedback))
        assert feedback.schema.has("vertex")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_text(
                "WITH R (a, b, c) AS (SELECT srcId, 1.0 FROM graph) "
                "UNION UNTIL FIXPOINT BY a (SELECT a, b, c FROM R)")

    def test_unknown_fixpoint_key_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_text(
                "WITH R (a, b) AS (SELECT srcId, 1.0 FROM graph) "
                "UNION UNTIL FIXPOINT BY nope (SELECT a, b FROM R)")

    def test_recursive_arity_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_text(
                "WITH R (a, b) AS (SELECT srcId, 1.0 FROM graph) "
                "UNION UNTIL FIXPOINT BY a (SELECT a FROM R)")


class TestJoinExtraction:
    def test_equality_becomes_join_condition(self):
        node = compile_text(
            "SELECT graph.srcId FROM graph, graph g2 "
            "WHERE graph.srcId = g2.destId")
        join = next(n for n in node.walk() if isinstance(n, LJoin))
        assert join.condition == (0, 1)  # graph.srcId, g2.destId

    def test_residual_conjunct_stays_as_filter(self):
        node = compile_text(
            "SELECT graph.srcId FROM graph, graph g2 "
            "WHERE graph.srcId = g2.destId AND graph.destId > 3")
        kinds = [type(n).__name__ for n in node.walk()]
        assert "LFilter" in kinds and "LJoin" in kinds

    def test_missing_join_condition_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_text("SELECT graph.srcId FROM graph, graph g2")

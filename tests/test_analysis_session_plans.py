"""Session-plan diagnostics, pinned: what ``RQLSession.analyze`` reports on
the paper's Listings 1-3, the three TPC-H aggregation queries and the
table-function and partitioning queries.

The polarity (REX3xx) and lineage (REX4xx) passes run on the lowered
physical plan — the tree the executor builds from — so every code below
is a verdict about the operators that actually run.  Locations are
physical paths (``Collect/Fixpoint/Project/GroupBy``).
"""

import pytest

from repro.algorithms import MonotoneMinDist, PRAgg, SPAgg
from repro.algorithms.kmeans import CentroidAvg, KMAgg
from repro.analysis import Severity, analyze_logical
from repro.analysis.absint import infer
from repro.analysis.lineage import infer_lineage
from repro.cluster import Cluster
from repro.common.errors import ReproError
from repro.datasets import dbpedia_like, geo_points, lineitem, \
    sample_centroids
from repro.optimizer.explain import explain
from repro.optimizer.logical import table_arity
from repro.optimizer.physical import lower
from repro.rql import RQLSession
from repro.udf import Count, Sum, udf

from tests.analysis_corpus import (double_feedback, feedback_in_base,
                                   nested_fixpoint, unknown_column)
from tests.test_rql_e2e import KMEANS_RQL, PAGERANK_RQL, SSSP_RQL


class UserSum(Sum):
    name = "usersum"


class UserCount(Count):
    name = "usercount"


@udf(in_types=["Integer"], out_types=["Boolean"], selectivity=6.0 / 7.0)
def line_gt1(linenumber):
    return linenumber > 1


@udf(in_types=["Integer"], out_types=["part:Integer", "half:Integer"],
     table_valued=True, selectivity=2.0)
def split_range(n):
    return [(i, i // 2) for i in range(n)]


@udf(in_types=["Varchar"], out_types=["word:Varchar"], table_valued=True)
def tokenize(text):
    return [(w,) for w in text.split()]


def _graph_session(*user_code):
    cluster = Cluster(3)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         dbpedia_like(60, avg_out_degree=3, seed=7),
                         "srcId")
    cluster.create_table("start", ["v:Integer", "parent:Integer",
                                   "dist:Double"], [(0, -1, 0.0)], "v")
    session = RQLSession(cluster)
    for code in user_code:
        session.register(code)
    return session


def _kmeans_session():
    points = geo_points(40, n_clusters=3, seed=55, spread=0.7)
    cluster = Cluster(3)
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         sample_centroids(points, 3, seed=56), "cid")
    session = RQLSession(cluster)
    session.register(KMAgg)
    session.register(CentroidAvg, name="CentroidAvg")
    return session


def _lineitem_session():
    cluster = Cluster(3)
    cluster.create_table(
        "lineitem",
        ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
         "extendedprice:Double", "discount:Double", "tax:Double"],
        lineitem(60), None)
    session = RQLSession(cluster)
    for code in (UserSum, UserCount, line_gt1):
        session.register(code)
    return session


def _tvf_session():
    cluster = Cluster(3)
    cluster.create_table("t", ["id:Integer", "n:Integer", "s:Varchar"],
                         [(1, 3, "a b"), (2, 2, "c"), (3, 0, "d e f")],
                         "id")
    session = RQLSession(cluster)
    session.register(split_range)
    session.register(tokenize)
    return session


def _keyed_session():
    cluster = Cluster(3)
    cluster.create_table("k", ["a:Integer", "b:Integer", "c:Integer",
                               "x:Integer"],
                         [(i % 5, i % 3, i % 4, i) for i in range(60)], "b")
    return RQLSession(cluster)


#: name -> (session builder, query, fixpoint handler)
SESSION_PLANS = {
    "listing1_pagerank": (lambda: _graph_session(PRAgg(tol=0.0)),
                          PAGERANK_RQL, None),
    "listing2_sssp": (lambda: _graph_session(SPAgg(), MonotoneMinDist),
                      SSSP_RQL, "MonotoneMinDist"),
    "listing3_kmeans": (_kmeans_session, KMEANS_RQL, None),
    "tpch_sum_count": (_lineitem_session,
                       "SELECT sum(tax), count(*) FROM lineitem "
                       "WHERE linenumber > 1", None),
    "tpch_user_sum_count": (_lineitem_session,
                            "SELECT usersum(tax), usercount(*) FROM "
                            "lineitem WHERE line_gt1(linenumber)", None),
    "tpch_group_by": (_lineitem_session,
                      "SELECT orderkey, sum(extendedprice), count(*) FROM "
                      "lineitem WHERE discount >= 0.05 GROUP BY orderkey",
                      None),
    "tvf_fanout": (_tvf_session,
                   "SELECT id, split_range(n).{part, half} FROM t", None),
    "tvf_one_column": (_tvf_session,
                       "SELECT id, split_range(n).{part} FROM t", None),
    "tvf_two_functions": (_tvf_session,
                          "SELECT id, split_range(n).{part}, "
                          "tokenize(s).{word} FROM t", None),
    "tvf_into_group_by": (_tvf_session,
                          "SELECT half, count(*) FROM (SELECT id, "
                          "split_range(n).{part, half} FROM t) sub "
                          "GROUP BY half", None),
    "tvf_then_filter": (_tvf_session,
                        "SELECT part FROM (SELECT id, split_range(n).{part} "
                        "FROM t) s WHERE part > 0", None),
    "partitioning_other_key": (lambda: _graph_session(),
                               "SELECT destId, sum(srcId) FROM graph "
                               "GROUP BY destId", None),
    "partitioning_two_keys": (_keyed_session,
                              "SELECT a, b, sum(x), count(*) FROM k "
                              "GROUP BY a, b", None),
    "partitioning_global": (_keyed_session,
                            "SELECT sum(x) FROM k", None),
}

#: The (code, severity) pairs each session plan reports, one per finding.
EXPECTED = {
    "listing1_pagerank": ("REX301 info", "REX304 info", "REX304 info"),
    "listing2_sssp": ("REX300 info", "REX301 info", "REX304 info"),
    "listing3_kmeans": ("REX301 info", "REX304 info", "REX304 info"),
    "tpch_sum_count": ("REX300 info", "REX304 info", "REX304 info"),
    "tpch_user_sum_count": ("REX300 info", "REX304 info", "REX304 info"),
    "tpch_group_by": ("REX300 info", "REX304 info"),
    "tvf_fanout": (),
    "tvf_one_column": (),
    "tvf_two_functions": (),
    "tvf_into_group_by": ("REX300 info", "REX304 info"),
    "tvf_then_filter": ("REX400 warning", "REX404 info"),
    "partitioning_other_key": ("REX300 info", "REX304 info"),
    "partitioning_two_keys": ("REX300 info", "REX304 info"),
    "partitioning_global": ("REX300 info", "REX304 info", "REX304 info"),
}

LISTINGS = ("listing1_pagerank", "listing2_sssp", "listing3_kmeans")


def session_report(name):
    build, query, handler = SESSION_PLANS[name]
    return build().analyze(query, fixpoint_handler=handler)


@pytest.mark.parametrize("name", list(SESSION_PLANS))
def test_session_plan_diagnostics_are_pinned(name):
    report = session_report(name)
    found = tuple(sorted(f"{d.code} {d.severity.value}" for d in report))
    assert found == EXPECTED[name], report.format()


@pytest.mark.parametrize("name", LISTINGS)
def test_paper_listings_analyse_without_a_warning(name):
    report = session_report(name)
    assert not [d for d in report if d.severity is Severity.WARNING], \
        report.format()


@pytest.mark.parametrize("name", list(SESSION_PLANS))
def test_locations_are_physical_paths(name):
    """Every REX3xx/REX4xx location is a path through the lowered plan,
    which the executor roots at its result collector."""
    for diag in session_report(name):
        assert diag.location.startswith("Collect"), diag


UNLOWERABLE = {"nested_fixpoint": nested_fixpoint,
               "double_feedback": double_feedback,
               "feedback_in_base": feedback_in_base,
               "unknown_column": unknown_column}


@pytest.mark.parametrize("name", sorted(UNLOWERABLE))
def test_a_plan_with_a_logical_error_is_not_lowered(name):
    """These corpus plans cannot be lowered; their REX0xx errors still
    fire, and the dataflow passes are skipped instead of crashing."""
    plan = UNLOWERABLE[name]()
    with pytest.raises(ReproError):
        lower(plan)
    report = analyze_logical(plan)
    assert report.has_errors()
    assert all(code.startswith("REX0") for code in report.codes()), \
        report.format()


def test_facts_answer_for_the_logical_node_an_operator_came_from():
    build, query, handler = SESSION_PLANS["listing1_pagerank"]
    node = build().logical_plan(query)
    plan = lower(node)
    props, _ = infer(plan)
    lineage, _ = infer_lineage(plan, table_arity=table_arity(node))
    assert len(plan.origins) == len(list(node.walk()))
    for pnode in plan.root.children[0].walk():
        lnode = plan.origins[id(pnode)]
        assert props.of(lnode) is props.of(pnode) is not None
        assert lineage.of(lnode) is lineage.of(pnode) is not None
    fixpoint_line = explain(node).splitlines()[0]
    assert fixpoint_line.startswith("Fixpoint(PR BY srcId)")
    assert "[Δ=insert+replace monotone]" in fixpoint_line

"""Reproduce Figure 1: the optimizer's physical plan for PageRank.

Prints the compiled, optimized plan tree for Listing 1 with cardinality
estimates, shows the optimizer's working on a flat OLAP query
(predicate placement, pre-aggregation pushdown, candidate counts), and
runs the static analyzer over that query and over the hand-wired
Figure 1 plan.

Run:  python examples/plan_explain.py
"""

from repro import Cluster, RQLSession
from repro.algorithms import PRAgg, pagerank_plan
from repro.analysis import analyze
from repro.datasets import dbpedia_like, lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.optimizer import Optimizer, explain

PAGERANK_RQL = """
    WITH PR (srcId, pr) AS
    ( SELECT srcId, 1.0 AS pr FROM graph
    ) UNION UNTIL FIXPOINT BY srcId (
      SELECT nbr, 0.15 + 0.85 * sum(prDiff)
      FROM ( SELECT PRAgg(srcId, pr).{nbr, prDiff}
             FROM graph, PR
             WHERE graph.srcId = PR.srcId GROUP BY srcId)
      GROUP BY nbr)
"""


def main() -> None:
    edges = dbpedia_like(n_vertices=500, avg_out_degree=6, seed=3)
    cluster = Cluster(4)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, partition_key="srcId")
    cluster.create_table("lineitem", LINEITEM_SCHEMA, lineitem(2000), None)

    session = RQLSession(cluster)
    session.register(PRAgg(tol=0.01))

    print("== Figure 1: the PageRank plan ==")
    print("(base case feeding the fixpoint; the recursive side joins the")
    print(" fixpoint receiver with the graph via the PRAgg delta handler,")
    print(" rehashes diffs by target page, sums, applies damping, loops)\n")
    print(session.explain(PAGERANK_RQL, with_estimates=True))

    print("\n== optimizer working on a flat OLAP query ==")
    optimizer = Optimizer(cluster)
    raw = RQLSession(cluster, optimize=False).logical_plan(
        "SELECT linenumber, sum(tax), count(*) FROM lineitem "
        "WHERE quantity > 25 GROUP BY linenumber")
    print("before optimization:")
    print(explain(raw))
    best, report = optimizer.optimize_with_report(raw)
    print(f"\nafter optimization ({report.candidates_considered} candidates "
          f"considered, {report.candidates_pruned} pruned, best cost "
          f"{report.best_cost:.6f}s):")
    print(explain(best, optimizer.estimator))

    print("\n== static analysis ==")
    report = session.analyze(
        "SELECT linenumber, sum(tax), count(*) FROM lineitem "
        "WHERE quantity > 25 GROUP BY linenumber")
    print(f"the OLAP query: {len(report)} finding(s), {report.codes()}")
    # A hand-wired physical plan goes through the same analyzer, with the
    # catalog's table widths the executor's rewrite pass reads.
    report = analyze(pagerank_plan(mode="delta"),
                     table_arity=cluster.catalog.widths())
    print(f"the Figure 1 plan: {len(report)} finding(s), {report.codes()}")
    assert not report.has_errors(), report.format()


if __name__ == "__main__":
    main()

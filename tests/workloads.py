"""The end-to-end test workloads, defined once.

Each builder takes an input size (and, optionally, the cluster's
``CostModel``) and returns ``(cluster, plan, extra)``: a freshly loaded
cluster, a physical plan, and the ``ExecOptions`` fields the workload
itself needs (strata cap, injected failure).  Between them
they cover ``+`` and δ traffic through exchange / handler join / group-by
/ keyed fixpoint (PageRank), a node crash with incremental recovery
(SSSP), a UDF-bound loop (k-means), and ``-`` / ``->`` traffic through a
plain join and a stream-mode group-by (the retraction plan).
"""

from repro.algorithms import (kmeans_plan, make_start_table, pagerank_plan,
                              sssp_plan)
from repro.cluster import Cluster
from repro.common.deltas import Delta, DeltaOp
from repro.datasets import dbpedia_like, geo_points, sample_centroids
from repro.runtime import (ExecOptions, FailureSpec, PApply, PGroupBy, PJoin,
                           PRehash, PScan, PhysicalPlan, QueryExecutor)
from repro.udf import AggregateSpec, Count, Min, Sum

GRAPH_SCHEMA = ["srcId:Integer", "destId:Integer"]


def sssp_cluster(vertices=250, cost_model=None):
    cluster = Cluster(5, cost_model=cost_model)
    cluster.create_table("graph", GRAPH_SCHEMA,
                         dbpedia_like(vertices, avg_out_degree=4, seed=17),
                         "srcId", replication=3)
    make_start_table(cluster, 0)
    return cluster


def pagerank_delta(size, cost_model=None):
    cluster = Cluster(4, cost_model=cost_model)
    cluster.create_table("graph", GRAPH_SCHEMA,
                         dbpedia_like(size, avg_out_degree=6, seed=5),
                         "srcId", replication=2)
    return cluster, pagerank_plan(mode="delta"), {"max_strata": 60}


def sssp_failure(size, cost_model=None):
    return (sssp_cluster(vertices=size, cost_model=cost_model), sssp_plan(),
            {"failure": FailureSpec(after_stratum=2)})


def kmeans(size, cost_model=None):
    points = geo_points(size, 4, seed=5, spread=30.0)
    cluster = Cluster(4, cost_model=cost_model)
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         sample_centroids(points, 4, seed=6), "cid")
    return cluster, kmeans_plan(), {"max_strata": 8}


class _ChangeToDelta:
    """A ``(op, src, dst)`` log row becomes the ``+``/``-`` delta of its
    edge."""

    name = "change_to_delta"

    def __call__(self, delta):
        op, src, dst = delta.row
        kind = DeltaOp.INSERT if op == "+" else DeltaOp.DELETE
        return [Delta(kind, (src, dst))]


def retraction_join_groupby(size, cost_model=None):
    """Every edge inserted, every third one deleted again, through a plain
    join and a stream-mode group-by (``-`` and ``->`` traffic), whose
    per-destination rows are then counted by in-degree: a rehash on a key
    the replacements change, into a stratum-mode group-by."""
    edges = dbpedia_like(size, avg_out_degree=6, seed=5)
    log = [("+", s, d) for s, d in edges]
    log += [("-", s, d) for s, d in edges[::3]]
    vertices = 1 + max(max(edge) for edge in edges)
    cluster = Cluster(4, cost_model=cost_model)
    cluster.create_table("changelog",
                         ["op:Varchar", "src:Integer", "dst:Integer"],
                         log, "src")
    cluster.create_table("vertex", ["vid:Integer", "w:Integer"],
                         [(v, v % 97) for v in range(vertices)], "vid")
    src_key = lambda r: (r[0],)
    dst_key = lambda r: (r[1],)
    degree_key = lambda r: (r[1],)
    deltas = PApply(udf_factory=_ChangeToDelta, arg_fn=lambda r: r,
                    delta_aware=True, children=(PScan("changelog"),))
    weighted = PJoin(left_key=src_key, right_key=src_key, children=(
        PRehash.by(deltas, src_key), PScan("vertex")))
    # (dst, indegree, wsum, wmin)
    per_dst = PGroupBy(
        key_fn=dst_key, mode="stream",
        specs_factory=lambda: [AggregateSpec(Count()),
                               AggregateSpec(Sum(), arg=lambda r: r[3]),
                               AggregateSpec(Min(), arg=lambda r: r[3])],
        children=(PRehash.by(weighted, dst_key),))
    # (indegree, vertices, wsum, wmin)
    histogram = PGroupBy(
        key_fn=degree_key,
        specs_factory=lambda: [AggregateSpec(Count()),
                               AggregateSpec(Sum(), arg=lambda r: r[2]),
                               AggregateSpec(Min(), arg=lambda r: r[3])],
        children=(PRehash.by(per_dst, degree_key),))
    return cluster, PhysicalPlan(histogram), {}


#: name -> (builder, (small size, large size))
WORKLOADS = {
    "pagerank_delta": (pagerank_delta, (150, 600)),
    "sssp_failure": (sssp_failure, (150, 600)),
    "kmeans": (kmeans, (400, 1600)),
    "retraction_join_groupby": (retraction_join_groupby, (150, 600)),
}


def build(name, cost_model=None):
    """The named workload at its small size."""
    builder, (small, _) = WORKLOADS[name]
    return builder(small, cost_model=cost_model)


def run(workload, **overrides):
    """Execute a built workload; ``overrides`` are further ``ExecOptions``
    fields.  Returns the ``QueryResult``."""
    cluster, plan, extra = workload
    options = ExecOptions(**extra, **overrides)
    return QueryExecutor(cluster, options).execute(plan)

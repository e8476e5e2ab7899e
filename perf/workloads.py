"""The six benchmark workloads, built on the engine's public API only.

A workload is data: how to build its inputs from a seed, how to plan and
execute on a loaded cluster, an independent reference, and a checker.
The engine never sees the seed or the workload name — only generated
tables, a plan and ``ExecOptions``.

Sizes are chosen so one lifecycle (load + plan + execute) costs 1.1–1.4
CPU seconds on the 2-core reference box; ``scale`` shrinks them for the
smoke self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.algorithms import (
    kmeans_plan,
    kmeans_reference,
    pagerank_plan,
    pagerank_reference,
    sssp_plan,
    sssp_reference,
)
from repro.analysis import analyze_logical
from repro.cluster.cluster import Cluster
from repro.common.deltas import Delta, DeltaOp
from repro.datasets import dbpedia_like, geo_points, lineitem, sample_centroids
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.optimizer.physical import lower
from repro.rql import RQLSession, compile_query, parse
from repro.runtime import (
    ExecOptions,
    FailureSpec,
    PApply,
    PGroupBy,
    PhysicalPlan,
    PJoin,
    PRehash,
    PScan,
    QueryExecutor,
    QueryResult,
)
from repro.udf import AggregateSpec, Count, Min, Sum, udf

NODES = 8
GRAPH_SCHEMA = ["srcId:Integer", "destId:Integer"]
START_SCHEMA = ["v:Integer", "parent:Integer", "dist:Double"]
POINT_SCHEMA = ["pid:Integer", "x:Double", "y:Double"]
CENTROID_SCHEMA = ["cid:Integer", "x:Double", "y:Double"]


class Executed(NamedTuple):
    """One query of a lifecycle: the plan that ran and what came back."""

    plan: PhysicalPlan
    result: QueryResult


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, scale) -> inputs; ``inputs["tables"]`` lists
    #: (name, schema, rows, partition key, replication) to load.
    build: Callable[[int, float], Dict[str, Any]]
    #: (cluster, inputs, make_options, tracer) -> one Executed per query.
    run: Callable[..., List[Executed]]
    reference: Callable[[Dict[str, Any]], Any]
    #: (results, reference) -> (one error-or-None per query, notes).
    check: Callable[[List[QueryResult], Any],
                    Tuple[List[Optional[str]], Dict[str, Any]]]
    #: ExecOptions fields this workload sets; ``--options`` overrides them.
    exec_defaults: Dict[str, Any] = field(default_factory=dict)
    #: Queries per lifecycle; each is one operation.
    queries: int = 1


def load(inputs: Dict[str, Any]) -> Cluster:
    """A fresh cluster with the workload's tables loaded."""
    cluster = Cluster(NODES)
    for name, schema, rows, key, replication in inputs["tables"]:
        cluster.create_table(name, schema, rows, key, replication=replication)
    return cluster


def _sized(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


def _execute_plan(make_plan: Callable[[], PhysicalPlan],
                  tune: Callable[[ExecOptions], None]):
    """The physical-plan lifecycle: constructor, then the executor."""
    def run(cluster, inputs, make_options, tracer) -> List[Executed]:
        with tracer.span("algorithms.plan"):
            plan = make_plan()
        options = make_options()
        tune(options)
        with tracer.span("runtime.execute"):
            result = QueryExecutor(cluster, options).execute(plan)
        return [Executed(plan, result)]
    return run


# ---------------------------------------------------------------------------
# pagerank_delta
# ---------------------------------------------------------------------------
PAGERANK_VERTICES = 3500
PAGERANK_TOL = 0.01
#: The 1% propagation threshold compounds along paths; measured worst
#: per-vertex deviation from the exact recurrence is 3.3%.
PAGERANK_MAX_REL_ERROR = 0.10


def _build_pagerank(seed: int, scale: float) -> Dict[str, Any]:
    edges = dbpedia_like(_sized(PAGERANK_VERTICES, scale, 120), 12.0,
                         seed=seed)
    return {"edges": edges,
            "tables": [("graph", GRAPH_SCHEMA, edges, "srcId", 2)]}


def _tune_pagerank(options: ExecOptions) -> None:
    options.max_strata = 60
    options.feedback_mode = "delta"


def _check_pagerank(results, expected):
    got = {row[0]: row[1] for row in results[0].rows}
    if set(got) != set(expected):
        return [f"vertex sets differ: {len(got)} vs {len(expected)}"], {}
    worst = max(abs(got[v] - expected[v]) / abs(expected[v])
                for v in expected)
    error = None
    if not worst <= PAGERANK_MAX_REL_ERROR:
        error = f"max relative error {worst:.4f} > {PAGERANK_MAX_REL_ERROR}"
    return [error], {"max_rel_error": worst}


# ---------------------------------------------------------------------------
# sssp_tail / sssp_recovery
# ---------------------------------------------------------------------------
SSSP_VERTICES = 6200
SSSP_SOURCE = 0


def _build_sssp(replication: int):
    def build(seed: int, scale: float) -> Dict[str, Any]:
        edges = dbpedia_like(_sized(SSSP_VERTICES, scale, 250), 12.0,
                             seed=seed)
        return {"edges": edges, "tables": [
            ("graph", GRAPH_SCHEMA, edges, "srcId", replication),
            ("start", START_SCHEMA, [(SSSP_SOURCE, -1, 0.0)], "v", 3),
        ]}
    return build


def _tune_sssp(options: ExecOptions) -> None:
    options.max_strata = 200


def _check_sssp(results, expected):
    got = {row[0]: row[2] for row in results[0].rows}
    if got != {v: float(d) for v, d in expected.items()}:
        wrong = sum(1 for v in set(got) | set(expected)
                    if got.get(v) != expected.get(v))
        return [f"{wrong} vertices differ from BFS hop counts"], {}
    return [None], {"reached": len(got)}


# ---------------------------------------------------------------------------
# kmeans_udf
# ---------------------------------------------------------------------------
KMEANS_POINTS = 40000
KMEANS_K = 8
#: Overlapping clusters: Lloyd needs 43–215 iterations on these inputs, so
#: the stratum cap below always binds and every seed does the same number
#: of centroid moves (natural convergence ranges 16–68 strata by seed).
KMEANS_SPREAD = 30.0
#: Base stratum + 12 Lloyd iterations.
KMEANS_STRATA = 13


def _build_kmeans(seed: int, scale: float) -> Dict[str, Any]:
    points = geo_points(_sized(KMEANS_POINTS, scale, 800), KMEANS_K,
                        seed=seed, spread=KMEANS_SPREAD)
    centroids = sample_centroids(points, KMEANS_K, seed=seed + 1)
    return {"points": points, "centroids": centroids, "tables": [
        ("points", POINT_SCHEMA, points, None, 1),
        ("centroids0", CENTROID_SCHEMA, centroids, "cid", 1),
    ]}


def _tune_kmeans(options: ExecOptions) -> None:
    options.max_strata = KMEANS_STRATA


def _reference_kmeans(inputs):
    final, _assignment, _iterations = kmeans_reference(
        inputs["points"], inputs["centroids"], max_iter=KMEANS_STRATA - 1)
    return final


def _check_kmeans(results, expected):
    got = {row[0]: (row[1], row[2]) for row in results[0].rows}
    if set(got) != set(expected):
        return [f"centroid ids differ: {sorted(got)}"], {}
    worst = max(max(abs(got[c][0] - x), abs(got[c][1] - y))
                for c, (x, y) in expected.items())
    error = None if worst <= 1e-6 else f"centroid off by {worst:.3e}"
    return [error], {"max_abs_error": worst}


# ---------------------------------------------------------------------------
# tpch_agg_rql
# ---------------------------------------------------------------------------
TPCH_ROWS = 64000


class UserSum(Sum):
    """SUM as user code: same fold, charged the UDC invocation cost."""

    name = "usersum"

    @staticmethod
    def per_delta_cost(cost) -> float:
        return cost.udf_cost_per_tuple(batched=True)


class UserCount(Count):
    name = "usercount"

    @staticmethod
    def per_delta_cost(cost) -> float:
        return cost.udf_cost_per_tuple(batched=True)


@udf(in_types=["Integer"], out_types=["Boolean"], selectivity=6.0 / 7.0)
def line_gt1(linenumber):
    return linenumber > 1


TPCH_QUERIES = (
    "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1",
    "SELECT usersum(tax), usercount(*) FROM lineitem "
    "WHERE line_gt1(linenumber)",
    "SELECT orderkey, sum(extendedprice), count(*) FROM lineitem "
    "WHERE discount >= 0.05 GROUP BY orderkey",
)


def _build_tpch(seed: int, scale: float) -> Dict[str, Any]:
    rows = lineitem(_sized(TPCH_ROWS, scale, 2000), seed=seed)
    return {"rows": rows,
            "tables": [("lineitem", LINEITEM_SCHEMA, rows, None, 1)]}


def _run_tpch(cluster, inputs, make_options, tracer) -> List[Executed]:
    """The front door, phase by phase: the same public calls
    ``RQLSession.execute`` makes, one span each."""
    session = RQLSession(cluster)
    for user_code in (UserSum, UserCount, line_gt1):
        session.register(user_code)
    executed = []
    for text in TPCH_QUERIES:
        with tracer.span("rql.parse"):
            query = parse(text)
        with tracer.span("rql.compile"):
            node = compile_query(query, cluster.catalog, session.registry)
        with tracer.span("optimizer.optimize"):
            node = session.optimizer.optimize(node)
        with tracer.span("analysis.logical"):
            report = analyze_logical(node)
        if report.has_errors():
            raise RuntimeError(f"plan refused: {report.format()}")
        with tracer.span("optimizer.lower"):
            plan = lower(node)
        with tracer.span("runtime.execute"):
            result = QueryExecutor(cluster, make_options()).execute(plan)
        executed.append(Executed(plan, result))
    return executed


def _reference_tpch(inputs):
    kept = [r for r in inputs["rows"] if r[1] > 1]
    flat = (sum(r[5] for r in kept), len(kept))
    groups: Dict[int, List[float]] = {}
    for r in inputs["rows"]:
        if r[4] >= 0.05:
            g = groups.setdefault(r[0], [0.0, 0])
            g[0] += r[3]
            g[1] += 1
    return flat, groups


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_flat(result, flat) -> Optional[str]:
    if len(result.rows) != 1:
        return f"expected one row, got {len(result.rows)}"
    total, count = result.rows[0]
    if count != flat[1] or not _close(total, flat[0], 1e-9):
        return f"got {(total, count)}, expected {flat}"
    return None


def _check_tpch(results, expected):
    flat, groups = expected
    got = {row[0]: (row[1], row[2]) for row in results[2].rows}
    grouped = None
    if set(got) != set(groups) or len(got) != len(results[2].rows):
        grouped = f"group keys differ: {len(got)} vs {len(groups)}"
    else:
        wrong = sum(1 for k, (total, count) in groups.items()
                    if got[k][1] != count
                    or not _close(got[k][0], total, 1e-9))
        if wrong:
            grouped = f"{wrong} groups differ from direct aggregation"
    return ([_check_flat(results[0], flat), _check_flat(results[1], flat),
             grouped], {"groups": len(groups)})


# ---------------------------------------------------------------------------
# edge_churn
# ---------------------------------------------------------------------------
CHURN_VERTICES = 2100
CHURN_DELETED = 0.30


class ChangeToDelta:
    """Annotation-aware UDF: a ``(op, src, dst)`` log row becomes the
    ``+`` or ``-`` delta of the edge it describes."""

    name = "change_to_delta"

    def __call__(self, delta: Delta) -> List[Delta]:
        op, src, dst = delta.row
        kind = DeltaOp.INSERT if op == "+" else DeltaOp.DELETE
        return [Delta(kind, (src, dst))]


def _build_churn(seed: int, scale: float) -> Dict[str, Any]:
    edges = dbpedia_like(_sized(CHURN_VERTICES, scale, 120), 12.0, seed=seed)
    rng = np.random.default_rng([seed, 1])
    deleted = rng.permutation(len(edges))[:int(CHURN_DELETED * len(edges))]
    reinserted = deleted[:len(deleted) // 2]
    log = [("+", s, d) for s, d in edges]
    log += [("-",) + edges[i] for i in deleted]
    log += [("+",) + edges[i] for i in reinserted]
    n_vertices = 1 + max(max(edge) for edge in edges)
    weights = rng.integers(1, 1000, size=n_vertices)
    vertex = [(v, int(weights[v])) for v in range(n_vertices)]
    # Partitioned by src, so one edge's operations stay in log order.
    return {"log": log, "vertex": vertex, "tables": [
        ("changelog", ["op:Varchar", "src:Integer", "dst:Integer"],
         log, "src", 1),
        ("vertex", ["vid:Integer", "w:Integer"], vertex, "vid", 1),
    ]}


def churn_plan() -> PhysicalPlan:
    """View maintenance under retraction: per-destination in-degree,
    weight sum and lightest source, then their histogram by in-degree.

    The issue's plan ends in ``Count`` by in-degree; ``Sum`` and ``Min``
    ride along there so the checker also sees the per-destination sums
    and minima that the stream-mode group-by maintains under ``-``.
    """
    src_key = lambda r: (r[0],)
    dst_key = lambda r: (r[1],)
    degree_key = lambda r: (r[1],)
    deltas = PApply(udf_factory=ChangeToDelta, arg_fn=lambda r: r,
                    delta_aware=True, children=(PScan("changelog"),))
    # (src, dst) ⋈ (vid, w) -> (src, dst, vid, w)
    weighted = PJoin(left_key=src_key, right_key=src_key, children=(
        PRehash.by(deltas, src_key), PScan("vertex")))
    per_dst = PGroupBy(
        key_fn=dst_key, mode="stream",
        specs_factory=lambda: [AggregateSpec(Count()),
                               AggregateSpec(Sum(), arg=lambda r: r[3]),
                               AggregateSpec(Min(), arg=lambda r: r[3])],
        children=(PRehash.by(weighted, dst_key),))
    # (dst, indegree, wsum, wmin) -> (indegree, vertices, wsum, wmin)
    histogram = PGroupBy(
        key_fn=degree_key,
        specs_factory=lambda: [AggregateSpec(Count()),
                               AggregateSpec(Sum(), arg=lambda r: r[2]),
                               AggregateSpec(Min(), arg=lambda r: r[3])],
        children=(PRehash.by(per_dst, degree_key),))
    return PhysicalPlan(histogram)


def _reference_churn(inputs):
    """Recompute from scratch over the net edge set."""
    weight = dict(inputs["vertex"])
    net: Dict[Tuple[int, int], int] = {}
    for op, src, dst in inputs["log"]:
        net[(src, dst)] = net.get((src, dst), 0) + (1 if op == "+" else -1)
    per_dst: Dict[int, List[int]] = {}
    for (src, dst), copies in net.items():
        if copies:
            w = weight[src]
            g = per_dst.setdefault(dst, [0, 0, w])
            g[0] += 1
            g[1] += w
            g[2] = min(g[2], w)
    histogram: Dict[int, List[int]] = {}
    for degree, wsum, wmin in per_dst.values():
        h = histogram.setdefault(degree, [0, 0, wmin])
        h[0] += 1
        h[1] += wsum
        h[2] = min(h[2], wmin)
    return {(degree, n, wsum, wmin)
            for degree, (n, wsum, wmin) in histogram.items()}


def _check_churn(results, expected):
    rows = results[0].rows
    # A group whose members all left stays behind as a count-0 row (the
    # group-by drops a group only when every aggregate is NULL, and COUNT
    # never is), as do destinations emptied to in-degree 0: compare the
    # populated groups, report how many empty ones there are.
    live = [r for r in rows if r[0] > 0 and r[1] > 0]
    notes = {"empty_group_rows": len(rows) - len(live)}
    if len(set(live)) != len(live) or set(live) != expected:
        return [f"{len(set(live) ^ expected)} histogram rows differ from "
                "recompute-from-scratch"], notes
    return [None], notes


# ---------------------------------------------------------------------------
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="pagerank_delta",
        why="flagship recursive analytics: exchange, handler join, "
            "group-by Sum-update path, keyed fixpoint and Delta "
            "construction all do most of their work here",
        build=_build_pagerank,
        run=_execute_plan(lambda: pagerank_plan(mode="delta",
                                                tol=PAGERANK_TOL),
                          _tune_pagerank),
        reference=lambda inputs: pagerank_reference(inputs["edges"]),
        check=_check_pagerank,
    ),
    Workload(
        name="sssp_tail",
        why="75 strata, most of them tiny: per-stratum fixed cost "
            "(termination vote, punctuation fan-out, checkpoint writes) "
            "dominates, bulk operator throughput does not",
        build=_build_sssp(replication=2),
        run=_execute_plan(sssp_plan, _tune_sssp),
        reference=lambda inputs: sssp_reference(inputs["edges"], SSSP_SOURCE),
        check=_check_sssp,
    ),
    Workload(
        name="kmeans_udf",
        why="bypass workload: most time is user code (KMAgg) with few "
            "tuples through the fabric, so an engine-layer optimisation "
            "should leave it flat",
        build=_build_kmeans,
        run=_execute_plan(kmeans_plan, _tune_kmeans),
        reference=_reference_kmeans,
        check=_check_kmeans,
    ),
    Workload(
        name="tpch_agg_rql",
        why="the only non-recursive, front-door shape: three RQL strings "
            "through parser, compiler, optimizer, pre-aggregation and the "
            "fused stateless corridor; heaviest dataset build",
        build=_build_tpch,
        run=_run_tpch,
        reference=_reference_tpch,
        check=_check_tpch,
        queries=len(TPCH_QUERIES),
    ),
    Workload(
        name="edge_churn",
        why="retraction-heavy view maintenance: the join, group-by and "
            "exchange layers of pagerank_delta driven by - and -> deltas "
            "instead of + and δ",
        build=_build_churn,
        run=_execute_plan(churn_plan, lambda options: None),
        reference=_reference_churn,
        check=_check_churn,
    ),
    Workload(
        name="sssp_recovery",
        why="sssp_tail plus a node crash after stratum 5 and incremental "
            "recovery: reads the Δ-set checkpoints sssp_tail only writes",
        build=_build_sssp(replication=3),
        run=_execute_plan(sssp_plan, _tune_sssp),
        reference=lambda inputs: sssp_reference(inputs["edges"], SSSP_SOURCE),
        check=_check_sssp,
        exec_defaults={"failure": FailureSpec(after_stratum=5),
                       "recovery": "incremental"},
    ),
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

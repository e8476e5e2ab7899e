"""Delta-based single-source shortest path (Listing 2 of the paper).

The Δᵢ set is the frontier: "vertices with minimum distance from source at
iteration i lower than their distance at iteration i-1" (Figure 3).  The
plan mirrors Listing 2:

* base case: the start vertex with distance 0 (and parent -1);
* recursive case: the fixpoint feeds improved ``(v, parent, dist)`` rows
  into a join with the edge relation, where :class:`SPAgg` keeps the best
  known distance per vertex in its bucket and, on improvement, offers
  ``dist + 1`` to every out-neighbour;
* an ArgMin group-by per target vertex picks the best offer (and the
  parent pointer that achieved it, giving the shortest-path tree);
* a monotone while-handler on the fixpoint admits a vertex only when its
  distance strictly improves — distances only ever decrease, which is also
  what makes replay-based incremental recovery exact for this query.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.common.deltas import DeltaOp, insert, run
from repro.runtime import (
    ExecOptions,
    PFeedback,
    PFixpoint,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.udf import AggregateSpec, ArgMin
from repro.udf.aggregates import JoinDeltaHandler, WhileDeltaHandler

INFINITY = float("inf")


class SPAgg(JoinDeltaHandler):
    """The paper's shortest-path join delta handler (Listing 2).

    Left bucket: out-edges ``(srcId, destId)`` of this vertex.  Right
    bucket: the vertex's best known ``(v, parent, dist)`` row.  A strictly
    better distance updates the bucket and offers ``dist + 1`` onward.
    """

    name = "SPAgg"
    in_types = ("Integer", "Double")
    out_types = ("nbr:Integer", "parent:Integer", "distOut:Double")
    replay_idempotent = True  # keeps only the min distance; replay is a no-op
    emits_polarity = frozenset({DeltaOp.INSERT})  # offers are pure insertions
    reads = (0, 1, 2)  # unpacks the full (v, parent, dist) row

    def update(self, left_bucket, right_bucket, delta, side):
        v, parent, dist = delta.row
        prev = right_bucket[0][2] if right_bucket else INFINITY
        if dist >= prev:
            return []
        if right_bucket:
            right_bucket[0] = (v, parent, dist)
        else:
            right_bucket.append((v, parent, dist))
        # One offer per out-edge, built as one run of insertions.
        offer = dist + 1
        return run(DeltaOp.INSERT,
                   [(edge[1], v, offer) for edge in left_bucket])


class MonotoneMinDist(WhileDeltaHandler):
    """While-state handler: admit a vertex row only on strict improvement."""

    name = "MonotoneMinDist"
    replay_idempotent = True  # admits strict improvements only
    emits_polarity = frozenset({DeltaOp.INSERT})  # strict improvements only
    reads = (0, 1, 2)  # stores the whole (v, parent, dist) row

    def update(self, while_relation, delta):
        key = (delta.row[0],)
        current = while_relation.get(key)
        if current is None or delta.row[2] < current[2]:
            while_relation[key] = delta.row
            return [insert(delta.row)]
        return []


def _expand_argmin(row: tuple) -> tuple:
    """(v, (parent, dist)) -> (v, parent, dist): the ``.{id, dist}``
    expansion of ArgMin's pair output."""
    v, pair = row
    if pair is None:
        return (v, None, None)
    return (v, pair[0], pair[1])


def sssp_plan(start_table: str = "start", graph_table: str = "graph",
              use_argmin_groupby: bool = True) -> PhysicalPlan:
    """Listing 2's plan.  ``use_argmin_groupby=False`` drops the ArgMin
    pre-aggregation and lets the fixpoint handler absorb all offers
    directly (an ablation of the paper's plan shape)."""
    vkey = lambda r: (r[0],)
    join = PJoin(left_key=vkey, right_key=vkey,
                 handler_factory=SPAgg, handler_side=1,
                 children=(PScan(graph_table), PFeedback()))
    if use_argmin_groupby:
        recursive = PProject.over(
            PGroupBy(
                key_fn=vkey,
                specs_factory=lambda: [AggregateSpec(
                    ArgMin(), arg=lambda r: (r[1], r[2]), output="best")],
                children=(PRehash.by(join, vkey),),
            ),
            _expand_argmin,
        )
    else:
        recursive = PRehash.by(join, vkey)
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        while_handler_factory=MonotoneMinDist,
        children=(PRehash.by(PScan(start_table), vkey), recursive),
    ))


def make_start_table(cluster: Cluster, source: int,
                     name: str = "start", replication: int = 3) -> None:
    """Register the single-row base-case relation for ``source``.

    Replicated by default: the base case must survive node failures just
    like any other input (the recovery experiments lose arbitrary nodes).
    """
    cluster.create_table(name, ["v:Integer", "parent:Integer", "dist:Double"],
                         [(source, -1, 0.0)], "v", replication=replication)


def run_sssp(cluster: Cluster, start_table: str = "start",
             graph_table: str = "graph", max_strata: int = 200,
             options: Optional[ExecOptions] = None
             ) -> Tuple[Dict[int, Tuple[int, float]], QueryMetrics]:
    """Execute SSSP; returns ({vertex: (parent, dist)}, metrics)."""
    opts = options or ExecOptions()
    opts.max_strata = max_strata
    result = QueryExecutor(cluster, opts).execute(
        sssp_plan(start_table=start_table, graph_table=graph_table))
    return {row[0]: (row[1], row[2]) for row in result.rows}, result.metrics

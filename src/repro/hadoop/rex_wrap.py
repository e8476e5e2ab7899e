"""REX plans that execute wrapped Hadoop code ("REX wrap" configuration).

These builders assemble REX physical plans around the exact mapper/reducer
classes the Hadoop simulator runs — the equivalent of the paper's driver
query template:

    SELECT ReduceWrap('ReduceClass', MapWrap('MapClass', k, v).{k, v}).{k, v}
    FROM InputTable GROUP BY MapWrap('MapClass', k, v).k
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.common.deltas import Delta, DeltaOp
from repro.hadoop.driver import run_wrapped_jobs
from repro.hadoop.jobs import (
    PRApplyReducer,
    PRJoinReducer,
    PRSumCombiner,
    SPJoinReducer,
    SPOfferMinReducer,
    simple_agg_job,
)
from repro.udf.aggregates import WhileDeltaHandler
from repro.hadoop.wrap import MapWrapJoinHandler, ReduceWrapAgg
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
from repro.udf.aggregates import AggregateSpec


def rex_wrap_simple_agg(cluster: Cluster, table: str = "lineitem"
                        ) -> Tuple[Tuple[float, int], QueryMetrics]:
    """Figure 4's query as the generic driver template
    (:func:`~repro.hadoop.driver.wrap_job`) over the Hadoop job's own
    mapper, combiner and reducer."""
    rows, metrics = run_wrapped_jobs(
        cluster, [simple_agg_job()], table,
        kv_extractor=lambda r: (r[0], (r[1], r[5])))
    assert len(rows) == 1
    _, (total, count) = rows[0]
    return (total, count), metrics


def wrap_pagerank_plan(graph_table: str = "graph") -> PhysicalPlan:
    """Recursive PageRank over wrapped Hadoop classes (Section 4.4).

    The reduce-side join logic (PRJoinReducer) runs inside the REX join;
    the combiner (PRSumCombiner) pre-aggregates contributions locally; the
    final reducer (PRApplyReducer) applies the damping formula.  Like the
    no-delta configuration, every iteration re-feeds the full rank relation
    and re-aggregates from scratch — the wrapped code has no notion of
    deltas.
    """
    src_key = lambda r: (r[0],)
    join = PJoin(left_key=src_key, right_key=src_key,
                 handler_factory=lambda: MapWrapJoinHandler(PRJoinReducer()),
                 handler_side=1,
                 children=(PScan(graph_table), PFeedback()))
    combined = PGroupBy(
        key_fn=src_key,
        specs_factory=lambda: [AggregateSpec(
            ReduceWrapAgg(PRSumCombiner), arg=lambda r: r[1],
            output="partial")],
        reset_emissions_each_stratum=True,
        children=(join,),
    )
    final = PGroupBy(
        key_fn=src_key,
        specs_factory=lambda: [AggregateSpec(
            ReduceWrapAgg(PRApplyReducer), arg=lambda r: r[1],
            output="rank")],
        reset_emissions_each_stratum=True,
        children=(PRehash.by(combined, src_key),),
    )
    base = PProject.over(PScan(graph_table), lambda r: (r[0], 1.0))
    return PhysicalPlan(PFixpoint(
        key_fn=src_key,
        semantics="keyed",
        admit_unchanged=True,
        children=(base, final),
    ))


class _MonotoneMinDist2(WhileDeltaHandler):
    """Monotone-min fixpoint semantics for the wrapped SSSP pipeline
    ("ensuring proper fixpoint semantics", Section 4.4): a vertex's
    ``(v, dist)`` row is refined only by a strictly smaller distance."""

    name = "WrapMonotoneMin"

    def update(self, while_relation, delta):
        key = (delta.row[0],)
        current = while_relation.get(key)
        if current is None or delta.row[1] < current[1]:
            while_relation[key] = delta.row
            return [Delta(DeltaOp.INSERT, delta.row)]
        return []


def wrap_sssp_plan(start_table: str = "start",
                   graph_table: str = "graph") -> PhysicalPlan:
    """Recursive SSSP over wrapped Hadoop classes.

    The reduce-side join logic (SPJoinReducer) offers ``dist + 1`` along
    every out-edge of each fed-back vertex; a wrapped min-reducer picks the
    best offer per vertex; the fixpoint's monotone-min semantics supply the
    old-distance comparison that job 2's SPMinReducer performs on Hadoop.
    Like the no-delta configuration, each iteration re-feeds the entire
    distance relation.
    """
    vkey = lambda r: (r[0],)
    join = PJoin(left_key=vkey, right_key=vkey,
                 handler_factory=lambda: MapWrapJoinHandler(
                     SPJoinReducer(), right_tag="F"),
                 handler_side=1,
                 children=(PScan(graph_table), PFeedback()))
    offers_min = PGroupBy(
        key_fn=vkey,
        specs_factory=lambda: [AggregateSpec(
            ReduceWrapAgg(SPOfferMinReducer), arg=lambda r: r[1],
            output="dist")],
        reset_emissions_each_stratum=True,
        children=(PRehash.by(join, vkey),),
    )
    base = PProject.over(PScan(start_table), lambda r: (r[0], r[2]))
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        while_handler_factory=_MonotoneMinDist2,
        children=(PRehash.by(base, vkey), offers_min),
    ))


def _wrap_options(options: Optional[ExecOptions],
                  iterations: int) -> ExecOptions:
    """A wrapped job re-feeds its whole state for ``iterations`` strata.

    A copy of the caller's options, validated like any ``ExecOptions``."""
    return dataclasses.replace(options or ExecOptions(),
                               max_strata=iterations, feedback_mode="full")


def rex_wrap_sssp(cluster: Cluster, iterations: int,
                  start_table: str = "start", graph_table: str = "graph",
                  options: Optional[ExecOptions] = None
                  ) -> Tuple[Dict[int, float], QueryMetrics]:
    result = QueryExecutor(cluster, _wrap_options(options, iterations)
                           ).execute(wrap_sssp_plan(start_table, graph_table))
    return {row[0]: row[1] for row in result.rows}, result.metrics


def rex_wrap_pagerank(cluster: Cluster, iterations: int,
                      graph_table: str = "graph",
                      options: Optional[ExecOptions] = None
                      ) -> Tuple[Dict[int, float], QueryMetrics]:
    result = QueryExecutor(cluster, _wrap_options(options, iterations)
                           ).execute(wrap_pagerank_plan(graph_table))
    return {row[0]: row[1] for row in result.rows}, result.metrics

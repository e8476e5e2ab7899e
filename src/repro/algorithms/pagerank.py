"""Delta-based PageRank — the paper's flagship example (Listing 1, Figure 1).

The recursive plan mirrors Figure 1:

* base case: scan the edge relation, give every source page PageRank 1.0;
* recursive case: the fixpoint feeds PageRank rows back into a join with
  the (immutable) edge relation, where the user join handler :class:`PRAgg`
  stores the page's new score in its bucket (``prBucket``), computes the
  change, and — if it exceeds the convergence threshold — spreads the change
  equally over the out-neighbours (``nbrBucket``) as ``δ(diff)`` deltas;
* those deltas rehash to the target page, a running SUM folds them into
  each page's incoming-mass total, and a projection applies the damping
  formula ``0.15 + 0.85 * sum``;
* the fixpoint (BY page) replaces each page's score, admitting only pages
  whose score actually changed — the Δᵢ set.

Note: Listing 1 computes ``deltaPr = prBucket.get(nbrId) - pr`` (old minus
new), which flips the sign of every propagated diff; we use new minus old,
which is what makes the recurrence converge to PageRank.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.common.deltas import Delta, DeltaOp, run
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
from repro.udf import AggregateSpec, Sum
from repro.udf.aggregates import JoinDeltaHandler, WhileDeltaHandler

DAMPING = 0.85
BASE_SCORE = 0.15


class PRAgg(JoinDeltaHandler):
    """The paper's PageRank join delta handler (Listing 1).

    Left bucket: edge rows ``(srcId, destId)`` for this page (immutable).
    Right bucket: the page's current PageRank row ``(srcId, pr)`` (mutable).
    ``tol`` is the relative convergence threshold (the paper uses 1%);
    ``tol=0`` propagates every nonzero change (exact fixpoint).
    """

    name = "PRAgg"
    in_types = ("Integer", "Double")
    out_types = ("nbr:Integer", "prdiff:Double")
    emits_polarity = frozenset({DeltaOp.UPDATE})  # δ(diff) adjustments only
    reads = (0, 1)  # (page, pr); the edge bucket carries the neighbours

    def __init__(self, tol: float = 0.01):
        super().__init__()
        self.tol = tol
        self._nbrs: Dict[int, list] = {}

    def _neighbour_rows(self, left_bucket) -> list:
        """Memoized ``(destId,)`` rows per edge bucket.

        The edge relation is immutable once scanned (its bucket only ever
        grows during the initial load), so the projected neighbour tuples
        are cached per bucket, keyed by the bucket's identity, and rebuilt
        whenever the bucket has grown.
        """
        nbrs = self._nbrs.get(id(left_bucket))
        if nbrs is None or len(nbrs) != len(left_bucket):
            nbrs = [(edge[1],) for edge in left_bucket]
            self._nbrs[id(left_bucket)] = nbrs
        return nbrs

    def update(self, left_bucket, right_bucket, delta, side):
        page, pr = delta.row[0], delta.row[1]
        prev = right_bucket[0][1] if right_bucket else 0.0
        if right_bucket:
            right_bucket[0] = (page, pr)
        else:
            right_bucket.append((page, pr))
        diff = pr - prev
        threshold = self.tol * abs(prev)
        if abs(diff) <= threshold or diff == 0.0 or not left_bucket:
            return []
        share = diff / len(left_bucket)
        return run(DeltaOp.UPDATE, self._neighbour_rows(left_bucket), share)


class PRAggFull(PRAgg):
    """No-delta variant: re-emits every page's full contribution each
    stratum (paired with a group-by that re-aggregates from scratch)."""

    name = "PRAggFull"

    def update(self, left_bucket, right_bucket, delta, side):
        page, pr = delta.row[0], delta.row[1]
        if right_bucket:
            right_bucket[0] = (page, pr)
        else:
            right_bucket.append((page, pr))
        if not left_bucket:
            return []
        share = pr / len(left_bucket)
        return run(DeltaOp.UPDATE, self._neighbour_rows(left_bucket), share)


class PRFixpointHandler(WhileDeltaHandler):
    """While-state handler realising the paper's Δᵢ definition (Figure 3):
    "PageRank values with change >= 1% since iteration i-1".

    The stored score is always refined to the newest value, but a page is
    only *admitted* into the next stratum's Δ set when its score moved by
    more than the relative threshold — sub-threshold wobble neither feeds
    back nor delays convergence.  ``tol=0`` admits every change (exact).
    """

    name = "PRFixpointHandler"
    emits_polarity = frozenset({DeltaOp.INSERT, DeltaOp.REPLACE})
    reads = (0, 1)  # (page, pr); the whole row is stored as the new state

    def __init__(self, tol: float = 0.01):
        super().__init__()
        self.tol = tol

    def update(self, while_relation, delta):
        row = delta.row
        key = (row[0],)
        current = while_relation.get(key)
        if current is None:
            while_relation[key] = row
            return [Delta(DeltaOp.INSERT, row)]
        if row == current:
            return []
        while_relation[key] = row
        if abs(row[1] - current[1]) > self.tol * abs(current[1]):
            return [Delta(DeltaOp.REPLACE, row, old=current)]
        return []


def _project_damping(row: tuple) -> tuple:
    total = row[1]
    return (row[0], BASE_SCORE + DAMPING * (total if total is not None else 0.0))


def pagerank_plan(mode: str = "delta", tol: float = 0.01,
                  graph_table: str = "graph") -> PhysicalPlan:
    """Build the Figure 1 physical plan.

    ``mode='delta'`` propagates only changes (REX Δ); ``mode='nodelta'``
    re-iterates the full mutable set every stratum (REX no-Δ), matching the
    paper's comparison configuration.
    """
    if mode not in ("delta", "nodelta"):
        raise ValueError(f"unknown PageRank mode {mode!r}")
    delta_mode = mode == "delta"
    src_key = lambda r: (r[0],)

    handler_factory = (lambda: PRAgg(tol)) if delta_mode else PRAggFull
    recursive = PProject.over(
        PGroupBy(
            key_fn=lambda r: (r[0],),
            specs_factory=lambda: [AggregateSpec(Sum(), output="prsum")],
            clear_states_each_stratum=not delta_mode,
            children=(PRehash(key_fn=lambda r: (r[0],), children=(
                PJoin(left_key=src_key, right_key=src_key,
                      handler_factory=handler_factory, handler_side=1,
                      children=(PScan(graph_table), PFeedback())),
            )),),
        ),
        _project_damping,
    )
    base = PProject.over(PScan(graph_table), lambda r: (r[0], 1.0))
    return PhysicalPlan(PFixpoint(
        key_fn=lambda r: (r[0],),
        semantics="keyed",
        while_handler_factory=(lambda: PRFixpointHandler(tol))
        if delta_mode else None,
        admit_unchanged=not delta_mode,
        children=(base, recursive),
    ))


def run_pagerank(cluster: Cluster, mode: str = "delta", tol: float = 0.01,
                 graph_table: str = "graph", max_strata: int = 60,
                 options: Optional[ExecOptions] = None
                 ) -> Tuple[Dict[int, float], QueryMetrics]:
    """Execute PageRank on a cluster whose catalog holds ``graph_table``.

    Returns (page -> score, metrics).  In no-delta mode the query runs for
    ``max_strata`` iterations (the paper's no-delta and Hadoop
    configurations do not convergence-test).
    """
    opts = options or ExecOptions()
    opts.max_strata = max_strata
    opts.feedback_mode = "delta" if mode == "delta" else "full"
    result = QueryExecutor(cluster, opts).execute(
        pagerank_plan(mode=mode, tol=tol, graph_table=graph_table))
    return {row[0]: row[1] for row in result.rows}, result.metrics

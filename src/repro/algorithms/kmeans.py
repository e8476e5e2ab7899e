"""Delta-based K-means clustering (Listing 3 of the paper).

The Δᵢ set is "nodes which switched centroids at iteration i" (Figure 3).
The plan follows Listing 3's shape:

* base case: the sampled initial centroids (the paper's ``KMSampleAgg`` is
  replaced by a pre-sampled centroid relation — see DESIGN.md);
* recursive case: centroid rows broadcast to every worker and meet the
  (immutable, partitioned) point set in a join whose handler
  :class:`KMAgg` maintains each local point's nearest-centroid assignment;
  whenever a point switches centroid the handler emits coordinate
  adjustments — ``+{x, y, 1}`` to the new centroid and ``-{x, y, 1}`` to
  the old one (exactly Listing 3's ``resBag.add({cid,nx,ny},
  {oldCid,-nx,-ny})``);
* a :class:`CentroidAvg` UDA folds the adjustments into per-centroid
  running (sum_x, sum_y, count) state and outputs the mean;
* the fixpoint (BY centroid) admits moved centroids.  When no point
  switches, no adjustments flow, no centroid moves, and the query reaches
  its fixpoint — "until in the end no points switch centroids".
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.common.deltas import Delta, DeltaOp, update
from repro.common.errors import UDFError
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
from repro.udf.aggregates import AggregateSpec, Aggregator, JoinDeltaHandler


class KMAgg(JoinDeltaHandler):
    """Nearest-centroid maintenance over the local point partition.

    Left bucket: local point rows ``(pid, x, y)``.  The handler keeps its
    own centroid map and per-point assignment, updated exactly: when a
    centroid moves toward a point it may capture it; when a point's own
    centroid moves away the nearest centroid is recomputed over all known
    centroids.  Assignment changes emit ``δ(dx, dy, dn)`` adjustments.
    """

    name = "KMAgg"
    in_types = ("Integer", "Double", "Double")
    out_types = ("cid:Integer", "xDiff:Double", "yDiff:Double")
    emits_polarity = frozenset({DeltaOp.UPDATE})  # δ(dx, dy, dn) adjustments
    reads = (0, 1, 2)  # unpacks the full (cid, cx, cy) centroid row

    def __init__(self):
        super().__init__()
        self.centroids: Dict[int, Tuple[float, float]] = {}
        self.assign: Dict[int, Tuple[int, float]] = {}  # pid -> (cid, dist2)
        # Sorted centroid ids, maintained by insort on first sight —
        # centroids move but never disappear, so this is exactly
        # sorted(self.centroids) without re-sorting per nearest-scan.
        self._cids: List[int] = []

    def _nearest(self, x: float, y: float) -> Tuple[int, float]:
        best_cid, best_d2 = -1, float("inf")
        centroids = self.centroids
        for cid in self._cids:
            cx, cy = centroids[cid]
            dx = x - cx
            dy = y - cy
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_cid, best_d2 = cid, d2
        return best_cid, best_d2

    def update(self, left_bucket, right_bucket, delta, side):
        cid, cx, cy = delta.row
        if cx is None or cy is None:
            # An emptied cluster produced a NULL centroid; freeze it.
            return []
        centroids = self.centroids
        if cid not in centroids:
            insort(self._cids, cid)
        centroids[cid] = (cx, cy)
        out: List[Delta] = []
        adjustments: Dict[int, List[float]] = {}
        assign = self.assign
        nearest = self._nearest

        def adjust(c: int, dx: float, dy: float, dn: int) -> None:
            acc = adjustments.setdefault(c, [0.0, 0.0, 0])
            acc[0] += dx
            acc[1] += dy
            acc[2] += dn

        # Hot loop: every local point per centroid move.  Every distance
        # in this handler is the same inlined expression, so comparisons
        # stay self-consistent; dx*dx, not dx**2, which goes through libm
        # pow and is several times slower.
        assign_get = assign.get
        for pid, x, y in left_bucket:
            current = assign_get(pid)
            dx = x - cx
            dy = y - cy
            new_d2 = dx * dx + dy * dy
            if current is None:
                # First centroid this point has ever seen.
                assign[pid] = (cid, new_d2)
                adjust(cid, x, y, 1)
                continue
            cur_cid, cur_d2 = current
            if cur_cid == cid:
                if new_d2 <= cur_d2:
                    assign[pid] = (cid, new_d2)
                else:
                    # Our centroid moved away; someone else may be closer.
                    best_cid, best_d2 = nearest(x, y)
                    assign[pid] = (best_cid, best_d2)
                    if best_cid != cid:
                        adjust(cid, -x, -y, -1)
                        adjust(best_cid, x, y, 1)
            elif new_d2 < cur_d2:
                assign[pid] = (cid, new_d2)
                adjust(cur_cid, -x, -y, -1)
                adjust(cid, x, y, 1)
        for c, (dx, dy, dn) in sorted(adjustments.items()):
            if dx or dy or dn:
                out.append(update((c,), payload=(dx, dy, dn)))
        return out


class CentroidAvg(Aggregator):
    """Per-centroid running (sum_x, sum_y, count); result is the mean.

    Plays the role of Listing 3's paired ``avg(xDiff), avg(yDiff)`` — the
    adjustments adjust both the sums and the member count, so the state is
    exactly a streaming average over the current membership.
    """

    name = "centroid_avg"

    def init_state(self):
        return {"sx": 0.0, "sy": 0.0, "n": 0}

    def agg_state(self, state, delta, value, old_value=None):
        if delta.op is not DeltaOp.UPDATE:
            raise UDFError("centroid_avg consumes only δ-adjustment deltas")
        dx, dy, dn = delta.payload
        state["sx"] += dx
        state["sy"] += dy
        state["n"] += dn
        return state

    def agg_result(self, state):
        if state["n"] <= 0:
            return None
        return (state["sx"] / state["n"], state["sy"] / state["n"])


def _expand_centroid(row: tuple) -> tuple:
    cid, pair = row
    if pair is None:
        return (cid, None, None)
    return (cid, pair[0], pair[1])


def kmeans_plan(points_table: str = "points",
                centroids_table: str = "centroids0") -> PhysicalPlan:
    all_key = lambda r: ()
    cid_key = lambda r: (r[0],)
    # Centroid feedback is *broadcast*: every worker's KMAgg must see every
    # centroid move, while the big point set stays partitioned in place.
    join = PJoin(left_key=all_key, right_key=all_key,
                 handler_factory=KMAgg, handler_side=1,
                 children=(
                     PScan(points_table),
                     PRehash.broadcast_of(PFeedback()),
                 ))
    recursive = PProject.over(
        PGroupBy(key_fn=cid_key,
                 specs_factory=lambda: [AggregateSpec(
                     CentroidAvg(), output="mean")],
                 children=(PRehash.by(join, cid_key),)),
        _expand_centroid,
    )
    return PhysicalPlan(PFixpoint(
        key_fn=cid_key,
        semantics="keyed",
        children=(PRehash.by(PScan(centroids_table), cid_key), recursive),
    ))


def run_kmeans(cluster: Cluster, points_table: str = "points",
               centroids_table: str = "centroids0", max_strata: int = 120,
               options: Optional[ExecOptions] = None
               ) -> Tuple[Dict[int, Tuple[float, float]], QueryMetrics]:
    """Execute K-means; returns ({cid: (x, y)}, metrics)."""
    opts = options or ExecOptions()
    opts.max_strata = max_strata
    result = QueryExecutor(cluster, opts).execute(
        kmeans_plan(points_table=points_table,
                    centroids_table=centroids_table))
    return {row[0]: (row[1], row[2]) for row in result.rows}, result.metrics

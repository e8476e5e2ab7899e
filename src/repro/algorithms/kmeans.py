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

from bisect import bisect_left
from operator import index
from typing import Dict, List, Optional, Tuple

import numpy as np

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

    Each centroid move is one whole-array pass over the bucket.  The
    per-point state lives in numpy arrays aligned with the bucket's rows
    (``x``, ``y``, ``pid``, and the assignment ``cid``/``d2``, valid
    where ``assigned``); coordinates are doubles, as the declared
    ``Double`` types say.  Every expression is the scalar rule's, element
    by element, so the emitted deltas are exactly the ones a per-point
    loop in bucket order would emit: distances are ``dx*dx + dy*dy``, a
    NaN distance fails every comparison, the nearest centroid is the
    first strict minimum over the sorted cids, and each centroid's
    adjustments are summed in point order.  A pid appears at most once
    in the bucket (one assignment per point); a repeated pid is a
    :class:`UDFError`.
    """

    name = "KMAgg"
    in_types = ("Integer", "Double", "Double")
    out_types = ("cid:Integer", "xDiff:Double", "yDiff:Double")
    emits_polarity = frozenset({DeltaOp.UPDATE})  # δ(dx, dy, dn) adjustments
    reads = (0, 1, 2)  # unpacks the full (cid, cx, cy) centroid row

    def __init__(self):
        super().__init__()
        # Centroids move but never disappear: ``_cids`` is sorted(known
        # cids), kept by bisection, with ``_cx``/``_cy`` aligned to it.
        self._cids: List[int] = []
        self._cx = np.empty(0)
        self._cy = np.empty(0)
        # pid -> (cid, d2) of points that left the bucket: a point that
        # comes back resumes its assignment.
        self._departed: Dict[int, Tuple[int, float]] = {}
        self._clear_points()

    # -- per-point arrays ---------------------------------------------------
    def _clear_points(self) -> None:
        # The bucket rows the point arrays were built from.  The join
        # appends to the bucket, and a ``-``/``->`` on the point side
        # rewrites it in place; _sync compares before every pass.
        self._rows: list = []
        self.x = np.empty(0)
        self.y = np.empty(0)
        self.pid = np.empty(0, dtype=np.int64)
        self.assigned = np.empty(0, dtype=bool)
        self.cid = np.empty(0, dtype=np.int64)
        self.d2 = np.empty(0)

    def _sync(self, left_bucket: list) -> None:
        rows = self._rows
        n = len(rows)
        if len(left_bucket) == n:
            if left_bucket == rows:
                return
        elif len(left_bucket) > n and left_bucket[:n] == rows:
            self._extend(left_bucket[n:])
            return
        # Rewritten in place: park every assignment by pid, rebuild.
        self._departed.update(
            (p, (c, d)) for p, a, c, d in zip(
                self.pid.tolist(), self.assigned.tolist(),
                self.cid.tolist(), self.d2.tolist()) if a)
        self._clear_points()
        self._extend(list(left_bucket))

    def _extend(self, new_rows: list) -> None:
        pids, xs, ys = [], [], []
        for p, x, y in new_rows:
            pids.append(p)
            xs.append(x)
            ys.append(y)
        pid = np.array(pids, dtype=np.int64)
        m = len(pids)
        if len(np.unique(pid)) != m or np.isin(pid, self.pid).any():
            raise UDFError("KMAgg: a pid appears twice in the point bucket")
        if None in xs or None in ys:
            raise UDFError("KMAgg: a point has a NULL coordinate")
        assigned = np.zeros(m, dtype=bool)
        cid = np.zeros(m, dtype=np.int64)
        d2 = np.zeros(m)
        departed = self._departed
        if departed:
            for i, p in enumerate(pids):
                back = departed.pop(p, None)
                if back is not None:
                    assigned[i] = True
                    cid[i], d2[i] = back
        self._rows.extend(new_rows)
        self.x = np.concatenate((self.x, np.array(xs, dtype=np.float64)))
        self.y = np.concatenate((self.y, np.array(ys, dtype=np.float64)))
        self.pid = np.concatenate((self.pid, pid))
        self.assigned = np.concatenate((self.assigned, assigned))
        self.cid = np.concatenate((self.cid, cid))
        self.d2 = np.concatenate((self.d2, d2))

    def _nearest(self, x: np.ndarray, y: np.ndarray):
        """(cid, d2) of each point's nearest known centroid: the first
        strictly smallest distance over the sorted cids, or ``(-1, inf)``
        when no distance is below infinity (all NaN or inf)."""
        dx = x[:, None] - self._cx
        dy = y[:, None] - self._cy
        d2 = dx * dx + dy * dy
        d2 = np.where(d2 < np.inf, d2, np.inf)
        first = d2.argmin(axis=1)
        best_d2 = d2[np.arange(len(first)), first]
        found = best_d2 < np.inf
        best_cid = np.where(found, np.asarray(self._cids)[first], -1)
        return best_cid, best_d2

    def update(self, left_bucket, right_bucket, delta, side):
        cid, cx, cy = delta.row
        if cx is None or cy is None:
            # An emptied cluster produced a NULL centroid; freeze it.
            return []
        try:
            cid = index(cid)
        except TypeError:
            raise UDFError(f"KMAgg: centroid id {cid!r} is not an integer"
                           ) from None
        cids = self._cids
        at = bisect_left(cids, cid)
        if at == len(cids) or cids[at] != cid:
            cids.insert(at, cid)
            self._cx = np.insert(self._cx, at, cx)
            self._cy = np.insert(self._cy, at, cy)
        else:
            self._cx[at] = cx
            self._cy[at] = cy
        self._sync(left_bucket)
        if not self._rows:
            return []
        # Python float arithmetic overflows to inf and makes NaN silently.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._reassign(cid, cx, cy)

    def _reassign(self, cid: int, cx: float, cy: float) -> List[Delta]:
        """One pass of the per-point rule over the whole bucket for the
        move of ``cid`` to ``(cx, cy)``; returns the adjustments."""
        x, y = self.x, self.y
        assigned, assigned_cid, d2 = self.assigned, self.cid, self.d2
        had = assigned.copy()
        before = assigned_cid.copy()
        dx = x - cx
        dy = y - cy
        new_d2 = dx * dx + dy * dy
        # The per-point rule's cases; NaN fails <= and <.  A point takes
        # the moved centroid if it is its first, its own and no farther,
        # or another strictly closer than its own.
        mine = had & (assigned_cid == cid)
        closer = new_d2 <= d2
        take = (~had | (mine & closer)
                | (had & (assigned_cid != cid) & (new_d2 < d2)))
        np.copyto(d2, new_d2, where=take)
        np.copyto(assigned_cid, cid, where=take)
        assigned.fill(True)
        # Its own centroid moved away: someone else may be closer.
        away = np.flatnonzero(mine & ~closer)
        assigned_cid[away], d2[away] = self._nearest(x[away], y[away])
        moved = np.flatnonzero(~had | (assigned_cid != before))
        if not len(moved):
            return []
        # A (leave, join) event pair per moved point, in point order; a
        # first assignment has no leave.
        real = np.column_stack((had[moved], np.ones(len(moved), dtype=bool))
                               ).ravel()
        target = np.column_stack((before[moved], assigned_cid[moved])
                                 ).ravel()[real]
        leaving = np.tile((True, False), len(moved))[real]
        at = np.repeat(moved, 2)[real]
        ex = x[at]
        ey = y[at]
        np.negative(ex, out=ex, where=leaving)
        np.negative(ey, out=ey, where=leaving)
        # bincount folds its weights sequentially in event order: per
        # centroid, the same float additions as adding them one by one.
        centroids, slot = np.unique(target, return_inverse=True)
        k = len(centroids)
        sum_x = np.bincount(slot, weights=ex, minlength=k)
        sum_y = np.bincount(slot, weights=ey, minlength=k)
        count = (np.bincount(slot[~leaving], minlength=k)
                 - np.bincount(slot[leaving], minlength=k))
        return [update((c,), payload=(sx, sy, n))
                for c, sx, sy, n in zip(centroids.tolist(), sum_x.tolist(),
                                        sum_y.tolist(), count.tolist())
                if sx or sy or n]


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
